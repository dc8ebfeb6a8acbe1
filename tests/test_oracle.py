"""A 50-digit oracle for the direct route's certificate on small real pairs.

The route decides min g over real lambda, g(lambda) = sigma_max(T~ + lambda S~)^2
- ||T||_A^2 + 2 eps ||T||_A ||S||_A |lambda|, and reports an interval
[margin_lower, margin] that should contain it. Here T~, S~ and the norms in
the penalty are taken from the binds as exact inputs, and ||T||_A^2 as
sigma_max(T~)^2 in 50 digits, so that g(0) = 0 as the route defines it. g is
convex, so golden section finds its minimum over the route's interval
|lambda| <= 2 (1 + eps) ||T||_A / ||S||_A to far below double rounding.
"""

from __future__ import annotations

import numpy as np
from mpmath import mp

from semiortho import bind_operator, op_orth_attainment_real, op_orth_direct
from semiortho.sampling import random_a_bounded, random_psd

_UNIT_ROUNDOFF = float(np.finfo(np.float64).eps) / 2.0


def _top_eigenvalue(g):
    """Largest eigenvalue of a real symmetric 1 x 1 to 3 x 3 mp matrix, in
    closed form (the trigonometric solution of the characteristic cubic)."""
    if g.rows == 1:
        return g[0, 0]
    if g.rows == 2:
        return (g[0, 0] + g[1, 1] + mp.sqrt((g[0, 0] - g[1, 1]) ** 2 + 4 * g[0, 1] ** 2)) / 2
    q = (g[0, 0] + g[1, 1] + g[2, 2]) / 3
    off = g[0, 1] ** 2 + g[0, 2] ** 2 + g[1, 2] ** 2
    p = mp.sqrt(((g[0, 0] - q) ** 2 + (g[1, 1] - q) ** 2 + (g[2, 2] - q) ** 2 + 2 * off) / 6)
    if p == 0:
        return q
    r = mp.det((g - q * mp.eye(3)) / p) / 2
    return q + 2 * p * mp.cos(mp.acos(min(max(r, -1), 1)) / 3)


def _min_g(op_t, op_s, eps: float):
    """min g over the route's interval, to about 1e-24 in lambda."""
    t, s = mp.matrix(op_t.tilde.tolist()), mp.matrix(op_s.tilde.tolist())
    norm_t, norm_s = mp.mpf(op_t.norm), mp.mpf(op_s.norm)
    penalty = 2 * mp.mpf(eps) * norm_t * norm_s
    top = _top_eigenvalue(t.T * t)

    def g(lam):
        m = t + lam * s
        return _top_eigenvalue(m.T * m) - top + penalty * abs(lam)

    hi = 2 * (1 + mp.mpf(eps)) * norm_t / norm_s
    lo = -hi
    ratio = (mp.sqrt(5) - 1) / 2
    x1, x2 = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
    f1, f2 = g(x1), g(x2)
    while hi - lo > mp.mpf(10) ** -24:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - ratio * (hi - lo)
            f1 = g(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + ratio * (hi - lo)
            f2 = g(x2)
    return min(f1, f2, g(mp.mpf(0)))


def test_direct_certificate_against_50_digit_minimum():
    """20 real 2 x 2 and 3 x 3 pairs, full rank and rank-deficient A, half
    at a random epsilon and half from 1e-7 to 1e-2 of ||T||_A ||S||_A below
    the boundary, where the dual bound and the proximal step do the work:
    margin_lower <= min g on every pair. The margin is g evaluated in double
    at the witness, so it may sit below the exact min g by the rounding of
    that one eigensolve, 4 (r + 1) u (||T|| + |lambda*| ||S||)^2 at most."""
    rng = np.random.default_rng(7)
    for i in range(20):
        n = 2 + i % 2
        a = random_psd(rng, n, rank=n if i % 4 < 2 else n - 1)
        op_t = bind_operator(a, random_a_bounded(rng, a))
        op_s = bind_operator(a, random_a_bounded(rng, a))
        if i % 2:
            boundary = -op_orth_attainment_real(a, op_t, op_s, 0.0).margin / (op_t.norm * op_s.norm)
            eps = min(max(boundary - 10.0 ** rng.uniform(-7.0, -2.0), 0.0), 0.99)
        else:
            eps = float(rng.uniform(0.0, 0.99))
        v = op_orth_direct(a, op_t, op_s, eps)
        with mp.workdps(50):
            exact = _min_g(op_t, op_s, eps)
        r = op_t.tilde.shape[0]
        slack = 4 * (r + 1) * _UNIT_ROUNDOFF * (op_t.norm + abs(v.witness.lam) * op_s.norm) ** 2
        assert v.margin_lower <= exact, (i, v.margin_lower, float(exact))
        assert exact <= v.margin + slack, (i, float(exact), v.margin)
