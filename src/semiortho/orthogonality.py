"""Deciders for approximate orthogonality of A-bounded operators.

Three routes decide T perp S in the Chmielinski sense, and they must agree:

* direct minimization of g(lambda) = ||T + lambda S||_A^2 - ||T||_A^2
  + 2 eps ||T||_A ||S||_A |lambda| over the scalar field (the definition);
* the real single-vector criterion: some norm-attaining x has
  |<Tx, Sx>_A| <= eps ||T||_A ||S||_A, reduced to an eigenvalue condition on
  the attainment subspace;
* the complex attainment route: the numerical range W(F) of the attainment
  form F, convex by Toeplitz-Hausdorff, must come within the band
  E = eps ||T||_A ||S||_A of 0. For a one-dimensional attainment subspace F
  is a scalar and the distance is |F|; otherwise it is minus the least value
  of the support function of W(F) over the unit disc, a convex problem that
  the direct route's minimizer solves with a certificate.

In finite dimensions every norm supremum is attained and the unit ball of the
range geometry is compact, so sequence-based forms of these criteria collapse
to the attained forms implemented here; the verdicts record that standing
assumption. Disagreement between routes is a defect, not an input property.

Every route returns the vector deciders' :class:`~semiortho.vectors.OrthoVerdict`,
built by the same rule, with a :class:`~semiortho.vectors.Witness` that
reproduces its margin: lambda* on the direct route, the lifted attaining
vector on the attainment routes, and with it the worst phase theta on the
complex one. Every route applies one zero-norm rule: where ||T||_A or
||S||_A is 0 the relation holds trivially, with margin exactly 0 (and
margin_lower 0 where the route reports one), witnessed by lambda* = 0 on the
direct route and by T's first lifted attainment vector, with theta = 0 over
C, on the others.
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import replace
from functools import partial
from typing import Callable, Optional

import numpy as np

from .core import _UNIT_ROUNDOFF, VERDICT_MARGIN_TOL, PsdOperator
from .errors import AttainmentSubsetError, ComplexFieldError, RealFieldError
from .operators import ABoundedOperator, Operand, bind_operator
from .vectors import Method, OrthoVerdict, Scalar, Witness, _verdict, validate_epsilon

FINITE_DIM_NOTE = "finite-dimensional attainment; B_H(A) cap R(A) bounded holds automatically"


def _field_is_complex(*objs: ABoundedOperator) -> bool:
    return any(o.is_complex for o in objs)


# Cut budget of the ellipsoid minimizer, which makes one eigensolve per cut.
# On 600 complex 3x3 to 6x6 pairs whose T attains its norm on 2 to 4
# dimensions, drawn as the op_route_equivalence_complex_multiplicity suite
# draws them from default_rng(2026), the theta route took at most 99 cuts
# (mean 29.4) and the direct route at most 110 (mean 29.3): where the top
# eigenvalue of M* M is multiple, g is not smooth, no Newton step is taken and
# a one-vector dual bound is not tight. On the bench's 200
# near_boundary_complex probes of seeds 1 and 2 the direct route took at most
# 2 (mean 0.9). The rest is slack, and a call stays under 200 eigensolves.
# A call that fails can still spend the whole budget: its stop rule closes the
# bounds to an absolute VERDICT_MARGIN_TOL / 4 = 2.5e-10, which the rounding
# of g can keep out of reach once ||T||_A is in the tens. Verifying right
# witnesses at eps = 0.3 (n = 64 and 256, both fields, ||T||_A = 16 to 44),
# the reverse call T perp U failed by 24 to 40 and its bound gap stalled at
# 2.1e-10 to 5.3e-10; it took 31 to 150 eigensolves, the whole budget on the
# complex n = 256 instance (ROADMAP item 2).
_MAX_CUTS = 150
# Relative gap below which the top eigenvalue of M* M counts as multiple: g is
# not smooth there, so the route takes no Newton step. The step's Hessian
# divides by the gaps w_1 - w_j (``_newton_step``), and one eigensolve of
# M* M resolves each w_j to about r u w_1 (r the rank, u the unit roundoff):
# at a relative gap of 1e-12 that is a relative error of 1.1e-4 r in the gap,
# under 3% up to r = 256, so the curvature is still known; much below it the
# step divides by rounding. The gap is relative, so rescaling T, S or A does
# not move the test, and it only decides whether a step is proposed: a Newton
# point is queried only inside the ellipsoid and followed only while g falls,
# and the verdict rests on the cut and dual bounds, so the value moves the
# number of eigensolves, not what they certify.
_SIMPLE_GAP = 1e-12


def _eigensystem(m: np.ndarray, s_tilde: np.ndarray) -> tuple[np.ndarray, ...]:
    """(M, w, V, M v, S~ v): the eigensystem (w, V) of M* M and the products
    at its top eigenvector v."""
    w, vecs = np.linalg.eigh(m.conj().T @ m)
    v = vecs[:, -1]
    return m, w, vecs, m @ v, s_tilde @ v


def _rounding(r: int, norm_t: float, norm_s: float, reach: float) -> float:
    """4 (r + 1) u (||T|| + reach ||S||)^2: the rounding of g, or of the dual
    bound, for products of length r whose factors have norms up to
    ||T|| + reach ||S|| (see ``_dual_bound``). One eigensolve of M* M
    resolves sigma_max(M)^2 to about r u ||M||^2 in the same model, with
    ||M|| <= ||T|| + |lambda| ||S||, so reach = |lambda| bounds the rounding
    of g(lambda) with room to spare."""
    return 4.0 * (r + 1) * _UNIT_ROUNDOFF * (norm_t + reach * norm_s) ** 2


def _dual_bound(
    norm_t: float, norm_s: float, penalty: float, radius: float, lam: Scalar,
    mv: np.ndarray, sv: np.ndarray, q: complex,
) -> float:
    """A lower bound on min g from the query's unit vector v, given M v,
    S~ v and q = <S~ v, M v> at the query lambda, M = T~ + lambda S~.

    For every mu, sigma_max(T~ + mu S~)^2 >= ||(T~ + mu S~) v||^2
    = a + 2 Re(mu conj(c)) + |mu|^2 s, with a = ||T~ v||^2, c = <S~ v, T~ v>
    and s = ||S~ v||^2; T~ v = M v - lambda S~ v gives
    a = ||M v||^2 - 2 Re(conj(lambda) q) + |lambda|^2 s and c = q - lambda s.
    So g(mu) >= a - ||T||^2 - (2 |c| - p) t + s t^2 at t = |mu| for
    p = 2 eps ||T|| ||S||, with equality in the phase of mu that points
    against c (c is real over R, where mu is). The least value over the disc
    t <= R of the search is at t* = min((2|c| - p) / (2 s), R) where
    2 |c| > p, and L = a - ||T||^2 - t* (2|c| - p - s t*) is the rank-one
    case Z = v v* of the minimax dual of g (Sion). At a smooth minimizer
    with v its top eigenvector the bound is tight: both sides agree at mu =
    lambda with the same gradient (Lewis & Overton, Acta Numerica 1996), so
    L = g(lambda*) - O(|h|^2) as the subgradient h goes to 0. It needs no
    eigensolve: two dot products on the vectors in hand.

    The rounding term: every product here has length r, and its error is at
    most (r + 1) u, u the unit roundoff, times the norms of its factors in
    the normwise model that also bounds how well one eigensolve resolves g
    itself (forming M adds u to the r u of M v). With ||M|| <= ||T|| +
    |lambda| ||S|| and ||S~ v|| <= ||S||, the errors are at most 3 d
    (||T|| + 2 |lambda| ||S||)^2 in a, 3 d ||S|| (||T|| + 2 |lambda| ||S||)
    in c and 3 d ||S||^2 in s, for d = (r + 1) u; a unit vector that is unit
    only to within d adds d (||T|| + t* ||S||)^2. To first order the least
    value moves by the error of the objective at t*, a + 2 t* |c| + t*^2 s,
    so all of it is within rho = 4 d (||T|| + (2 |lambda| + t*) ||S||)^2
    (``_rounding``), and L - rho is returned. The scalars scale as
    a ~ ||T||^2, c ~ ||T|| ||S||, s ~ ||S||^2 and t ~ ||T|| / ||S||, so L and
    rho both scale with ||T||^2, as g(lambda; k T, S) = k^2 g(lambda / k; T, S)
    does, and neither moves when S is rescaled.
    """
    s = float(np.vdot(sv, sv).real)
    c = q - lam * s
    gap = float(np.vdot(mv, mv).real) - 2.0 * (lam.conjugate() * q).real + abs(lam) ** 2 * s - norm_t**2
    slope = 2.0 * abs(c) - penalty
    t = 0.0
    if slope > 0.0:
        t = radius if slope >= 2.0 * s * radius else slope / (2.0 * s)
    return gap - t * (slope - s * t) - _rounding(sv.size, norm_t, norm_s, 2.0 * abs(lam) + t)


def _objective(
    op_t: ABoundedOperator, op_s: ABoundedOperator, eps: float, lam: Scalar
) -> tuple[float, complex, Callable[[], tuple[np.ndarray, ...]], tuple]:
    """g(lambda), a subgradient of g written d/dRe + i d/dIm, a function
    returning what a Newton step needs: the eigensystem (w, V) of M* M, M
    and the products M v and S~ v at its top eigenvector v, and the
    arguments of ``_dual_bound`` at v after the norms, penalty and radius:
    (lambda, M v, S~ v, <S~ v, M v>).

    The smooth part sigma_max(M)^2 >= ||M v||^2, M = T~ + lambda S~, has
    subgradient 2 <M v, S~ v> (Lewis & Overton, Acta Numerica 1996). Of the
    disc that is the subdifferential of 2 eps ||T|| ||S|| |lambda| at 0, the
    element that shortens the subgradient most is taken, so a zero
    subgradient proves lambda = 0 optimal. At lambda = 0, M = T~: g(0) = 0
    by definition and v is the top singular vector held by the bind of T,
    whose eigensystem of T~* T~ the Newton step reads (the bind kept it
    below ``operators._PARTIAL_MIN_RANK``; above, it is formed if asked for).
    """
    penalty = 2.0 * eps * op_t.norm * op_s.norm
    if lam == 0:
        m, v = op_t.tilde, op_t.top_coords[:, 0]
        val, mv, sv = 0.0, m @ v, op_s.tilde @ v
        if op_t.gram_eigh is None:
            eig = partial(_eigensystem, m, op_s.tilde)
        else:
            eig = lambda: (m, *op_t.gram_eigh, mv, sv)
    else:
        system = _eigensystem(op_t.tilde + lam * op_s.tilde, op_s.tilde)
        _, w, _, mv, sv = system
        val = float(w[-1]) - op_t.norm**2 + penalty * abs(lam)
        eig = lambda: system
    q = complex(np.vdot(sv, mv))
    grad = 2.0 * q
    if lam != 0:
        grad += penalty * lam / abs(lam)
    elif grad != 0:
        grad *= max(0.0, 1.0 - penalty / abs(grad))
    return val, grad, eig, (lam, mv, sv, q)


def _newton_step(
    op_s: ABoundedOperator,
    penalty: float,
    lam: Scalar,
    grad: complex,
    eig: Callable[[], tuple[np.ndarray, ...]],
) -> Optional[tuple[float, float]]:
    """Newton step of g at lambda as (dRe, dIm), or None where the top
    eigenvalue of M* M is multiple (g is not smooth there) or the curvature
    along the step is not positive.

    Away from 0 the step is -Hess^{-1} h. The Hessian is the second-order
    perturbation of a simple eigenvalue (Overton, SIAM J. Matrix Anal. Appl.
    9, 1988): with D_k the derivative of M* M along Re lambda, Im lambda and
    b_k = D_k v,
    Hess_kl = 2 ||S~ v||^2 delta_kl + 2 Re sum_j conj(V_j* b_k) (V_j* b_l) / (w_1 - w_j),
    plus (penalty / |lambda|) (I - u u^T), u = lambda / |lambda|, the
    curvature of the |lambda| term, which vanishes on the real line.

    At lambda = 0, the kink of |lambda|, it is the proximal Newton step (Lee,
    Sun & Saunders, SIAM J. Optim. 24, 2014) with the |lambda| term kept
    exact: the least point of the quadratic model of the smooth part plus
    penalty |lambda| along -h, d = -h / (u^T H u) with u = h / |h|, H the
    smooth part's Hessian and h the shortened subgradient; in the real field
    that is the model's least point.
    """
    m, w, vecs, mv, sv = eig()
    if w.size > 1 and w[-1] - w[-2] <= _SIMPLE_GAP * w[-1]:
        return None
    # b_1 = p + q and b_2 = i (q - p) with p = S~* M v and q = M* S~ v. The
    # rows of k are conj(V_j* p) and conj(V_j* q) over the other
    # eigenvectors V_j, from one product that does not copy V, and
    # gram[a, b] = sum_j conj(V_j* a) (V_j* b) / (w_1 - w_j) for a, b in {p, q}.
    k = np.array((mv.conj() @ op_s.tilde, sv.conj() @ m)) @ vecs[:, :-1]
    gram = (k / (w[-1] - w[:-1])) @ k.conj().T
    diag = 2.0 * float(np.vdot(sv, sv).real) + 2.0 * float((gram[0, 0] + gram[1, 1]).real)
    cross = complex(gram[0, 1])
    hxx = diag + 4.0 * cross.real
    if not isinstance(lam, complex):
        return (-grad.real / hxx, 0.0) if hxx > 0.0 else None
    hyy = diag - 4.0 * cross.real
    hxy = -4.0 * cross.imag
    if lam == 0:
        ux, uy = grad.real / abs(grad), grad.imag / abs(grad)
        curv = hxx * ux * ux + 2.0 * hxy * ux * uy + hyy * uy * uy
        return (-grad.real / curv, -grad.imag / curv) if curv > 0.0 else None
    ux, uy = lam.real / abs(lam), lam.imag / abs(lam)
    curv = penalty / abs(lam)
    hxx += curv * (1.0 - ux * ux)
    hyy += curv * (1.0 - uy * uy)
    hxy -= curv * ux * uy
    det = hxx * hyy - hxy * hxy
    if hxx <= 0.0 or det <= 0.0:
        return None
    gx, gy = grad.real, grad.imag
    return -(hyy * gx - hxy * gy) / det, -(hxx * gy - hxy * gx) / det


def _ellipsoid_min(
    oracle: Callable, newton: Optional[Callable], dim: int, radius_sq: float,
    tol: float, floor: float, exit_on_holds: bool,
) -> tuple[float, float, object]:
    """Certified minimum of a convex f with f(0) = 0 over the centred disc of
    squared radius ``radius_sq`` (an interval for dim = 1), as (U, L, point).

    ``oracle(x, y)`` returns f there (or less, by at most its rounding), a
    subgradient as d/dx + i d/dy, an upper bound on min f (f itself, or
    better), a function returning a lower bound on min f that the oracle
    proves by itself (-inf where it proves none), the point reported with
    the upper bound and the state that ``newton(point, subgradient, state)``
    takes to return a Newton step (dx, dy) or None. A deep-cut ellipsoid
    method keeps every minimizer in its ellipsoid E, so f(x) + min over E of
    <h, y - x> bounds min f from below at each query x with subgradient h;
    the oracle's own bound is asked for only where that one leaves the
    search unsettled, so a query that settles pays nothing for it. The query
    is the centre of E, or the Newton point of the last query where that
    lies in E and the last Newton step lowered f.
    U <= 0 is the least upper bound (point None for f(0)) and L <= U the best
    lower bound. The search stops once U - L <= tol / 4 and the bounds do not
    straddle ``floor``, or, with ``exit_on_holds``, once L >= floor, or when
    the cut budget runs out. It also stops where no cut is left to make: at a
    query whose subgradient is 0, which proves it a minimizer, so that f
    there is the lower bound, and once the ellipsoid has collapsed in
    rounding.
    """
    # E = {e + P^{1/2} z : |z| <= 1} with e = (ex, ey) and P = [[pxx, pxy], [pxy, pyy]];
    # dim = 1 keeps ey = pxy = pyy = 0
    ex = ey = pxy = 0.0
    pxx, pyy = radius_sq, radius_sq if dim == 2 else 0.0
    x = y = 0.0  # query point
    newton_from = None  # f at the point the query was a Newton step from
    best = None
    upper, lower = 0.0, -math.inf  # f(0) = 0 exactly

    def settled(lo: float) -> bool:
        closed = upper - lo <= tol / 4.0 and (lo >= floor or upper < floor)
        return closed or (exit_on_holds and lo >= floor)

    for _ in range(_MAX_CUTS):
        val, grad, bound, proven, point, state = oracle(x, y)
        if bound < upper:
            upper, best = bound, point
        hx, hy = grad.real, grad.imag
        phx, phy = pxx * hx + pxy * hy, pxy * hx + pyy * hy
        hph = hx * phx + hy * phy
        width = math.sqrt(max(hph, 0.0))
        slope = hx * (ex - x) + hy * (ey - y)  # <h, e - x>
        # a zero subgradient proves the query a minimizer, so its cut value
        # bounds min f; a collapsed ellipsoid (in rounding) proves nothing more.
        # Either way no cut is left to make.
        if hph > 0.0 or grad == 0:
            lower = max(lower, val + slope - width)
        if not settled(lower):
            lower = max(lower, proven())
        if hph <= 0.0 or settled(lower):
            break
        # deep cut <h, z - x> <= upper - f(x), which every minimizer z meets,
        # written about the centre e
        alpha = (val - upper + slope) / width
        if alpha >= 1.0:
            break
        if alpha > -1.0 / dim:
            tau = (1.0 + dim * alpha) / (dim + 1.0)
            ex, ey = ex - tau * phx / width, ey - tau * phy / width
            if dim == 1:
                pxx *= ((1.0 - alpha) / 2.0) ** 2
            else:
                scale = (4.0 / 3.0) * (1.0 - alpha**2)
                shrink = 2.0 * tau / ((1.0 + alpha) * hph)
                pxx, pxy, pyy = (
                    scale * (pxx - shrink * phx * phx),
                    scale * (pxy - shrink * phx * phy),
                    scale * (pyy - shrink * phy * phy),
                )
        step = None
        if newton is not None and (newton_from is None or bound < newton_from):
            step = newton(point, grad, state)
        del state  # frees the oracle's eigensystem before the next eigensolve
        if step is not None:
            nx, ny = x + step[0], y + step[1]
            dx, dy = nx - ex, ny - ey
            if dim == 1:
                inside = dx * dx <= pxx
            else:
                inside = pyy * dx * dx - 2.0 * pxy * dx * dy + pxx * dy * dy <= pxx * pyy - pxy * pxy
            if inside:
                x, y, newton_from = nx, ny, bound
                continue
        x, y, newton_from = ex, ey, None
    return upper, min(lower, upper), best


def op_orth_direct(
    a: PsdOperator, t: Operand, s: Operand, eps: float
) -> OrthoVerdict:
    """Decide T perp S by minimizing g(lambda) over the scalar field.

    g is convex on the whole field (the top singular value of an affine family
    plus a norm term), and outside |lambda| <= 2 (1 + eps) ||T||_A / ||S||_A
    the triangle inequality forces g >= 0 = g(0). The ellipsoid minimizer
    certifies min g on that disc (an interval for the real field). Its first
    query is lambda = 0, the kink of the |lambda| term, read from the bind of
    T with no eigensolve; where it does not settle the verdict, the search
    takes the proximal Newton step from there, which keeps |lambda| exact
    and reads the eigensystem the bind kept, and elsewhere Newton steps,
    wherever the top eigenvalue of M* M is simple and the curvature along
    the step is positive. At a "fails" minimizer g is smooth in the generic
    case, so a minimizer next to the kink is reached in a few steps and they
    converge quadratically.

    Each query has two lower bounds on min g: the cut bound over the
    ellipsoid, and the dual bound at the query's own top eigenvector
    (``_dual_bound``), which costs no eigensolve and is taken only where the
    cut bound leaves the search unsettled. The dual bound is tight at a
    smooth minimizer, so a "fails" is pinned at the query that reaches it,
    and a shallow dip next to the kink is bounded at lambda = 0 itself. The
    margin is the least g seen, at the witness lambda, and ``margin_lower``
    the best lower bound, less the rounding of g. The search stops once
    margin_lower >= -tol proves "holds", or once a margin below -tol proves
    "fails" and the bound pins it to tol / 4, or at a query whose subgradient
    is 0, which is a minimizer; if the cut budget runs out first, the verdict
    rests on the margin alone. Where ||T||_A or ||S||_A is 0 it holds with
    margin and margin_lower 0 at lambda* = 0.
    """
    eps = validate_epsilon(eps)
    op_t = bind_operator(a, t)
    op_s = bind_operator(a, s)
    tol = VERDICT_MARGIN_TOL
    if op_t.zero_norm or op_s.zero_norm:
        return _verdict(0.0, Method.DIRECT_MINIMIZATION, tol, Witness(lam=0.0), margin_lower=0.0)

    dim = 2 if _field_is_complex(op_t, op_s) else 1
    penalty = 2.0 * eps * op_t.norm * op_s.norm
    newton = partial(_newton_step, op_s, penalty)
    radius = 2.0 * (1.0 + eps) * op_t.norm / op_s.norm

    def oracle(x: float, y: float):
        lam: Scalar = complex(x, y) if dim == 2 else x
        val, grad, eig, at_v = _objective(op_t, op_s, eps, lam)
        # g(0) = 0 exactly; elsewhere the cuts take g less its rounding
        cut = val
        if lam != 0:
            cut -= _rounding(op_t.tilde.shape[0], op_t.norm, op_s.norm, abs(lam))
        dual = lambda: _dual_bound(op_t.norm, op_s.norm, penalty, radius, *at_v)
        return cut, grad, val, dual, lam, eig

    upper, lower, best_lam = _ellipsoid_min(oracle, newton, dim, radius * radius, tol, -tol, True)
    return _verdict(
        upper, Method.DIRECT_MINIMIZATION, tol,
        Witness(lam=0.0 if best_lam is None else best_lam), margin_lower=lower,
    )


def direct_objective(a: PsdOperator, t: Operand, s: Operand, eps: float, lam: Scalar) -> float:
    """Evaluate g(lambda) for the direct route; reproduces a direct-route
    margin when called at its witness lambda*."""
    eps = validate_epsilon(eps)
    op_t = bind_operator(a, t)
    op_s = bind_operator(a, s)
    if op_t.zero_norm or op_s.zero_norm:
        return 0.0
    return _objective(op_t, op_s, eps, lam)[0]


def _least_modulus(form: np.ndarray) -> tuple[float, np.ndarray]:
    """Least |c* H c| over unit c for the Hermitian part H of ``form``, with
    a unit c that attains it: 0, from a combination of the bottom and top
    eigenvectors, where the spectrum of H straddles 0, else the nearer end.
    A 1 x 1 form needs no eigensolve: |Re f| at c = 1."""
    if form.shape[0] == 1:
        return abs(float(form[0, 0].real)), np.ones(1)
    mu, vecs = np.linalg.eigh((form + form.conj().T) / 2.0)
    lo, hi = float(mu[0]), float(mu[-1])
    if not lo <= 0.0 <= hi:
        return (abs(lo), vecs[:, 0]) if abs(lo) <= abs(hi) else (abs(hi), vecs[:, -1])
    if hi == lo:
        return 0.0, vecs[:, 0]
    return 0.0, math.sqrt(hi / (hi - lo)) * vecs[:, 0] + math.sqrt(-lo / (hi - lo)) * vecs[:, -1]


def _surrounds_origin(phases: list[float]) -> bool:
    """Whether 0 lies strictly inside the convex hull of points with these
    sorted arguments: no gap between neighbouring arguments reaches pi."""
    if len(phases) < 3:
        return False
    gaps = [b - a for a, b in zip(phases, phases[1:])]
    return max(max(gaps), phases[0] + 2.0 * math.pi - phases[-1]) < math.pi


def _attainment_route(
    a: PsdOperator, t: Operand, s: Operand, eps: float, complex_field: bool
) -> OrthoVerdict:
    """The attainment route of the field that ``complex_field`` names, the
    eigenvalue interval over R and the theta sweep over C, on the form F with
    c* F c = <T v, S v>_A for v = W- C c, C the coordinates of
    M_A^T cap R(A). Input of the other field raises.

    Where ||T||_A or ||S||_A is 0 the relation holds trivially, and the
    route answers as the direct route does: margin 0 (and margin_lower 0 over
    C), with T's first lifted attainment vector as witness (theta = 0 over C;
    the zero vector where R(A) = {0})."""
    eps = validate_epsilon(eps)
    op_t = bind_operator(a, t)
    op_s = bind_operator(a, s)
    if _field_is_complex(op_t, op_s) != complex_field:
        if complex_field:
            raise RealFieldError("theta sweep is complex-field only; use the attainment criterion")
        raise ComplexFieldError("attainment criterion is real-field only; use the theta sweep")
    coords = op_t.top_coords
    form = (op_s.tilde @ coords).conj().T @ (op_t.tilde @ coords)
    band = eps * op_t.norm * op_s.norm
    tol = VERDICT_MARGIN_TOL
    if op_t.zero_norm or op_s.zero_norm:
        margin = lower = 0.0
        best = (0j, np.eye(coords.shape[1], 1)[:, 0])
    elif not complex_field:
        minval, c = _least_modulus(form)
        margin, best = band - minval, (0j, c)
    elif form.shape[0] == 1:
        f = complex(form[0, 0])
        margin = lower = band - abs(f)
        best = (f, np.ones(1))
    else:
        r = float(np.linalg.norm(form))
        phases: list[float] = []  # sorted arg z of the points z of W(F) seen

        def oracle(x: float, y: float):
            d = complex(x, y)
            w, vecs = np.linalg.eigh((d.conjugate() * form + d * form.conj().T) / 2.0)
            v = vecs[:, -1]
            z = complex(np.vdot(v, form @ v))  # h'(d) = (Re z, Im z), z in W(F)
            if z != 0:
                bisect.insort(phases, cmath.phase(z))
            # 0 inside the hull of the z seen lies in W(F), so h >= 0 = h(0)
            proven = lambda: 0.0 if _surrounds_origin(phases) else -math.inf
            val, mod = float(w[-1]), abs(d)
            bound = val / mod if mod > 0.0 else 0.0
            if mod > 1.0:
                val, z = val + r * (mod - 1.0), z + r * d / mod
            return val, z, bound, proven, (d, v), None

        upper, lower, best = _ellipsoid_min(oracle, None, 2, 1.0, tol, -tol - band, False)
        margin, lower = band + upper, band + lower
        best = (0j, _least_modulus(form)[1]) if best is None else best
    d, c = best
    x = a.from_coords(coords @ c)
    if not complex_field:
        return _verdict(margin, Method.ATTAINMENT, tol, Witness(vector=x), (FINITE_DIM_NOTE,))
    witness = Witness(vector=x, theta=math.atan2(d.imag, d.real) % math.pi)
    return _verdict(margin, Method.THETA_SWEEP, tol, witness, (FINITE_DIM_NOTE,), margin_lower=lower)


def op_orth_attainment_real(
    a: PsdOperator, t: Operand, s: Operand, eps: float
) -> OrthoVerdict:
    """Real-field single-vector criterion on the attainment subspace.

    The range of <Tx, Sx>_A over the attainment sphere is the eigenvalue
    interval of the symmetrized form, so the minimum modulus is zero when the
    interval straddles zero and the nearer endpoint otherwise. Where ||T||_A
    or ||S||_A is 0 it holds with margin 0. Complex input raises
    :class:`ComplexFieldError`.
    """
    return _attainment_route(a, t, s, eps, complex_field=False)


def op_orth_theta_sweep_complex(
    a: PsdOperator, t: Operand, s: Operand, eps: float
) -> OrthoVerdict:
    """Complex-field attainment criterion: T perp S iff the numerical range
    W(F) of the attainment form F comes within E = eps ||T||_A ||S||_A of 0.

    The margin is E - dist(0, W(F)). For a one-dimensional attainment
    subspace F is a scalar f and the margin is E - |f|. Otherwise the
    ellipsoid minimizer certifies the least value over the unit disc of the
    support function h(d) = lambda_max((conj(d) F + d F*) / 2), which is
    -dist(0, W(F)); the penalty ||F||_F max(0, |d| - 1) keeps queries outside
    the disc from going below it, and as h is positively homogeneous each
    query d also proves min h <= h(d) / |d|. The bounds close to tol / 4, or
    the search stops at once when 0 lies strictly inside the convex hull of
    the points v* F v of W(F) that the queries meet: that proves
    dist(0, W(F)) = 0, and margin = margin_lower = E.
    The witness is a phase theta and a lifted attaining vector x with
    E - |Re(e^{-i theta} <T x, S x>_A)| equal to the margin (theta = 0
    and Re <T x, S x>_A = 0 where 0 lies in W(F)). Where ||T||_A or ||S||_A
    is 0 it holds with margin and margin_lower 0 and theta = 0. Real input
    raises :class:`RealFieldError`.
    """
    return _attainment_route(a, t, s, eps, complex_field=True)


# Largest principal-angle sine between attainment spans that still counts as
# containment. The spans are top eigenvectors of Gram matrices, whose rounding
# turns them by about u / gap (Davis and Kahan, SIAM J. Numer. Anal. 7, 1970;
# u the unit roundoff, gap the relative distance from the cluster to the next
# singular value). A cluster set off by at least its width CLUSTER_TOL is
# then resolved to u / CLUSTER_TOL = 1.1e-8, so 1e-8, near sqrt(u) as
# CLUSTER_TOL is, separates rounding from a real angle at that balance point.
# The sine is dimensionless. On the 104 shared pairs of the seed-41/42 op-real
# mixes the computed sine was at most 6.5e-15.
_SUBSET_SINE_TOL = 1e-8


def attainment_subset(a: PsdOperator, t: Operand, s: Operand) -> bool:
    """Whether M_A^T is contained in M_A^S.

    Both attainment sets are A-unit spheres of subspaces (plus a shared N(A)
    component), the spans of the bound operators' attainment clusters, so
    containment of the coordinate spans, measured by the largest principal
    angle against ``_SUBSET_SINE_TOL``, is the criterion.
    """
    coords_t = bind_operator(a, t).top_coords
    coords_s = bind_operator(a, s).top_coords
    residual = coords_t - coords_s @ (coords_s.conj().T @ coords_t)
    if not residual.size:
        return True
    # the sine is the largest singular value of the r x m residual: the root
    # of the top eigenvalue of its m x m Gram matrix, a scalar when m = 1
    gram = residual.conj().T @ residual
    top = float(gram[0, 0].real) if gram.shape[0] == 1 else float(np.linalg.eigvalsh(gram)[-1])
    return math.sqrt(max(top, 0.0)) <= _SUBSET_SINE_TOL


def op_orth_pointwise(
    a: PsdOperator, t: Operand, s: Operand, eps: float
) -> OrthoVerdict:
    """Vector-level criterion Tx perp Sx minimized over M_A^T, valid when
    M_A^T is a subset of M_A^S: there ||Tx||_A ||Sx||_A = ||T||_A ||S||_A, so
    the least |<Tx, Sx>_A| is dist(0, W(F)), which the field's attainment
    route decides (eigenvalue interval over R, theta sweep over C), zero
    norms included. Where the subset fails it raises
    :class:`AttainmentSubsetError`."""
    eps = validate_epsilon(eps)
    op_t = bind_operator(a, t)
    op_s = bind_operator(a, s)
    if not attainment_subset(a, op_t, op_s):
        raise AttainmentSubsetError("M_A^T is not contained in M_A^S")
    route = op_orth_theta_sweep_complex if _field_is_complex(op_t, op_s) else op_orth_attainment_real
    return replace(route(a, op_t, op_s, eps), method=Method.POINTWISE)
