"""Deciders for approximate orthogonality of A-bounded operators.

Three routes decide T perp S in the Chmielinski sense, and they must agree:

* direct minimization of g(lambda) = ||T + lambda S||_A^2 - ||T||_A^2
  + 2 eps ||T||_A ||S||_A |lambda| over the scalar field (the definition);
* the real single-vector criterion: some norm-attaining x has
  |<Tx, Sx>_A| <= eps ||T||_A ||S||_A, reduced to an eigenvalue condition on
  the attainment subspace;
* the complex theta sweep: for every phase theta the Hermitian part of the
  rotated attainment form must straddle the band [-E, E].

In finite dimensions every norm supremum is attained and the unit ball of the
range geometry is compact, so sequence-based forms of these criteria collapse
to the attained forms implemented here; the verdicts record that standing
assumption. Disagreement between routes is a defect, not an input property.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .core import PsdOperator
from .errors import AttainmentSubsetError, ComplexFieldError, RealFieldError
from .numerics import golden_min
from .operators import (
    ABoundedOperator,
    Operand,
    attainment_coords,
    bind_operator,
    norm_is_zero,
    require_positive_norm,
)
from .vectors import Method, Scalar, validate_epsilon

FINITE_DIM_NOTE = "finite-dimensional attainment; B_H(A) cap R(A) bounded holds automatically"


@dataclass(frozen=True)
class OperatorWitness:
    """Whichever object certifies the margin: a scalar, a vector, or a
    worst-phase triple."""

    lam: Optional[Scalar] = None
    vector: Optional[np.ndarray] = None
    theta: Optional[float] = None
    x_theta: Optional[np.ndarray] = None
    y_theta: Optional[np.ndarray] = None


@dataclass(frozen=True)
class OperatorOrthoVerdict:
    """Verdict of one route. ``margin_lower`` is a certified lower bound on
    the margin where the route proves one (the direct route), else None."""

    holds: bool
    margin: float
    method: Method
    witness: Optional[OperatorWitness] = None
    boundary: bool = False
    assumptions: tuple[str, ...] = ()
    margin_lower: Optional[float] = None


def _finish(
    margin: float,
    method: Method,
    tol: float,
    witness: Optional[OperatorWitness],
    assumptions: tuple[str, ...] = (),
    margin_lower: Optional[float] = None,
) -> OperatorOrthoVerdict:
    margin = float(margin)
    return OperatorOrthoVerdict(
        holds=margin >= -tol,
        margin=margin,
        method=method,
        witness=witness,
        boundary=abs(margin) <= tol,
        assumptions=assumptions,
        margin_lower=None if margin_lower is None else float(margin_lower),
    )


def _field_is_complex(*objs: ABoundedOperator) -> bool:
    return any(o.is_complex for o in objs)


# Cut budget of the direct route, which makes one eigensolve per cut plus two
# to bind T and S. On 400 2x2 to 5x5 stress pairs (repeated top singular
# values, A-isometries, S = T, shared attainment), complex decisions certified
# within 101 cuts (mean 18) and real ones within 16 (mean 4); the rest is
# slack, and a call stays under 200 eigensolves.
_DIRECT_MAX_CUTS = 150
# Relative gap below which the top eigenvalue of M* M counts as multiple: g is
# not smooth there, so the route takes no Newton step.
_SIMPLE_GAP = 1e-12


def _objective(
    op_t: ABoundedOperator, op_s: ABoundedOperator, eps: float, lam: Scalar
) -> tuple[float, complex, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """g(lambda), a subgradient of g written d/dRe + i d/dIm, and the
    eigensystem (M, w, V) of M* M that a Newton step needs.

    With v the top eigenvector of M* M, M = T~ + lambda S~, the smooth part
    sigma_max(M)^2 >= ||M v||^2 has subgradient 2 <M v, S~ v> (Lewis & Overton,
    Acta Numerica 1996). Of the disc that is the subdifferential of
    2 eps ||T|| ||S|| |lambda| at 0, the element that shortens the subgradient
    most is taken, so a zero subgradient proves lambda = 0 optimal.
    """
    penalty = 2.0 * eps * op_t.norm * op_s.norm
    m = op_t.tilde + lam * op_s.tilde
    w, vecs = np.linalg.eigh(m.conj().T @ m)
    v = vecs[:, -1]
    grad = 2.0 * complex(np.vdot(op_s.tilde @ v, m @ v))
    if lam != 0:
        grad += penalty * lam / abs(lam)
    elif grad != 0:
        grad *= max(0.0, 1.0 - penalty / abs(grad))
    return float(w[-1]) - op_t.norm**2 + penalty * abs(lam), grad, (m, w, vecs)


def _newton_step(
    op_s: ABoundedOperator,
    penalty: float,
    lam: Scalar,
    grad: complex,
    eig: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> Optional[tuple[float, float]]:
    """Newton step -Hess^{-1} h of g at lambda as (dRe, dIm), or None where g
    is not smooth (lambda = 0, a multiple top eigenvalue of M* M) or the
    Hessian is not positive definite.

    The Hessian is the second-order perturbation of a simple eigenvalue
    (Overton, SIAM J. Matrix Anal. Appl. 9, 1988): with D_k the derivative of
    M* M along Re lambda, Im lambda and b_k = D_k v,
    Hess_kl = 2 ||S~ v||^2 delta_kl + 2 Re sum_j conj(V_j* b_k) (V_j* b_l) / (w_1 - w_j),
    plus (penalty / |lambda|) (I - u u^T), u = lambda / |lambda|, the
    curvature of the |lambda| term, which vanishes on the real line.
    """
    m, w, vecs = eig
    if lam == 0 or (w.size > 1 and w[-1] - w[-2] <= _SIMPLE_GAP * w[-1]):
        return None
    v = vecs[:, -1]
    sv = op_s.tilde @ v
    p = op_s.tilde.conj().T @ (m @ v)
    q = m.conj().T @ sv
    rest = vecs[:, :-1]  # the other eigenvectors V_j
    gaps = w[-1] - w[:-1]
    # V_j* b_k taken as conj(b_k* V_j), which does not copy V
    c1 = ((p + q).conj() @ rest).conj()
    base = 2.0 * float(np.vdot(sv, sv).real)
    hxx = base + 2.0 * float(np.sum(np.abs(c1) ** 2 / gaps))
    if not isinstance(lam, complex):
        return (-grad.real / hxx, 0.0) if hxx > 0.0 else None
    c2 = ((1j * (q - p)).conj() @ rest).conj()
    hyy = base + 2.0 * float(np.sum(np.abs(c2) ** 2 / gaps))
    hxy = 2.0 * float(np.sum(c1.conj() * c2 / gaps).real)
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


def op_orth_direct(
    a: PsdOperator, t: Operand, s: Operand, eps: float
) -> OperatorOrthoVerdict:
    """Decide T perp S by minimizing g(lambda) over the scalar field.

    g is convex on the whole field (the top singular value of an affine family
    plus a norm term), and outside |lambda| <= 2 (1 + eps) ||T||_A / ||S||_A
    the triangle inequality forces g >= 0 = g(0). A deep-cut ellipsoid method
    on that disc (an interval for the real field) keeps every minimizer inside
    its current ellipsoid E, so g(x) + min over E of <h, y - x> bounds min g
    from below at each query point x with subgradient h. The query point is
    the centre of E, or the Newton point of the last query where g is smooth
    there (lambda != 0, a simple top eigenvalue of M* M), the Hessian is
    positive definite, the point lies in E and the last Newton step lowered g;
    at a "fails" minimizer g is smooth in the generic case, and Newton steps
    converge there quadratically where the ellipsoid alone converges linearly.
    The margin is the least g seen, attained at the witness lambda;
    ``margin_lower`` is the best lower bound. The search stops once the bound
    proves "holds" (margin_lower >= -tol), or once a margin below -tol proves
    "fails" and the bound pins it to tol / 4; if the cut budget runs out
    first, the verdict rests on the margin alone.
    """
    eps = validate_epsilon(eps)
    op_t = bind_operator(a, t)
    op_s = bind_operator(a, s)
    tol = a.tol.verdict_margin_tol
    if norm_is_zero(op_t) or norm_is_zero(op_s):
        return _finish(
            0.0, Method.DIRECT_MINIMIZATION, tol, OperatorWitness(lam=0.0), margin_lower=0.0
        )

    dim = 2 if _field_is_complex(op_t, op_s) else 1
    penalty = 2.0 * eps * op_t.norm * op_s.norm
    # E = {e + P^{1/2} z : |z| <= 1} with e = (ex, ey) and P = [[pxx, pxy], [pxy, pyy]];
    # the real field keeps ey = pxy = pyy = 0
    radius_sq = (2.0 * (1.0 + eps) * op_t.norm / op_s.norm) ** 2
    ex = ey = pxy = 0.0
    pxx, pyy = radius_sq, radius_sq if dim == 2 else 0.0
    x = y = 0.0  # query point
    newton_from = None  # g at the point the query was a Newton step from
    best_lam: Scalar = 0.0
    upper, lower = 0.0, -math.inf  # g(0) = 0 exactly
    for _ in range(_DIRECT_MAX_CUTS):
        lam: Scalar = complex(x, y) if dim == 2 else x
        val, grad, eig = _objective(op_t, op_s, eps, lam)
        if val < upper:
            upper, best_lam = val, lam
        hx, hy = grad.real, grad.imag
        phx, phy = pxx * hx + pxy * hy, pxy * hx + pyy * hy
        hph = hx * phx + hy * phy
        if hph <= 0.0 and (hx or hy):
            break  # the ellipsoid has collapsed in rounding; it proves nothing more
        width = math.sqrt(max(hph, 0.0))
        slope = hx * (ex - x) + hy * (ey - y)  # <h, e - x>
        lower = max(lower, val + slope - width)
        if lower >= -tol or (upper < -tol and upper - lower <= tol / 4.0):
            break
        # deep cut <h, z - x> <= upper - g(x), which every minimizer z meets,
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
        if newton_from is None or val < newton_from:
            step = _newton_step(op_s, penalty, lam, grad, eig)
        del eig  # frees M and the eigenvectors before the next eigensolve
        if step is not None:
            nx, ny = x + step[0], y + step[1]
            dx, dy = nx - ex, ny - ey
            if dim == 1:
                inside = dx * dx <= pxx
            else:
                inside = pyy * dx * dx - 2.0 * pxy * dx * dy + pxx * dy * dy <= pxx * pyy - pxy * pxy
            if inside:
                x, y, newton_from = nx, ny, val
                continue
        x, y, newton_from = ex, ey, None

    return _finish(
        upper, Method.DIRECT_MINIMIZATION, tol, OperatorWitness(lam=best_lam),
        margin_lower=min(lower, upper),
    )


def direct_objective(a: PsdOperator, t: Operand, s: Operand, eps: float, lam: Scalar) -> float:
    """Evaluate g(lambda) for the direct route; reproduces a direct-route
    margin when called at its witness lambda*."""
    eps = validate_epsilon(eps)
    op_t = bind_operator(a, t)
    op_s = bind_operator(a, s)
    if norm_is_zero(op_t) or norm_is_zero(op_s):
        return 0.0
    return _objective(op_t, op_s, eps, lam)[0]


def _attainment_form(op_t: ABoundedOperator, op_s: ABoundedOperator) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates C of M_A^T cap R(A) and the m x m form M with
    c* M c = <T v, S v>_A for v = W- C c."""
    _, coords = attainment_coords(op_t)
    form = coords.conj().T @ (op_s.tilde.conj().T @ op_t.tilde) @ coords
    return coords, form


def op_orth_attainment_real(
    a: PsdOperator, t: Operand, s: Operand, eps: float
) -> OperatorOrthoVerdict:
    """Real-field single-vector criterion on the attainment subspace.

    The range of <Tx, Sx>_A over the attainment sphere is the eigenvalue
    interval of the symmetrized form, so the minimum modulus is zero when the
    interval straddles zero and the nearer endpoint otherwise.
    """
    eps = validate_epsilon(eps)
    op_t = bind_operator(a, t)
    op_s = bind_operator(a, s)
    if _field_is_complex(op_t, op_s):
        raise ComplexFieldError("attainment criterion is real-field only; use the theta sweep")
    require_positive_norm(op_t)
    coords, form = _attainment_form(op_t, op_s)
    form_sym = (form + form.T) / 2.0
    mu, vecs = np.linalg.eigh(form_sym)
    mu_min, mu_max = float(mu[0]), float(mu[-1])
    if mu_min <= 0.0 <= mu_max:
        minval = 0.0
        spread = mu_max - mu_min
        if spread == 0.0:
            c_star = vecs[:, 0]
        else:
            c_star = (
                math.sqrt(mu_max / spread) * vecs[:, 0]
                + math.sqrt(-mu_min / spread) * vecs[:, -1]
            )
    elif abs(mu_min) <= abs(mu_max):
        minval, c_star = abs(mu_min), vecs[:, 0]
    else:
        minval, c_star = abs(mu_max), vecs[:, -1]
    margin = eps * op_t.norm * op_s.norm - minval
    witness = OperatorWitness(vector=a.w_inv_map @ (coords @ c_star))
    return _finish(
        margin, Method.ATTAINMENT, a.tol.verdict_margin_tol, witness, (FINITE_DIM_NOTE,)
    )


def op_orth_theta_sweep_complex(
    a: PsdOperator, t: Operand, s: Operand, eps: float, grid: int = 128
) -> OperatorOrthoVerdict:
    """Complex-field criterion: for every theta in [0, pi) the Hermitian part
    of e^{-i theta} times the attainment form must meet the band [-E, E] from
    both sides (lambda_max >= -E and lambda_min <= E)."""
    eps = validate_epsilon(eps)
    op_t = bind_operator(a, t)
    op_s = bind_operator(a, s)
    if not _field_is_complex(op_t, op_s):
        raise RealFieldError("theta sweep is complex-field only; use the attainment criterion")
    require_positive_norm(op_t)
    coords, form = _attainment_form(op_t, op_s)
    form = form.astype(np.complex128)
    band = eps * op_t.norm * op_s.norm
    tol = a.tol.verdict_margin_tol

    def hermitian_part(theta: np.ndarray) -> np.ndarray:
        ph = np.exp(-1j * np.asarray(theta))[:, None, None]
        return (ph * form[None] + ph.conj() * form.conj().T[None]) / 2.0

    thetas = np.linspace(0.0, math.pi, grid, endpoint=False)
    eigs = np.linalg.eigvalsh(hermitian_part(thetas))
    slack = np.minimum(eigs[:, -1] + band, band - eigs[:, 0])
    worst = int(np.argmin(slack))

    def slack_at(theta: float) -> float:
        w = np.linalg.eigvalsh(hermitian_part(np.array([theta])))[0]
        return float(min(w[-1] + band, band - w[0]))

    step = math.pi / grid
    theta_ref, slack_ref = golden_min(
        slack_at, thetas[worst] - step, thetas[worst] + step
    )
    if slack[worst] <= slack_ref:
        theta_ref, slack_ref = float(thetas[worst]), float(slack[worst])

    h = hermitian_part(np.array([theta_ref]))[0]
    _, vecs = np.linalg.eigh(h)
    witness = OperatorWitness(
        theta=theta_ref,
        x_theta=a.w_inv_map @ (coords @ vecs[:, -1]),
        y_theta=a.w_inv_map @ (coords @ vecs[:, 0]),
    )
    return _finish(slack_ref, Method.THETA_SWEEP, tol, witness, (FINITE_DIM_NOTE,))


def attainment_subset(
    a: PsdOperator, t: Operand, s: Operand, tol: float = 1e-8
) -> bool:
    """Whether M_A^T is contained in M_A^S.

    Both attainment sets are A-unit spheres of subspaces (plus a shared N(A)
    component), so containment of the coordinate spans, measured by the
    largest principal angle, is the criterion.
    """
    op_t = bind_operator(a, t)
    op_s = bind_operator(a, s)
    _, coords_t = attainment_coords(op_t)
    _, coords_s = attainment_coords(op_s)
    residual = coords_t - coords_s @ (coords_s.conj().T @ coords_t)
    sine = float(np.linalg.norm(residual, 2)) if residual.size else 0.0
    return sine <= tol


def op_orth_pointwise(
    a: PsdOperator, t: Operand, s: Operand, eps: float
) -> OperatorOrthoVerdict:
    """Vector-level criterion Tx perp Sx minimized over M_A^T, valid when
    M_A^T is a subset of M_A^S (there ||Tx||_A ||Sx||_A = ||T||_A ||S||_A, so
    the spectral closed form of the attainment route applies verbatim)."""
    eps = validate_epsilon(eps)
    op_t = bind_operator(a, t)
    op_s = bind_operator(a, s)
    if _field_is_complex(op_t, op_s):
        raise ComplexFieldError("pointwise criterion is real-field only")
    require_positive_norm(op_t)
    if not attainment_subset(a, op_t, op_s):
        raise AttainmentSubsetError("M_A^T is not contained in M_A^S")
    return replace(op_orth_attainment_real(a, op_t, op_s, eps), method=Method.POINTWISE)
