"""Vector-level geometry of the seminorm induced by a positive operator A.

The semi-inner product is <x, y>_A = <Ax, y>, conjugate-linear in the second
argument, and ||x||_A = sqrt(<Ax, x>). Exact and approximate orthogonality
predicates return an :class:`OrthoVerdict` carrying a signed margin, so
near-boundary decisions stay visible to callers. The operator deciders in
:mod:`semiortho.orthogonality` return the same type, built by the same rule,
since they reduce operator orthogonality to vector orthogonality on the
attainment set.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .core import PsdOperator
from .errors import EpsilonRangeError, NotAUnitError

Scalar = Union[float, complex]


class Method(str, enum.Enum):
    """Which decision route produced a verdict."""

    DEFINITION = "definition"
    DIRECT_MINIMIZATION = "direct_minimization"
    ATTAINMENT = "attainment"
    THETA_SWEEP = "theta_sweep"
    POINTWISE = "pointwise"


@dataclass(frozen=True)
class Witness:
    """What reproduces a verdict's margin: the minimizing scalar ``lam`` of a
    direct route, or the lifted attaining ``vector`` of an attainment route,
    with the worst phase ``theta`` on the complex one."""

    lam: Optional[Scalar] = None
    vector: Optional[np.ndarray] = None
    theta: Optional[float] = None


@dataclass(frozen=True)
class OrthoVerdict:
    """Boolean verdict of one route with its numeric slack.

    ``holds`` is True exactly when ``margin >= -verdict_margin_tol``, except
    on the vector direct route, which decides on its linear-unit violation;
    ``boundary`` flags verdicts within the tolerance band of the boundary.
    ``assumptions`` names the standing assumptions a route relies on, and
    ``margin_lower`` is a certified lower bound on the margin where the route
    proves one (the operator direct and complex attainment routes), else None.
    """

    holds: bool
    margin: float
    method: Method
    witness: Optional[Witness] = None
    boundary: bool = False
    assumptions: tuple[str, ...] = ()
    margin_lower: Optional[float] = None


def validate_epsilon(eps: float) -> float:
    """Check eps in [0, 1) and return it as a float."""
    eps = float(eps)
    if not 0.0 <= eps < 1.0:
        raise EpsilonRangeError(f"epsilon must lie in [0, 1), got {eps}")
    return eps


def inner_a(a: PsdOperator, x: np.ndarray, y: np.ndarray) -> Scalar:
    """Semi-inner product <x, y>_A = <Ax, y>, conjugate-linear in y."""
    x = a.check_vector(x)
    y = a.check_vector(y)
    value = np.vdot(y, a.matrix @ x)
    if a.is_complex or np.iscomplexobj(x) or np.iscomplexobj(y):
        return complex(value)
    return float(value.real)


def norm_a(a: PsdOperator, x: np.ndarray) -> float:
    """Seminorm ||x||_A; zero exactly on N(A)."""
    x = a.check_vector(x)
    return math.sqrt(max(float(np.real(np.vdot(x, a.matrix @ x))), 0.0))


def is_a_null(a: PsdOperator, x: np.ndarray) -> bool:
    """Whether x lies in N(A) up to the rank tolerance."""
    x = a.check_vector(x)
    euclid_sq = float(np.real(np.vdot(x, x)))
    return norm_a(a, x) ** 2 <= a.tol.rank_tol * a.lam_max * euclid_sq


def _verdict(
    margin: float,
    method: Method,
    tol: float,
    witness: Optional[Witness] = None,
    assumptions: tuple[str, ...] = (),
    margin_lower: Optional[float] = None,
    decided_on: Optional[float] = None,
) -> OrthoVerdict:
    """The verdict that ``decided_on`` (the margin unless given) >= -tol."""
    margin = float(margin)
    return OrthoVerdict(
        holds=(margin if decided_on is None else decided_on) >= -tol,
        margin=margin,
        method=method,
        witness=witness,
        boundary=abs(margin) <= tol,
        assumptions=assumptions,
        margin_lower=None if margin_lower is None else float(margin_lower),
    )


def is_a_orthogonal(a: PsdOperator, x: np.ndarray, y: np.ndarray) -> OrthoVerdict:
    """Exact A-orthogonality <x, y>_A = 0, up to orth_tol scaling."""
    bound = a.tol.orth_tol * (1.0 + norm_a(a, x) * norm_a(a, y))
    margin = bound - abs(inner_a(a, x, y))
    return _verdict(margin, Method.DEFINITION, a.tol.verdict_margin_tol)


def is_eps_orthogonal(a: PsdOperator, x: np.ndarray, y: np.ndarray, eps: float) -> OrthoVerdict:
    """Approximate orthogonality by the inner-product route.

    Holds iff |<x, y>_A| <= eps ||x||_A ||y||_A (up to the verdict margin
    tolerance); symmetric in x and y.
    """
    eps = validate_epsilon(eps)
    margin = eps * norm_a(a, x) * norm_a(a, y) - abs(inner_a(a, x, y))
    return _verdict(margin, Method.DEFINITION, a.tol.verdict_margin_tol)


def is_chmielinski_orthogonal_vec(
    a: PsdOperator, x: np.ndarray, y: np.ndarray, eps: float
) -> OrthoVerdict:
    """Approximate orthogonality by direct minimization over lambda.

    Decides inf_lambda f(lambda) >= 0 for
    f(lambda) = ||x + lambda y||_A^2 - ||x||_A^2 + 2 eps ||x||_A ||lambda y||_A.
    On the ray lambda = t d, t >= 0, |d| = 1, f is the quadratic
    t^2 ||y||_A^2 + 2 t (Re(d <y, x>_A) + eps ||x||_A ||y||_A), steepest along
    d = -conj(<y, x>_A) / |<y, x>_A| in either field. There its linear
    coefficient is -c for the violation c = |<y, x>_A| - eps ||x||_A ||y||_A,
    so the dip is -max(0, c)^2 / ||y||_A^2, at lambda = max(0, c) / ||y||_A^2 d.
    Must agree with :func:`is_eps_orthogonal` on every input.
    """
    eps = validate_epsilon(eps)
    tol = a.tol.verdict_margin_tol
    if is_a_null(a, x) or is_a_null(a, y):
        return _verdict(0.0, Method.DIRECT_MINIMIZATION, tol, Witness(lam=0.0))

    nx = norm_a(a, x)
    ny = norm_a(a, y)
    ip_yx = inner_a(a, y, x)
    violation = abs(ip_yx) - eps * nx * ny
    margin, lam = 0.0, 0.0
    if violation > 0.0:
        margin = -(violation**2) / ny**2
        lam = violation / ny**2 * (-ip_yx.conjugate() / abs(ip_yx))
    # Deciding the verdict by c keeps this route's decision boundary identical
    # to the inner-product route's instead of squaring the tolerance band.
    return _verdict(
        margin, Method.DIRECT_MINIMIZATION, tol, Witness(lam=lam), decided_on=-violation
    )


def orthogonal_decomposition(a: PsdOperator, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The explicit z with x perp_A z that tracks y within eps ||y||_A.

    Returns z = -conj(<x, y>_A)/||x||_A^2 * x + y (z = y when ||x||_A = 0).
    Whenever x is eps-approximately orthogonal to y, this z also satisfies
    ||z - y||_A <= eps ||y||_A.
    """
    x = a.check_vector(x)
    y = a.check_vector(y)
    if is_a_null(a, x):
        return y.copy()
    coeff = -np.conj(inner_a(a, x, y)) / norm_a(a, x) ** 2
    return coeff * x + y


class ConeTag(str, enum.Enum):
    """Position of y relative to the norm-increasing cones of x along alpha."""

    PLUS_ONLY = "plus_only"
    MINUS_ONLY = "minus_only"
    BOTH = "both"


def cone_membership(
    a: PsdOperator, x: np.ndarray, y: np.ndarray, alpha: Scalar = 1.0
) -> ConeTag:
    """Classify y against the cones {y : ||x + t alpha y||_A >= ||x||_A}.

    ``alpha`` must be unimodular with argument in [0, pi); alpha = 1 gives the
    real-field statement. The sign of s = Re(alpha <y, x>_A) decides: the
    norm never dips for t >= 0 iff s >= 0, and never dips for t <= 0 iff
    s <= 0, so one of the two always holds and both hold exactly on
    A-orthogonality along alpha.
    """
    alpha = complex(alpha)
    if abs(abs(alpha) - 1.0) > 1e-12:
        raise ValueError(f"alpha must be unimodular, got |alpha| = {abs(alpha)}")
    arg = float(np.angle(alpha))
    if not 0.0 <= arg < math.pi:
        raise ValueError(f"arg(alpha) must lie in [0, pi), got {arg}")
    s = float(np.real(alpha * inner_a(a, y, x)))
    scale = a.tol.orth_tol * (1.0 + norm_a(a, x) * norm_a(a, y))
    if abs(s) <= scale:
        return ConeTag.BOTH
    return ConeTag.PLUS_ONLY if s > 0.0 else ConeTag.MINUS_ONLY


def directional_derivative(a: PsdOperator, x: np.ndarray, y: np.ndarray) -> float:
    """One-sided derivative of lambda -> ||x + lambda y||_A at 0 for A-unit x.

    Equals Re <x, y>_A; x must satisfy ||x||_A = 1 within 1e-8.
    """
    nx = norm_a(a, x)
    if abs(nx - 1.0) > 1e-8:
        raise NotAUnitError(f"x must be A-unit, got ||x||_A = {nx}")
    return float(np.real(inner_a(a, x, y)))
