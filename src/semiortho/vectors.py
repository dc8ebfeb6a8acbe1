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

from .core import VERDICT_MARGIN_TOL, PsdOperator
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

    ``holds`` is True exactly when the quantity decided on is >= -band, and
    ``boundary`` flags it within the band. On the operator routes that
    quantity is the margin and the band is the absolute
    ``VERDICT_MARGIN_TOL``. On the vector predicates it is the linear slack
    eps ||x||_A ||y||_A - |<x, y>_A| (the margin of the inner-product route,
    not the direct route's squared one), and the band is
    VERDICT_MARGIN_TOL ||x||_A ||y||_A, 0 where x or y is A-null.
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
    """Semi-inner product <x, y>_A = <Ax, y>, conjugate-linear in y; complex
    where A, x or y is."""
    x = a.check_vector(x)
    return np.vdot(a.check_vector(y), a.matrix @ x).item()


def norm_a(a: PsdOperator, x: np.ndarray) -> float:
    """Seminorm ||x||_A; zero exactly on N(A)."""
    x = a.check_vector(x)
    return math.sqrt(max(float(np.real(np.vdot(x, a.matrix @ x))), 0.0))


def _image(a: PsdOperator, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """(x, Ax, ||x||_A^2) from one check of x and one product with A, with
    ||x||_A^2 set to 0 where x is A-null: ||x||_A^2 <= rank_tol lam_max ||x||^2,
    a test unchanged when x or A is rescaled."""
    x = a.check_vector(x)
    ax = a.matrix @ x
    sq = max(float(np.real(np.vdot(x, ax))), 0.0)
    return x, ax, sq if sq > a.tol.rank_tol * a.lam_max * float(np.real(np.vdot(x, x))) else 0.0


def is_a_null(a: PsdOperator, x: np.ndarray) -> bool:
    """Whether x lies in N(A) up to the rank tolerance."""
    return _image(a, x)[2] == 0.0


def _slack(
    a: PsdOperator, x: np.ndarray, y: np.ndarray, eps: float
) -> tuple[float, float, Scalar, float]:
    """The one rule of every vector predicate, from one ``_image`` of x and y:
    (eps ||x||_A ||y||_A - |<x, y>_A|, VERDICT_MARGIN_TOL ||x||_A ||y||_A,
    <x, y>_A, ||y||_A). The predicate holds iff the slack is >= -band. Both
    scale alike with x, y and A, so no verdict changes when they are
    rescaled. An A-null argument has norm and inner product exactly 0 (as
    they are up to rounding), so its slack and band are 0 and it holds."""
    x, ax, sq_x = _image(a, x)
    y, _, sq_y = _image(a, y)
    ip = np.vdot(y, ax).item() if sq_x and sq_y else 0.0
    nx, ny = math.sqrt(sq_x), math.sqrt(sq_y)
    return eps * nx * ny - abs(ip), VERDICT_MARGIN_TOL * nx * ny, ip, ny


def _verdict(
    margin: float,
    method: Method,
    tol: float,
    witness: Optional[Witness] = None,
    assumptions: tuple[str, ...] = (),
    margin_lower: Optional[float] = None,
    decided_on: Optional[float] = None,
) -> OrthoVerdict:
    """The verdict that ``decided_on`` (the margin unless given) >= -tol, on
    the boundary where |decided_on| <= tol."""
    margin = float(margin)
    decided = margin if decided_on is None else float(decided_on)
    return OrthoVerdict(
        holds=decided >= -tol,
        margin=margin,
        method=method,
        witness=witness,
        boundary=abs(decided) <= tol,
        assumptions=assumptions,
        margin_lower=None if margin_lower is None else float(margin_lower),
    )


def is_a_orthogonal(a: PsdOperator, x: np.ndarray, y: np.ndarray) -> OrthoVerdict:
    """Exact A-orthogonality <x, y>_A = 0: :func:`is_eps_orthogonal` at eps = 0,
    with margin -|<x, y>_A|."""
    return is_eps_orthogonal(a, x, y, 0.0)


def is_eps_orthogonal(a: PsdOperator, x: np.ndarray, y: np.ndarray, eps: float) -> OrthoVerdict:
    """Approximate orthogonality by the inner-product route.

    Holds iff |<x, y>_A| <= eps ||x||_A ||y||_A, up to the band
    VERDICT_MARGIN_TOL ||x||_A ||y||_A, or where x or y is A-null; the margin
    is the slack of ``_slack``. Symmetric in x and y.
    """
    slack, band, _, _ = _slack(a, x, y, validate_epsilon(eps))
    return _verdict(slack, Method.DEFINITION, band)


def is_chmielinski_orthogonal_vec(
    a: PsdOperator, x: np.ndarray, y: np.ndarray, eps: float
) -> OrthoVerdict:
    """Approximate orthogonality by direct minimization over lambda.

    Decides inf_lambda f(lambda) >= 0 for
    f(lambda) = ||x + lambda y||_A^2 - ||x||_A^2 + 2 eps ||x||_A ||lambda y||_A.
    On the ray lambda = t d, t >= 0, |d| = 1, f is the quadratic
    t^2 ||y||_A^2 + 2 t (Re(d <y, x>_A) + eps ||x||_A ||y||_A), steepest along
    d = -<x, y>_A / |<x, y>_A| in either field. There its linear coefficient
    is -c for the violation c = |<x, y>_A| - eps ||x||_A ||y||_A, so the dip
    is -max(0, c)^2 / ||y||_A^2, at lambda = max(0, c) / ||y||_A^2 d.
    The verdict is decided on c, the negated slack of ``_slack``, with its
    band, so this route's decision boundary is the inner-product route's
    rather than a squared band. Must agree with :func:`is_eps_orthogonal` on
    every input.
    """
    slack, band, ip, ny = _slack(a, x, y, validate_epsilon(eps))
    margin, lam = 0.0, 0.0
    if slack < 0.0:
        margin = -(slack**2) / ny**2
        lam = slack / ny**2 * (ip / abs(ip))
    return _verdict(margin, Method.DIRECT_MINIMIZATION, band, Witness(lam=lam), decided_on=slack)


def orthogonal_decomposition(a: PsdOperator, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The explicit z with x perp_A z that tracks y within eps ||y||_A.

    Returns z = -conj(<x, y>_A)/||x||_A^2 * x + y (z = y when ||x||_A = 0).
    Whenever x is eps-approximately orthogonal to y, this z also satisfies
    ||z - y||_A <= eps ||y||_A.
    """
    x, ax, sq_x = _image(a, x)
    y = a.check_vector(y)
    if not sq_x:
        return y.copy()
    return -np.conj(np.vdot(y, ax)) / sq_x * x + y


# Largest | |alpha| - 1 | that ``cone_membership`` accepts as unimodular. A
# unit scalar computed in double, as exp(i theta) or z / |z|, is within a few
# u of the unit circle (at most 2.2e-16 on 1e5 draws of each). The tag
# compares s = Re(alpha <y, x>_A) with its band, and a factor within 1e-12 of
# 1 on alpha changes that only where |s| lies within a relative 1e-12 of the
# band. So the test keeps the documented contract: it refuses a scalar that
# is not unit, and admits every rounding of one that is.
_UNIMODULAR_TOL = 1e-12

# Largest | ||x||_A - 1 | that ``directional_derivative`` accepts as A-unit.
# The derivative Re <x, y>_A is linear in x, so an x off by delta moves it by
# a relative delta. The recomputed ||x||_A of x / ||x||_A is off by an amount
# that grows like u lam_max / ||x||_A^2 (the cancellation in <Ax, x>):
# measured at n = 16, 200 draws with x along the least eigenvector of A, at
# most 2.0e-15, 1.4e-9 and 1.35e-7 at lam_max / lam_min = 1e2, 1e8 and 1e10.
# So 1e-8, about sqrt(u), admits a normalized x up to a cancellation of about
# 1e8; at the 1e10 that rank_tol admits, an x along the least kept eigenvalue
# is refused.
_UNIT_NORM_TOL = 1e-8


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
    A-orthogonality along alpha: here where |s| is within the band of
    :func:`is_a_orthogonal`, or x or y is A-null, so over R at alpha = 1 the
    tag is BOTH exactly when :func:`is_a_orthogonal` holds.
    """
    alpha = complex(alpha)
    if abs(abs(alpha) - 1.0) > _UNIMODULAR_TOL:
        raise ValueError(f"alpha must be unimodular, got |alpha| = {abs(alpha)}")
    arg = float(np.angle(alpha))
    if not 0.0 <= arg < math.pi:
        raise ValueError(f"arg(alpha) must lie in [0, pi), got {arg}")
    _, band, ip, _ = _slack(a, x, y, 0.0)
    s = float(np.real(alpha * np.conj(ip)))  # Re(alpha <y, x>_A)
    if abs(s) <= band:
        return ConeTag.BOTH
    return ConeTag.PLUS_ONLY if s > 0.0 else ConeTag.MINUS_ONLY


def directional_derivative(a: PsdOperator, x: np.ndarray, y: np.ndarray) -> float:
    """One-sided derivative of lambda -> ||x + lambda y||_A at 0 for A-unit x.

    Equals Re <x, y>_A; x must satisfy ||x||_A = 1 within ``_UNIT_NORM_TOL``.
    """
    nx = norm_a(a, x)
    if abs(nx - 1.0) > _UNIT_NORM_TOL:
        raise NotAUnitError(f"x must be A-unit, got ||x||_A = {nx}")
    return float(np.real(inner_a(a, x, y)))
