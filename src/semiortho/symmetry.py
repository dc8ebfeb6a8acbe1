"""Classification of approximate right/left symmetric operators, over R or C.

An A-bounded operator T is right symmetric for the approximate operator
orthogonality exactly when it is an A-isometry, and left symmetric exactly
when ||T||_A = 0 or dim R(A) <= 1. In a range of dimension 1, T~ = t and
S~ = s are scalars, and for t, s != 0 the choice lambda = -mu t / s gives
g(lambda) = |t|^2 mu (mu - 2 (1 - eps)) < 0 for 0 < mu < 2 (1 - eps): there
T perp S holds only where ||T||_A or ||S||_A is 0, and then both ways. Both
"only if" directions are constructive: this module builds the
counterexample operator, working in range coordinates where the A-seminorm
is Euclidean and lifting the result back with zero action on N(A).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .core import _UNIT_ROUNDOFF, PsdOperator
from .errors import (
    IsometryError,
    RankTooSmallError,
    WitnessConstructionError,
    ZeroANormError,
)
from .operators import (
    ABoundedOperator,
    Operand,
    _bind_product,
    _norm,
    _norms,
    bind_operator,
    is_a_isometry,
)
from .orthogonality import op_orth_direct
from .vectors import OrthoVerdict, validate_epsilon

# Largest defect accepted in the orthonormality that a witness's proof needs:
# the entries of I - Y*Y for the right witness's unit images Y, and the cosine
# |<Tx, Tx_1>| between unit images in the left witness's case II. Both are
# dimensionless, so rescaling T or A leaves them unchanged and no scale enters
# the threshold; a fixed value is right. In exact arithmetic both vanish, since
# the columns are right-singular vectors; rounding of the Gram eigensolve
# leaves O(r u), r = rank A, u the unit roundoff (mixing inside the cluster
# costs u, not the cluster's width: an angle u / g between vectors whose
# squared singular values differ by g). Measured on the seed-41/42 bench
# mixes, 800 near-tie operators and 900 near-rank-one ones (sigma_2 / sigma_1
# = 10^-k, k = 4..12): at most 4.7 r u, 3.8e-15 for the defect and 3.2e-14 for
# the cosine. 1e-8 is far above that for any r below 10^6, so it fires only
# on vectors that are not singular vectors.
_ORTHO_ASSERT_TOL = 1e-8

# Rounding allowance of the left witness's forward check |<Tx, Sx>| <= eps.
# Exactly, value_ts = |eps1 a - sqrt(1 - eps1^2) alpha b| <= eps: with the
# midpoint alpha it is 0 where alpha_hi = (a eps1 + eps) / (root_eps1 b), and
# (a eps1 + eps - root_eps1 b) / 2 < eps where alpha_hi is clipped to 1 (as
# alpha_lo < 1). Every factor lies in [0, 1], and alpha's divisor root_eps1 b
# cancels in alpha root_eps1 b, so the dozen roundings of the parameters and of
# value_ts each move it by at most about u: 16 u bounds the excess with room
# to spare (the computed excess is at most 0 on 2e5 epsilons in [0, 1)).
_FORWARD_ROUNDING = 16.0 * _UNIT_ROUNDOFF


# Largest column of T~ / ||T|| - (T x) x^H, the normalized T on the
# orthocomplement of its attaining vector x, at which ``left_witness`` takes T
# for rank one (case I) and leaves that part out. Either case is valid on
# both sides of the switch, so it only picks one. Case I's guarantees move by
# at most sqrt(r) times the largest column (r = rank A; only the reverse
# product <S z_1, T z_1> sees the part left out), against a reverse margin
# a eps1 - eps = 0.207 (1 - eps) from ``left_parameters``. Case II divides by
# beta, the length of that part's image off T x, and holds while beta is
# above rounding. Measured on A = I_4, T = U diag(1, beta, 0, 0) V* with
# random orthogonal U and V, 100 draws per beta = 10^-k, k = 4 ... 12: every
# witness builds and verifies with the switch at 1e-9 (case II up to k = 8),
# and also with it moved to 1e-3 (all case I) or 1e-15 (all case II). So a
# fixed value is right; 1e-9 is kept. The column is relative to ||T||, so
# rescaling T or A does not move it.
_RANK_ONE_COLUMN = 1e-9


class ConstructionTag(str, enum.Enum):
    RIGHT_PROOF = "right_proof"
    LEFT_MULTI_PAIR = "left_multi_pair"
    LEFT_CASE_I = "left_case_i"
    LEFT_CASE_II = "left_case_ii"


class SymmetryKind(str, enum.Enum):
    RIGHT_SYMMETRIC = "right_symmetric"
    NOT_RIGHT_SYMMETRIC = "not_right_symmetric"
    LEFT_SYMMETRIC = "left_symmetric"
    NOT_LEFT_SYMMETRIC = "not_left_symmetric"


@dataclass(frozen=True)
class LeftParams:
    """Parameters of the left-symmetry counterexample.

    eps1 is the mixing angle parameter in (eps, 1); t the interior point of
    its admissible interval; a, b the rotation coefficients with a^2 + b^2 = 1
    and a*eps1 > eps; alpha the midpoint of (alpha_lo, alpha_hi); beta the
    secondary singular direction weight (Case II only, else 0).
    """

    eps1: float
    t: float
    a: float
    b: float
    alpha_lo: float
    alpha_hi: float
    alpha: float
    beta: float = 0.0


@dataclass(frozen=True)
class WitnessConstruction:
    """A symmetry counterexample: the branch that built it, its parameters
    (left cases I and II only), and the witness, bound to A from its factors.

    ``witness.matrix`` is the ambient operator, zero on N(A), and
    ``witness.tilde`` its coordinate matrix, of rank m + 1 (right) or at
    most 2 (left).
    """

    tag: ConstructionTag
    params: Optional[LeftParams]
    witness: ABoundedOperator


@dataclass(frozen=True)
class SymmetryReport:
    kind: SymmetryKind
    epsilon: float
    evidence: float
    construction: Optional[WitnessConstruction] = None

    @property
    def witness(self) -> Optional[ABoundedOperator]:
        """The construction's witness, or None for a symmetric operator."""
        return None if self.construction is None else self.construction.witness

    def verify(self, a: PsdOperator, t: Operand) -> tuple[OrthoVerdict, OrthoVerdict]:
        """The direct-route verdicts (forward, reverse) on the witness of this
        report on T; it is verified when forward holds and reverse fails. A
        right witness U has U perp T but not T perp U, a left witness S has
        T perp S but not S perp T. A symmetric report has no witness."""
        u, eps = self.witness, self.epsilon
        if u is None:
            raise ValueError(f"a {self.kind.value} report has no witness to verify")
        first, second = (u, t) if self.kind is SymmetryKind.NOT_RIGHT_SYMMETRIC else (t, u)
        return op_orth_direct(a, first, second, eps), op_orth_direct(a, second, first, eps)


def left_parameters(eps: float) -> LeftParams:
    """Deterministic parameters for the left-symmetry counterexample.

    eps1 = (1 + eps)/2 keeps both denominators away from zero; t is half of
    its admissible upper bound; then a*eps1 > eps and alpha_lo < 1 hold, and
    the alpha interval is nonempty for eps > 0 and degenerates to its single
    admissible endpoint at eps = 0 (which yields the exact-orthogonality
    witness).
    """
    eps = validate_epsilon(eps)
    eps1 = (1.0 + eps) / 2.0
    root_eps = math.sqrt(1.0 - eps**2)
    root_eps1 = math.sqrt(1.0 - eps1**2)
    t = 0.25 * (1.0 - eps * root_eps1 / (eps1 * root_eps))
    a = eps * eps1 + (1.0 - 2.0 * t) * root_eps * root_eps1
    if not -1.0 < a < 1.0:
        raise WitnessConstructionError(f"rotation coefficient out of range: a = {a}")
    b = math.sqrt(1.0 - a**2)
    if a * eps1 <= eps:
        raise WitnessConstructionError(
            f"parameter inequality a*eps1 > eps failed: {a * eps1} <= {eps}"
        )
    alpha_lo = (a * eps1 - eps) / (root_eps1 * b)
    alpha_hi = min(1.0, (a * eps1 + eps) / (root_eps1 * b))
    # exact: both bounds divide by one positive number, and their numerators
    # are ordered since eps >= 0, so rounding keeps alpha_lo <= the uncapped
    # alpha_hi, and only the cap at 1 could invert the interval
    if alpha_hi < alpha_lo:
        raise WitnessConstructionError(
            f"alpha interval inverted: ({alpha_lo}, {alpha_hi})"
        )
    return LeftParams(
        eps1=eps1,
        t=t,
        a=a,
        b=b,
        alpha_lo=alpha_lo,
        alpha_hi=alpha_hi,
        alpha=(alpha_lo + alpha_hi) / 2.0,
    )


def _unit_orthogonal(basis: np.ndarray) -> np.ndarray:
    """A unit vector orthogonal to the orthonormal columns of ``basis``
    (r x m, m < r), in O(r m): the coordinate vector farthest from their span,
    e_k for the row k of least norm (distance sqrt(1 - |row k|^2), at least
    sqrt(1 - m/r)), projected off the span twice."""
    v = np.zeros(basis.shape[0], dtype=basis.dtype)
    v[_norms(basis, 1).argmin()] = 1.0
    for _ in range(2):
        v -= basis @ (basis.conj().T @ v)
    return v / _norm(v)


def right_witness(a: PsdOperator, t: Operand, eps: float) -> WitnessConstruction:
    """Build U with U perp T but not T perp U, for a non-isometry T: one whose
    attainment cluster, of size m, does not fill R(A) (the test of
    ``is_a_isometry``), so m < r and there is room for x_{m+1}.

    Steps, in range coordinates: take the attainment basis x_1..x_m and one
    unit x_{m+1} orthogonal to it; take the images y_i = T x_i / sigma_i, the
    left singular vectors, which stay orthonormal when the cluster's singular
    values differ within CLUSTER_TOL; pick a unit w_0 orthogonal to them, of
    the phase that makes <w_0, T x_{m+1}> >= 0; send x_i to -y_i for i <= m,
    x_{m+1} to w_0, the rest to zero: bind the factors
    L = [-y_1..-y_m, w_0], R = [x_1..x_{m+1}] with an (m+1) x (m+1) eigensolve.
    x_{m+1} and w_0 are each the coordinate vector farthest from the span they
    must avoid, projected off it (``_unit_orthogonal``): O(r m), no QR.

    Over R and C alike, U attains its norm on the span of x_1..x_{m+1}, where
    the numerical range of <U x, T x>_A holds -sigma_1 (at x_1) and a value
    >= 0 (at x_{m+1}), so 0 (Toeplitz-Hausdorff): U perp T. On T's attainment
    sphere <T x, U x>_A = -sum sigma_i |c_i|^2 for x = sum c_i x_i: T perp U fails.
    """
    eps = validate_epsilon(eps)
    op = bind_operator(a, t)
    if op.zero_norm:
        raise ZeroANormError("zero operator is an A-isometry; no right witness exists")
    if is_a_isometry(a, op).ok:
        raise IsometryError("operator is an A-isometry; no right witness exists")

    coords = op.top_coords
    m = coords.shape[1]
    images = op.tilde @ coords / op.sigma[:m]
    gram_defect = float(np.abs(images.conj().T @ images - np.eye(m)).max())
    if gram_defect > _ORTHO_ASSERT_TOL:
        raise WitnessConstructionError(
            f"attainment images not orthonormal (defect {gram_defect:.2e}); "
            "attainment cluster is ill-resolved"
        )
    extension = _unit_orthogonal(coords)
    w0 = _unit_orthogonal(images)
    value = np.vdot(w0, op.tilde @ extension)
    if value != 0:
        w0 = w0 * (value / abs(value))

    right = np.concatenate((coords, extension[:, None]), axis=1)
    witness = _bind_product(a, np.concatenate((-images, w0[:, None]), axis=1), right)
    return WitnessConstruction(tag=ConstructionTag.RIGHT_PROOF, params=None, witness=witness)


def left_witness(a: PsdOperator, t: Operand, eps: float) -> WitnessConstruction:
    """Build S with T perp S but not S perp T, for any T with ||T||_A > 0.

    Three branches, in range coordinates with T normalized to A-norm 1:

    * attainment multiplicity m >= 2: S vanishes on the A-orthocomplement of
      a second attaining vector z_2 and copies T there;
    * m = 1 and T kills the orthocomplement of its attaining vector x
      (rank-one T): rotate (x, x_1) by eps1 into (z_1, z_2) and send them to
      prescribed combinations of Tx and a unit w orthogonal to Tx, with x_1
      and w picked by ``_unit_orthogonal``;
    * m = 1 otherwise: the same with x_1 the coordinate vector e_k whose
      projection off x has the largest image, projected off x and normalized,
      and w the unit vector along T x_1 with its Tx component removed, of
      length beta.

    Why remove that component: x is a top right-singular vector, so
    <T x, T x_1> = <T* T x, x_1> = ||T||^2 <x, x_1> = 0. Computed, it is
    rounding of about u ||T||^2, u the unit roundoff, whatever the second
    singular value; T x_1 / ||T x_1|| would divide that by beta and miss
    orthogonality by u / beta (above 1e-8 for beta near 1e-8). Removed, w is
    orthogonal to Tx to rounding, T x_1 = <T x, T x_1> T x + beta w in the
    normalized T, and the guarantees below hold with beta the length of what
    remains, up to a term no larger than |<T x, T x_1>|, which is rounding. |<T x, T x_1>| itself must stay at rounding
    (``_ORTHO_ASSERT_TOL``): a larger value means x is not a resolved top
    singular vector.

    Column k of T - (Tx) x^H is the image of e_k projected off x, so T kills
    the orthocomplement of x when no column exceeds ``_RANK_ONE_COLUMN``. No
    branch takes a QR.

    S is bound from its factors: L = [T z_2], R = [z_2] in the first branch,
    L = [a Tx + b w, alpha (b Tx - a w)], R = [z_1, z_2] in the others.

    Over C the parameters stay real: a real rotation of an orthonormal pair is
    orthonormal, and <T x, S x>_A and <S z_1, T z_1>_A are real and
    phase-invariant (the same at e^{i phi} x and e^{i phi} z_1).
    """
    eps = validate_epsilon(eps)
    op = bind_operator(a, t)
    if op.zero_norm:
        raise ZeroANormError("zero-A-norm operator is left symmetric; no witness exists")
    if a.rank < 2:
        raise RankTooSmallError("left witness construction needs dim R(A) >= 2")

    tilde_n = op.tilde / op.norm
    coords = op.top_coords
    m = coords.shape[1]

    if m >= 2:
        z2 = coords[:, 1:2]
        witness = _bind_product(a, tilde_n @ z2, z2)
        return WitnessConstruction(tag=ConstructionTag.LEFT_MULTI_PAIR, params=None, witness=witness)

    x = coords[:, 0]
    image_x = tilde_n @ x
    norms = _norms(tilde_n - image_x[:, None] * x.conj(), 0)
    k = int(norms.argmax())

    if norms[k] <= _RANK_ONE_COLUMN:
        tag = ConstructionTag.LEFT_CASE_I
        partner = _unit_orthogonal(coords)
        w = _unit_orthogonal(image_x[:, None])
        beta = 0.0
    else:
        tag = ConstructionTag.LEFT_CASE_II
        partner = -np.conj(x[k]) * x
        partner[k] += 1.0
        partner /= _norm(partner)
        w = tilde_n @ partner
        cross = np.vdot(image_x, w)
        if abs(cross) > _ORTHO_ASSERT_TOL:
            raise WitnessConstructionError(
                f"secondary image not orthogonal to Tx (|<Tx,Tx_1>| = {abs(cross):.2e}); "
                "attainment cluster is ill-resolved"
            )
        w = w - cross * image_x
        beta = _norm(w)
        w /= beta

    params = left_parameters(eps)
    e1, s1 = params.eps1, math.sqrt(1.0 - params.eps1**2)
    params = replace(params, beta=beta)

    value_ts = abs(e1 * params.a - s1 * params.alpha * params.b)
    if value_ts > eps + _FORWARD_ROUNDING:
        raise WitnessConstructionError(
            f"forward guarantee violated: |<Tx,Sx>| = {value_ts} > eps = {eps}"
        )
    value_st = params.a * e1 + params.b * s1 * beta
    if value_st <= eps:
        raise WitnessConstructionError(
            f"reverse guarantee violated: <Sz1,Tz1> = {value_st} <= eps = {eps}"
        )

    # (z_1, z_2)
    right = np.concatenate((x[:, None], partner[:, None]), axis=1) @ np.array([[e1, -s1], [s1, e1]])
    mix = np.array([[params.a, params.alpha * params.b], [params.b, -params.alpha * params.a]])
    witness = _bind_product(a, np.concatenate((image_x[:, None], w[:, None]), axis=1) @ mix, right)
    return WitnessConstruction(tag=tag, params=params, witness=witness)


def classify_right(a: PsdOperator, t: Operand, eps: float) -> SymmetryReport:
    """Right symmetric iff A-isometry (so at every rank of A up to 1, where
    every T is one); otherwise attach the witness that ``right_witness``
    builds. The witness is not verified here: ``semiortho classify`` and the
    ``sym_right_witness`` selftest suite verify it both ways with the direct
    route."""
    eps = validate_epsilon(eps)
    op = bind_operator(a, t)
    iso = is_a_isometry(a, op)
    if iso.ok:
        return SymmetryReport(
            kind=SymmetryKind.RIGHT_SYMMETRIC, epsilon=eps, evidence=iso.deviation
        )
    return SymmetryReport(
        kind=SymmetryKind.NOT_RIGHT_SYMMETRIC,
        epsilon=eps,
        evidence=iso.deviation,
        construction=right_witness(a, op, eps),
    )


def classify_left(a: PsdOperator, t: Operand, eps: float) -> SymmetryReport:
    """Left symmetric iff ||T||_A = 0 or dim R(A) <= 1 (see the module
    docstring); otherwise attach the witness that ``left_witness`` builds.
    The witness is not verified here: ``semiortho classify`` and the
    ``sym_left_witness`` selftest suite verify it both ways with the direct
    route."""
    eps = validate_epsilon(eps)
    op = bind_operator(a, t)
    if op.zero_norm or a.rank <= 1:
        return SymmetryReport(
            kind=SymmetryKind.LEFT_SYMMETRIC, epsilon=eps, evidence=op.norm
        )
    return SymmetryReport(
        kind=SymmetryKind.NOT_LEFT_SYMMETRIC,
        epsilon=eps,
        evidence=op.norm,
        construction=left_witness(a, op, eps),
    )
