"""Operator-level machinery for the A-seminorm geometry.

An operator T is A-bounded exactly when it maps N(A) into N(A) (finite
dimensions); its A-norm is then the top singular value of the reduced matrix
T~ = W* T W- expressed in range coordinates, where the degenerate geometry
becomes Euclidean. The attainment set of T intersected with R(A) is the unit
sphere of the span of the top right-singular subspace of T~.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _UNIT_ROUNDOFF, CLUSTER_TOL, PsdOperator, null_basis
from .errors import NonFiniteError, NotABoundedError, WitnessConstructionError


@dataclass(frozen=True)
class BoundedCheck:
    ok: bool
    residual: float


@dataclass(frozen=True, eq=False)
class ABoundedOperator:
    """An A-bounded operator with its cached reduction.

    ``tilde`` is the r x r matrix of the compression P T restricted to R(A),
    written in coordinates that make the A-seminorm Euclidean; ``sigma`` its
    singular values, descending; ``norm`` is sigma_max(tilde) = ||T||_A;
    ``top_coords`` (r x m) the right-singular vectors of the top singular-value
    cluster, a copy that does not keep the other r - m columns alive, which
    span the attainment subspace (all of R(A), the r x r identity, when the
    norm is zero and for an A-isometry); ``zero_norm`` whether ||T||_A
    vanishes up to the rounding noise of the reduction, tested once per bind;
    and ``gram_eigh`` the ascending eigensystem (w, V) of tilde* tilde where
    the bind took one full ``eigh`` of it, else None, kept for the direct
    route's first Newton step. An instance equals only itself and hashes by
    identity: two binds of one matrix are two objects.
    """

    psd: PsdOperator
    matrix: np.ndarray
    tilde: np.ndarray
    norm: float
    sigma: np.ndarray
    top_coords: np.ndarray
    zero_norm: bool
    gram_eigh: tuple[np.ndarray, np.ndarray] | None

    @property
    def is_complex(self) -> bool:
        """Whether T or A is complex: exactly when the reduction is."""
        return self.tilde.dtype.kind == "c"


# An operator argument: a matrix, or a bound operator (used as it is when it
# was bound to the same A, else its matrix is bound again).
Operand = np.ndarray | ABoundedOperator


def check_a_bounded(a: PsdOperator, t: np.ndarray) -> BoundedCheck:
    """Test ||A T v|| <= rank_tol * lam_max * ||T||_F * ||v|| on a basis of
    N(A) and report the worst relative residual, which is invariant under
    rescaling T or A. Non-finite entries raise :class:`NonFiniteError`."""
    return _bounded_check(a, a.check_matrix(t))


def _bounded_check(a: PsdOperator, t: np.ndarray) -> BoundedCheck:
    if not np.isfinite(t).all():
        raise NonFiniteError("operator has a non-finite entry")
    nb = null_basis(a)
    if nb.shape[1] == 0 or a.lam_max == 0.0:
        return BoundedCheck(ok=True, residual=0.0)
    image = a.matrix @ (t @ nb)
    worst = float(np.max(np.linalg.norm(image, axis=0)))
    if worst == 0.0:
        return BoundedCheck(ok=True, residual=0.0)
    residual = worst / (a.lam_max * float(np.linalg.norm(t)))
    return BoundedCheck(ok=residual <= a.tol.rank_tol, residual=residual)


def tilde_reduce(a: PsdOperator, t: np.ndarray) -> np.ndarray:
    """Matrix of the range compression of T in A-orthonormal coordinates.

    The reduction is linear in T and preserves the operator A-norm:
    sigma_max of the result equals ||T||_A.
    """
    return _reduce(a, a.check_matrix(t))[0]


def _reduce(a: PsdOperator, t: np.ndarray) -> tuple[np.ndarray, float]:
    """``PsdOperator.reduce_parts`` of a matrix that ``a.check_matrix`` has
    validated, once it is found A-bounded."""
    chk = _bounded_check(a, t)
    if not chk.ok:
        raise NotABoundedError(
            f"operator does not map N(A) into N(A): residual {chk.residual:.3e}"
        )
    return a.reduce_parts(t)


# Reductions remembered per decomposition. A timed benchmark operation binds
# at most two matrices (T and S), and the op-complex set-up loop, which binds
# fresh pairs to one A, only ever hits its last two entries.
_BIND_MEMO_SIZE = 4


def bind_operator(a: PsdOperator, t: Operand) -> ABoundedOperator:
    """Validate A-boundedness and cache the reduction of T with its singular
    values and top cluster, from one eigensolve of the Gram matrix of the
    reduction: a full ``eigh`` below rank ``_PARTIAL_MIN_RANK``, else
    ``eigvalsh`` with the cluster from a shifted solve (``_singular_system``).

    An operator already bound to ``a`` is returned as it is, so deciders can
    bind once and pass the result on. A matrix equal, in dtype and every
    entry, to one of the last few bound to ``a`` reuses that reduction and
    singular system: passing the same matrix to several deciders costs one
    eigensolve. Non-finite entries raise :class:`NonFiniteError`.
    """
    if isinstance(t, ABoundedOperator):
        if t.psd is a:
            return t
        t = t.matrix
    t = a.check_matrix(t)
    # Entries hold a copy of the matrix, so that a caller's later in-place
    # edit cannot match, and arrays only: a reference back to ``a`` would make
    # a cycle that only the cyclic garbage collector frees.
    for key, fields in a._binds:
        if key.dtype == t.dtype and np.array_equal(key, t):
            return ABoundedOperator(psd=a, matrix=t, **fields)
    tilde, image_ratio = _reduce(a, t)
    fields = _singular_system(tilde, zero_image=image_ratio <= _ZERO_IMAGE)
    # two statements that never raise, so threads sharing ``a`` need no lock
    a._binds.append((t.copy(), fields))
    del a._binds[:-_BIND_MEMO_SIZE]
    return ABoundedOperator(psd=a, matrix=t, **fields)


def _singular_system(left: np.ndarray, right: np.ndarray | None = None, zero_image: bool = False) -> dict:
    """Cached fields of the reduction left @ right^H, ``right`` (r x k) with
    orthonormal columns or the identity when None: the squared singular
    values are the eigenvalues of the Gram matrix G = left^H left, padded
    with zeros to length r, and the top cluster's right-singular vectors are
    its top eigenvectors.

    ||T||_A is zero where the bind found W* T at rounding level
    (``zero_image``; see ``_ZERO_IMAGE``), or where the computed norm is
    exactly 0, the one way a product of witness factors, formed without W,
    can vanish. Then every A-unit vector attains it, and the attainment
    coordinates are the r x r identity, as they are for any cluster that
    fills R(A). Both are decided before any vector work.

    A reduction of rank r >= ``_PARTIAL_MIN_RANK`` takes the eigenvalues
    alone (``eigvalsh``), and any cluster short of R(A) comes from
    ``_top_block``, with a full ``eigh`` where that cannot certify it.
    Smaller reductions take one ``eigh``. ``gram_eigh`` keeps any full
    ``eigh`` of a bind, as LAPACK returns it; the k x k Gram matrices of
    witness factors take one ``eigh`` and keep nothing.
    """
    gram = left.conj().T @ left
    k = gram.shape[0]
    partial = right is None and k >= _PARTIAL_MIN_RANK
    v = gram_eigh = None
    if partial:
        w = np.linalg.eigvalsh(gram)[::-1]
    else:
        w, v = np.linalg.eigh(gram)
        if right is None:
            gram_eigh = (w, v)
        w, v = w[::-1], v[:, ::-1]
    sigma = np.zeros(left.shape[0])
    sigma[:k] = np.sqrt(np.clip(w, 0.0, None))
    norm = float(sigma[0]) if sigma.size else 0.0
    zero_norm = zero_image or norm == 0.0
    m = int(np.count_nonzero(sigma >= norm * (1.0 - CLUSTER_TOL)))
    tilde = left if right is None else left @ right.conj().T
    if zero_norm or m == sigma.size:
        top = np.eye(left.shape[0], dtype=tilde.dtype)
    else:
        top = _top_block(gram, w, m) if partial else None
        if top is None:
            if v is None:
                gram_eigh = tuple(np.linalg.eigh(gram))
                v = gram_eigh[1][:, ::-1]
            top = v[:, :m].copy(order="F")
        if right is not None:
            top = right @ top
    # bound operators are immutable, and memo hits share these arrays
    for array in (tilde, sigma, top, *(gram_eigh or ())):
        array.flags.writeable = False
    return {"tilde": tilde, "norm": norm, "sigma": sigma, "top_coords": top,
            "zero_norm": zero_norm, "gram_eigh": gram_eigh}


# Largest ||W* T||_F / (sqrt(lam_max) ||T||_F) at which a bind takes ||T||_A
# for zero (``PsdOperator.reduce_parts``). W* T vanishes exactly when ||T||_A
# does, and for a T with range in the computed N(A) its computed value is
# rounding, below gamma_n ||W||_F ||T||_F (|W*| |T| entrywise; Higham,
# Accuracy and Stability of Numerical Algorithms, 2nd ed., Sec. 3.5), about
# n^1.5 u of the denominator, as ||W||_F <= sqrt(n lam_max): at most 4.1e-16
# of ||W||_F ||T||_F on 200 such T per rho for n = 6 and
# A = Q diag(1, 0.7, 0.4, rho, 0, 0) Q* with rho = 1e-6 ... 1e-10. A nonzero
# A-norm gives ||W* T|| >= sqrt(lam_r) ||T||_A, as
# ||T||_A = ||(W* T) W-||_2 <= ||W* T||_2 / sqrt(lam_r): the test is
# sigma_max(T~) against 1e-12 ||T||_F grown by the condition number
# sqrt(lam_max / lam_r) of W, the factor by which T~ = (W* T) W- magnifies
# the rounding of W* T. (Testing sigma_max(T~) against 1e-12 ||T||_F alone
# missed 41, 140 and 163 of 200 such T at rho = 1e-8, 1e-9 and 5e-10.)
# Rescaling T or A changes neither side.
_ZERO_IMAGE = 1e-12


# Rank from which a bind takes its eigenvalues from ``eigvalsh`` and its top
# cluster from ``_top_block`` instead of one full ``eigh`` of the Gram matrix.
# Medians of 300 in-process calls, Gram matrices with top clusters of m = 1
# and 2 (2 vCPU, OpenBLAS 0.3.31 pinned to 1 thread), eigh -> partial, ms:
#   r = 16  real 0.06 -> 0.10 (m = 1), 0.06 -> 0.16 (m = 2);
#           complex 0.08 -> 0.11, 0.06 -> 0.12
#   r = 32  real 0.18 -> 0.18, 0.18 -> 0.24; complex 0.16 -> 0.15, 0.17 -> 0.20
#   r = 48  real 0.46 -> 0.36, 0.43 -> 0.40; complex 0.63 -> 0.52, 0.61 -> 0.61
#   r = 64  real 0.48 -> 0.35, 0.71 -> 0.58; complex 1.13 -> 0.85, 1.22 -> 0.98
# r = 48 is the smallest of these at which the partial path is no slower.
_PARTIAL_MIN_RANK = 48


def _top_block(gram: np.ndarray, w: np.ndarray, m: int) -> np.ndarray | None:
    """The top m eigenvectors of the Hermitian ``gram`` (k x k, m < k), whose
    eigenvalues ``w`` are given in descending order, by inverse iteration, or
    None where it cannot certify them.

    The shift w_1 (1 + 8 u), u the unit roundoff, lies just above the
    spectrum, so one solve of (G - shift) X = X_0 damps every eigenvector
    outside the cluster by about its gap over 8 u. X_0 holds the m columns
    of G with the largest diagonal, so the result is deterministic. Each
    solve is followed by two-pass Gram-Schmidt and an m x m Rayleigh-Ritz
    step. The block Q is accepted once its Ritz values theta lie above the
    midpoint of w_m and w_{m+1}, nearer the cluster than the rest, and the
    residual R = G Q - Q diag(theta) has ||R||_F <= 1e-12 (theta_m - w_{m+1}):
    by the Davis-Kahan sin theta theorem (SIAM J. Numer. Anal. 7 (1970)) the
    sine of the largest angle from span Q to the top eigenspace is then at
    most 1e-12. At most two solves are made.
    """
    k = gram.shape[0]
    shift = float(w[0]) * (1.0 + 8.0 * _UNIT_ROUNDOFF)
    midpoint = (float(w[m - 1]) + float(w[m])) / 2.0
    block = gram[:, np.argsort(-gram.diagonal().real, kind="stable")[:m]]
    shifted = gram.copy()
    shifted.flat[:: k + 1] -= shift
    for _ in range(2):
        try:
            block = np.linalg.solve(shifted, block)
        except np.linalg.LinAlgError:
            return None
        q = _orthonormalize(block)
        if q is None:
            return None
        sq = shifted @ q
        h = q.conj().T @ sq  # Ritz matrix of G - shift
        if m == 1:
            theta = h.diagonal().real
        else:
            theta, rot = np.linalg.eigh((h + h.conj().T) / 2.0)
            theta, rot = theta[::-1], rot[:, ::-1]
            q, sq = q @ rot, sq @ rot
        residual = float(np.linalg.norm(sq - q * theta))
        lowest = float(theta[-1]) + shift
        if lowest >= midpoint and residual <= 1e-12 * (lowest - float(w[m])):
            return q
        block = q
    return None


# Least length, relative to its own, that a column keeps in ``_orthonormalize``
# once projected off the columns before it. Two passes of Gram-Schmidt leave
# it orthogonal to them to working precision while that length is well above
# rounding (twice is enough: Giraud, Langou and Rozloznik, Comput. Math. Appl.
# 50, 2005), and the direction kept is accurate to about u / length, 1.1e-10
# at 1e-6 (u the unit roundoff). A shorter remainder is a column that inverse
# iteration has drawn onto the others, with no direction worth refining, and
# ``_top_block`` then leaves the cluster to a full ``eigh``. The value is
# dimensionless, and it only picks between ``_top_block``'s block, which its
# residual bound certifies, and that fallback: it moves time, not results.
# The least length met on the seed-41/42 symmetry mixes was 5.1e-3 (30
# blocks of two or more columns).
_DEPENDENT_LENGTH = 1e-6


def _orthonormalize(x: np.ndarray) -> np.ndarray | None:
    """Orthonormal columns spanning those of ``x``, by two passes of
    Gram-Schmidt per column, or None where a column is dependent on the ones
    before it to within ``_DEPENDENT_LENGTH`` of its length."""
    q = np.empty_like(x)
    for j in range(x.shape[1]):
        length = float(np.linalg.norm(x[:, j]))
        if not 0.0 < length < math.inf:
            return None
        v = x[:, j] / length
        for _ in range(2):
            v = v - q[:, :j] @ (q[:, :j].conj().T @ v)
        length = float(np.linalg.norm(v))
        if not length > _DEPENDENT_LENGTH:
            return None
        q[:, j] = v / length
    return q


# Largest entry of R* R - I accepted for the right factor R of
# ``_bind_product``. The bind takes the singular values of L R* from L alone,
# as is exact for orthonormal R; a defect E scales their squares by factors
# within ||E||_2 <= k max|E_ij| of 1 (Ostrowski), k the number of columns (at
# most m + 1 on the witnesses). So at 1e-12 the stored singular values are
# those of the lifted witness to a relative k 1e-12, far inside CLUSTER_TOL
# for any k below 10^3. The witnesses' factors are orthonormal to rounding:
# at most 1.6e-15 over the 564 built on the seed-41/42 symmetry mixes. The
# defect is dimensionless, so a fixed value is right.
_FACTOR_DEFECT = 1e-12


def _bind_product(a: PsdOperator, left: np.ndarray, right: np.ndarray) -> ABoundedOperator:
    """Bind the operator whose reduction is left @ right^H, for nonzero r x k
    factors, ``right`` with orthonormal columns (within ``_FACTOR_DEFECT``): its
    lift (W- left)(W right)^H costs O(n r k) and is zero on N(A), its singular
    system takes a k x k eigensolve, and the memo of ``a`` does not keep it."""
    defect = float(np.max(np.abs(right.conj().T @ right - np.eye(right.shape[1]))))
    if defect > _FACTOR_DEFECT:
        raise WitnessConstructionError(f"right factor not orthonormal (defect {defect:.2e})")
    return ABoundedOperator(psd=a, matrix=a.lift(left, right), **_singular_system(left, right))


def operator_norm_a(a: PsdOperator, t: np.ndarray) -> float:
    """||T||_A, the supremum of ||Tx||_A over the A-unit sphere."""
    return bind_operator(a, t).norm


@dataclass(frozen=True)
class NormAttainment:
    """The attainment structure of an A-bounded operator.

    ``attain_coords`` (r x m) spans, in range coordinates, the subspace whose
    A-unit sphere is M_A^T intersected with R(A); ``attain_basis`` are the
    same vectors lifted to the ambient space (columns, A-orthonormal).
    """

    norm: float
    attain_basis: np.ndarray
    attain_coords: np.ndarray
    null_basis: np.ndarray
    multiplicity: int


def norm_attainment_set(a: PsdOperator, t: Operand) -> NormAttainment:
    """Norm, attainment subspace basis, and N(A) basis for an A-bounded T."""
    op = bind_operator(a, t)
    coords = op.top_coords
    return NormAttainment(
        norm=op.norm,
        attain_basis=a.from_coords(coords),
        attain_coords=coords,
        null_basis=null_basis(a),
        multiplicity=coords.shape[1],
    )


@dataclass(frozen=True)
class IsometryCheck:
    ok: bool
    deviation: float


def is_a_isometry(a: PsdOperator, t: Operand) -> IsometryCheck:
    """Whether every A-unit vector attains ||T||_A: whether the attainment
    cluster of the bind fills R(A), i.e. sigma_min >= (1 - CLUSTER_TOL)
    sigma_max, the one test that also decides attainment. The reported
    deviation is (sigma_max^2 - sigma_min^2) / sigma_max^2. The zero operator
    counts as an A-isometry of norm 0, with deviation 0.
    """
    op = bind_operator(a, t)
    sig = op.sigma
    deviation = 0.0 if op.zero_norm else float((sig[0] ** 2 - sig[-1] ** 2) / sig[0] ** 2)
    return IsometryCheck(ok=op.top_coords.shape[1] == sig.size, deviation=deviation)
