"""Spectral substrate: Hermitian eigendecomposition and the positive operator A.

Everything downstream works through :class:`PsdOperator`, which stores the
maps W and W- of the positive semidefinite operator A (from a certified
Cholesky factor where A has full rank and n >= 24, else from the spectral
factorization) and is the one place that changes basis to and from range
coordinates. For x in R(A) the coordinates u = W* x satisfy
||x||_A = ||u||_2, so range coordinates turn the degenerate geometry into a
plain Euclidean one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError, NotHermitianError, NotPositiveError


# Largest asymmetry max|A_ij - conj(A_ji)|, relative to max|A_ij|, that
# ``_hermitian_part`` takes for rounding and removes by replacing A with
# (A + A*) / 2, the nearest Hermitian matrix in the Frobenius norm. A matrix
# formed in floating point, such as Q diag(lam) Q*, is Hermitian to within
# its products' rounding, at most n u max|A_ij| (u the unit roundoff): below
# 1e-10 for every n under 9e5, and measured at 2e-16 or less for n = 4 to
# 1024, real and complex. An input further from Hermitian is not an
# operator's matrix up to rounding, and raises. The test is relative, so
# rescaling A does not change it.
HERMITIAN_TOL = 1e-10

# Relative width of the top singular-value cluster: sigma_i is in it, and its
# right-singular vector attains ||T||_A, when sigma_i >= (1 - CLUSTER_TOL)
# sigma_1. The one test decides attainment and A-isometry. It must cover the
# rounding of T~ = W* T W-, which W's condition number sqrt(lam_1 / lam_r)
# magnifies twice: the computed 1 - sigma_r / sigma_1 of exact A-isometries
# (r = 4 to 256, 4 to 20 draws each) is at most 8.1e-15 for lam_1 / lam_r
# below 10, 3.5e-13 at 1e4, 2.4e-9 at 1e8 and 2.1e-7 at 1e10, so 1e-8 keeps
# them whole up to a condition of about 1e8, not up to the 1e10 that rank_tol
# admits. It is also near sqrt(u) = 1.05e-8, at which the span of a cluster
# set off by its width is resolved to u / width, the width itself
# (``orthogonality._SUBSET_SINE_TOL``). It is not yet tied to the verdict
# band.
CLUSTER_TOL = 1e-8

# The band that turns a signed margin into a verdict: a route holds when the
# quantity it decides on is >= -band. On the operator routes the band is
# this value, absolute; on the vector predicates it is VERDICT_MARGIN_TOL
# ||x||_A ||y||_A, which does not change when x, y or A is rescaled. It lies
# far above the rounding of a direct-route margin, 4 (r + 1) u ||T||_A^2
# (``orthogonality._rounding``; 1.1e-13 at r = 256 and ||T||_A = 1). Since
# min g is about -d^2 ||T||_A^2 at a linear distance d from the boundary,
# pairs closer than sqrt(1e-9) / ||T||_A to it (3.2e-5 at ||T||_A = 1) hold.
# The value is not derived, and as the operator band is absolute, a verdict
# within it can change when T, S or A is rescaled.
VERDICT_MARGIN_TOL = 1e-9

# The unit roundoff u of IEEE double precision, half the machine epsilon: a
# basic operation's relative rounding error is at most u.
_UNIT_ROUNDOFF = float(np.finfo(np.float64).eps) / 2.0


@dataclass(frozen=True)
class Tolerances:
    """The one modelling choice the package adds to (eps, A): ``rank_tol``,
    the eigenvalue clipping threshold relative to the largest eigenvalue,
    which decides which eigenvalues of A count as zero, and with them N(A)
    and A-null vectors. Every other threshold is a module constant whose
    value its comment explains (``HERMITIAN_TOL``, ``CLUSTER_TOL`` and
    ``VERDICT_MARGIN_TOL`` here)."""

    rank_tol: float = 1e-10

    def __post_init__(self) -> None:
        if not 0.0 <= self.rank_tol < float("inf"):
            raise ValueError("tolerance rank_tol must be finite and nonnegative")


DEFAULT_TOL = Tolerances()


def _as_square_matrix(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    if np.iscomplexobj(m):
        return m.astype(np.complex128, copy=False)
    return m.astype(np.float64, copy=False)


def _hermitian_part(matrix: np.ndarray) -> np.ndarray:
    """Validate near-Hermitian input and return its exactly Hermitian part;
    the asymmetry is measured against the largest entry, at every scale."""
    m = _as_square_matrix(matrix)
    scale = float(np.max(np.abs(m))) if m.size else 0.0
    if not np.isfinite(scale):
        raise NonFiniteError("matrix has a non-finite entry")
    asym = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
    if asym > HERMITIAN_TOL * scale:
        raise NotHermitianError(
            f"matrix is not Hermitian: max asymmetry {asym:.3e} > {HERMITIAN_TOL:.1e} * {scale:.3e}"
        )
    return (m + m.conj().T) / 2.0


def _eigh_descending(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of the exactly Hermitian ``m``, descending, and matching
    eigenvectors."""
    w, v = np.linalg.eigh(m)
    # LAPACK's order is ascending; the Fortran-order copy of the reversed
    # columns keeps a positive-stride layout for BLAS
    return w[::-1], v[:, ::-1].copy(order="F")


def _clip(w: np.ndarray, rank_tol: float) -> tuple[np.ndarray, float]:
    """Descending eigenvalues with those at or below clip = rank_tol * max(w_1, 0)
    set to zero, and that threshold."""
    clip = rank_tol * max(float(w[0]) if w.size else 0.0, 0.0)
    return np.where(w > clip, w, 0.0), clip


def hermitian_eig(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues sorted descending.

    Returns (eigenvalues, eigenvectors) with unitary eigenvector columns
    matching the eigenvalue order, so matrix = V diag(w) V*.
    """
    return _eigh_descending(_hermitian_part(matrix))


@dataclass(frozen=True, eq=False)
class PsdOperator:
    """A positive semidefinite operator with the maps to its range coordinates.

    Attributes
    ----------
    matrix : ndarray
        The (exactly Hermitian) n x n matrix of A.
    rank : int
        Number of eigenvalues above the clipping threshold.
    lam_max : float
        The largest eigenvalue where A took a full eigendecomposition; on the
        Cholesky path max_j A_jj, a lower bound on it (see :func:`psd_decompose`).
    eigenvalues : ndarray
        Clipped spectrum, descending, all >= 0.
    eigenvectors : ndarray
        Unitary matrix whose columns match ``eigenvalues``.
    tol : Tolerances
        The ``rank_tol`` that clipped the spectrum; it also decides which
        vectors are A-null and which operators are A-bounded.
    u_plus : ndarray
        Eigenvectors of the positive block (n x r).
    projector : ndarray
        Orthogonal projection onto R(A).

    Range coordinates are u = W* x, for an n x r map W with W W* = A (the
    clipped eigenvalues aside), so that ||x||_A = ||u||_2; W- (n x r), with
    W* W- = I, lifts them back. :func:`psd_decompose` stores both for every
    A: W = L and W- = L^-* where a Cholesky factor A = L L* certified full
    rank, else W = U+ diag(sqrt(lam+)) and W- = U+ diag(1/sqrt(lam+)) from
    the eigendecomposition, whose spectrum it keeps. On the Cholesky path the
    spectral attributes are computed on first use, with one ``eigh``;
    ``null_dim`` and :func:`null_basis` need none. The two choices of W
    differ by a unitary. W and W- are private: :meth:`from_coords` is the one
    lift of coordinate vectors and blocks, and :meth:`reduce` and
    :meth:`lift` change operators' basis.

    Each instance also keeps a private memo of the last matrices bound to it
    (see :func:`semiortho.operators.bind_operator`; witnesses bound from their
    factors are not kept), so binding one again costs no eigensolve. The memo
    dies with the instance. An instance equals only itself and hashes by
    identity, as ``bind_operator`` tells its own binds by ``t.psd is a``.
    """

    matrix: np.ndarray
    rank: int
    lam_max: float
    _w: np.ndarray = field(repr=False)
    _w_inv: np.ndarray = field(repr=False)
    tol: Tolerances = field(default=DEFAULT_TOL, repr=False)
    _binds: list = field(default_factory=list, init=False, repr=False)

    # the eigh path of psd_decompose fills this cache, so only the Cholesky
    # path computes it
    @cached_property
    def _spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        w, v = _eigh_descending(self.matrix)
        return _clip(w, self.tol.rank_tol)[0], v

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._spectrum[0]

    @property
    def eigenvectors(self) -> np.ndarray:
        return self._spectrum[1]

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def null_dim(self) -> int:
        return self.dim - self.rank

    @property
    def is_complex(self) -> bool:
        return bool(np.iscomplexobj(self.matrix))

    @property
    def u_plus(self) -> np.ndarray:
        return self.eigenvectors[:, : self.rank]

    @property
    def projector(self) -> np.ndarray:
        u = self.u_plus
        return u @ u.conj().T

    def from_coords(self, u: np.ndarray) -> np.ndarray:
        """W- u: the ambient vector in R(A) with range coordinates ``u`` (r),
        or one such column per column of an r x k block, in O(n r k)."""
        return self._w_inv @ u

    def reduce(self, t: np.ndarray) -> np.ndarray:
        """W* T W-, the r x r matrix of T in range coordinates."""
        return self.reduce_parts(t)[0]

    def reduce_parts(self, t: np.ndarray) -> tuple[np.ndarray, float]:
        """(W* T W-, ||W* T||_F / (sqrt(lam_max) ||T||_F)): the matrix of
        :meth:`reduce` and the relative size of W* T, which it forms first
        and which vanishes exactly when ||T||_A does (||T x||_A = ||W* T x||,
        and an A-bounded T maps N(A) into N(A)); 0 for T = 0. sqrt(lam_max)
        is ||W||_2, or on the Cholesky path at least ||W||_2 / sqrt(n)."""
        image = self._w.conj().T @ t
        # squared Frobenius norms by vdot, which flattens without the
        # overhead of np.linalg.norm on these small arrays
        size = float(np.vdot(image, image).real)
        ratio = math.sqrt(size / (self.lam_max * float(np.vdot(t, t).real))) if size else 0.0
        return image @ self._w_inv, ratio

    def lift(self, left: np.ndarray, right: np.ndarray | None = None) -> np.ndarray:
        """(W- left)(W right)^H: the operator, zero on N(A), whose range-coordinate
        matrix is left @ right^H, or ``left`` without ``right``, so that
        ``lift(reduce(T))`` is T compressed to R(A); O(n r k + n^2 k) for r x k."""
        return self._w_inv @ left @ (self._w if right is None else self._w @ right).conj().T

    def check_vector(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.shape != (self.dim,):
            raise DimensionMismatchError(
                f"vector shape {x.shape} does not match ambient dimension {self.dim}"
            )
        if not np.isfinite(x).all():
            raise NonFiniteError("vector has a non-finite entry")
        return x

    def check_matrix(self, t: np.ndarray) -> np.ndarray:
        t = _as_square_matrix(t)
        if t.shape[0] != self.dim:
            raise DimensionMismatchError(
                f"operator shape {t.shape} does not match ambient dimension {self.dim}"
            )
        return t


# Size from which psd_decompose tries a Cholesky factor of A before a full
# eigh. Minimum of 101 (n <= 24) or 41 (n >= 32) in-process calls on a
# full-rank A with eigenvalues uniform in [0.3, 2.5] (2 vCPU, OpenBLAS 0.3.31
# pinned to 1 thread), eigh path -> Cholesky path, validation included, ms:
#   n = 16   real 0.053 -> 0.060, complex 0.081 -> 0.074
#   n = 20   real 0.075 -> 0.066, complex 0.110 -> 0.081
#   n = 24   real 0.095 -> 0.073, complex 0.158 -> 0.097
#   n = 32   real 0.128 -> 0.082, complex 0.171 -> 0.127
#   n = 48   real 0.260 -> 0.123, complex 0.392 -> 0.203
#   n = 64   real 0.395 -> 0.158, complex 0.697 -> 0.343
#   n = 256  real 8.59 -> 2.91, complex 21.5 -> 5.46
# At n = 20 the gain (0.01 ms) is within the run-to-run spread of a shared
# host; n = 24 is the smallest of these at which the Cholesky path is faster
# by a fifth or more in both fields. (A bind's crossover,
# operators._PARTIAL_MIN_RANK, is 48.)
_CHOLESKY_MIN_DIM = 24

# Largest diagonal block that _lower_inverse hands to np.linalg.inv. Median
# ms of 61 _lower_inverse calls (2-vCPU Xeon, OpenBLAS 0.3.31 on 1 thread,
# two runs agreeing within 0.01 ms except where noted) for leaves of
# 8 / 16 / 32 / 64 / 128:
#   n = 64  real     0.12 / 0.08 / 0.07 / 0.10 / 0.10
#   n = 256 real     0.88 / 0.70 / 0.66 / 0.83 / 1.55
#   n = 256 complex  1.96 / 1.69 / 1.74 / 2.20 / 3.60  (leaf 8: 2.36 once)
# Smaller leaves pay Python recursion, larger ones inv's LU work; 32 is the
# fastest or within noise of 16. Another leaf would also change the bits of
# W- = L^-* on the Cholesky path, so the value stays.
_INVERSE_LEAF = 32


def _lower_inverse(low: np.ndarray) -> np.ndarray:
    """Inverse of a nonsingular lower-triangular matrix, exactly lower
    triangular, by recursive 2 x 2 blocking:
    inv([[A, 0], [C, D]]) = [[A^-1, 0], [-D^-1 C A^-1, D^-1]].

    The work is matrix products; only the diagonal leaves of size at most
    ``_INVERSE_LEAF`` go to ``np.linalg.inv``, transposed: LU with partial
    pivoting of an upper-triangular matrix makes no row exchange, so it
    solves by back substitution and leaves exact zeros below the diagonal.
    """
    n = low.shape[0]
    if n <= _INVERSE_LEAF:
        return np.linalg.inv(low.T).T
    h = n // 2
    head, tail = _lower_inverse(low[:h, :h]), _lower_inverse(low[h:, h:])
    out = np.zeros_like(low)
    out[:h, :h] = head
    out[h:, h:] = tail
    out[h:, :h] = -(tail @ (low[h:, :h] @ head))
    return out


def _certified_factor(m: np.ndarray, rank_tol: float) -> tuple[np.ndarray, np.ndarray] | None:
    """(L, L^-*) where a Cholesky factor of the Hermitian ``m`` proves it
    positive definite with lambda_min > rank_tol * lambda_max, else None.

    ``np.linalg.cholesky`` returns L with L L* = A + E, where
    |E| <= gamma_{n+1} |L| |L*| (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., Thm 10.3), so ||E||_2 <= gamma_{n+1} ||L||_F^2, and
    by Weyl lambda_min(A) >= sigma_min(L)^2 - ||E||_2. Let g = 8 (n + 1) u,
    u the unit roundoff: twice gamma_{n+1}, which also covers the larger
    constants of complex arithmetic (ibid. Sec. 3.6) and the rounding of the
    norms below; the bound on the threshold side is
        floor = rank_tol ||A||_F + g ||L||_F^2,   rank_tol ||A||_F >= rank_tol lambda_max.
    Every pivot L_ii^2 is a Schur complement's diagonal entry, so it is at
    least sigma_min(L)^2: min L_ii^2 <= floor rejects in O(n), before any
    inverse is built. Otherwise X = ``_lower_inverse(L)`` gives
    sigma_min(L) = 1 / ||L^-1||_2 >= (1 - delta) / ||X||_F, where
    delta = g ||X||_F ||L||_F bounds ||X L - I||_2 to first order (the
    leaves' substitution has |X L - I| <= gamma_b |X| |L|; ibid. Sec. 14.2).
    A is certified when delta < 1/2 and ((1 - delta) / ||X||_F)^2 > floor.

    The rounding term g ||L||_F^2 is about g trace(A) >= g lambda_max, at
    least 2.2e-14 lambda_max from n = 24, above the n u lambda_max to which
    any eigensolver resolves the spectrum. So an eigenvalue at rounding level
    is never certified, however small ``rank_tol`` is: such an A goes to
    ``eigh``.
    """
    try:
        low = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return None
    # a norm that overflows makes the test fail, and eigh takes A
    with np.errstate(over="ignore"):
        g = 8.0 * (m.shape[0] + 1) * _UNIT_ROUNDOFF
        size = float(np.linalg.norm(low))
        floor = rank_tol * float(np.linalg.norm(m)) + g * size * size
        pivot = float(np.min(low.diagonal().real))
        if not pivot * pivot > floor:
            return None
        inv = _lower_inverse(low)
        spread = float(np.linalg.norm(inv))
    delta = g * size * spread
    bound = (1.0 - delta) / spread
    if not (delta < 0.5 and bound * bound > floor):
        return None
    return low, inv.conj().T


def psd_decompose(matrix: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> PsdOperator:
    """Validate and factor a positive semidefinite matrix.

    Eigenvalues in [-rank_tol * lam_max, rank_tol * lam_max] are clipped to
    zero; anything below that band raises :class:`NotPositiveError`.

    A square A of size n >= ``_CHOLESKY_MIN_DIM`` first tries a Cholesky
    factor, a path that costs about a third of ``eigh`` at n = 256. Where it
    certifies lambda_min > rank_tol * lambda_max (``_certified_factor``), A
    has full rank under the clipping rule, W = L and W- = L^-* are stored,
    ``lam_max`` is max_j A_jj, a lower bound on lambda_max, and the spectrum
    is computed only if asked for. Every other A, rank-deficient ones
    included, takes one full ``eigh``, which gives W = U+ diag(sqrt(lam+))
    and W- = U+ diag(1/sqrt(lam+)), and ``lam_max`` is its largest
    eigenvalue. The input is validated once, before either path.

    ``lam_max`` scales ``is_a_null`` and the A-boundedness check, and both
    decide identically on any value in (0, lambda_max] at certified full
    rank, where no nonzero vector lies within rank_tol * lambda_max of N(A)
    and the check has no N(A) to test.
    """
    m = _hermitian_part(matrix)
    if m.shape[0] >= _CHOLESKY_MIN_DIM:
        factors = _certified_factor(m, tol.rank_tol)
        if factors is not None:
            return PsdOperator(matrix=m, rank=m.shape[0], _w=factors[0], _w_inv=factors[1],
                               lam_max=float(np.max(m.diagonal().real)), tol=tol)
    w, v = _eigh_descending(m)
    clipped, clip = _clip(w, tol.rank_tol)
    if w.size and float(w[-1]) < -clip:
        raise NotPositiveError(
            f"matrix is not positive semidefinite: eigenvalue {float(w[-1]):.3e} "
            f"< {-clip:.3e}"
        )
    rank = int(np.count_nonzero(clipped))
    # U+ scaled before any product with T fixes T~'s rounding, which near-tie
    # attainment margins magnify by 1/gap (1e-8 at a relative gap of 1e-8)
    u, root = v[:, :rank], np.sqrt(clipped[:rank])
    a = PsdOperator(matrix=m, rank=rank, lam_max=float(clipped[0]) if w.size else 0.0,
                    _w=u * root, _w_inv=u / root, tol=tol)
    a.__dict__["_spectrum"] = (clipped, v)  # the cached property's slot
    return a


def sqrt_psd(a: PsdOperator) -> np.ndarray:
    """Hermitian PSD square root, so that the result squared recovers A."""
    v = a.eigenvectors
    return (v * np.sqrt(a.eigenvalues)[None, :]) @ v.conj().T


def null_basis(a: PsdOperator) -> np.ndarray:
    """Orthonormal basis of N(A) as the columns of an n x (n - rank) array;
    at full rank the n x 0 block, with no eigensolve."""
    if a.null_dim == 0:
        return np.zeros((a.dim, 0), dtype=a.matrix.dtype)
    return a.eigenvectors[:, a.rank :]
