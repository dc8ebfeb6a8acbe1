"""Spectral substrate: Hermitian eigendecomposition and the positive operator A.

Everything downstream works through :class:`PsdOperator`, which stores the
spectral factorization of the positive semidefinite operator A and is the one
place that changes basis to and from range coordinates. For x in R(A) the
coordinates u = W* x satisfy ||x||_A = ||u||_2, so range coordinates turn the
degenerate geometry into a plain Euclidean one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError, NotHermitianError, NotPositiveError


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances used across the package.

    hermitian_tol   relative max-entry asymmetry accepted before symmetrizing
    rank_tol        eigenvalue clipping threshold, relative to the largest one
    orth_tol        absolute slack for exact-orthogonality predicates
    verdict_margin_tol  slack that turns a signed margin into a verdict
    cluster_tol     relative width of the top singular-value cluster, which
                    decides attainment and A-isometry
    """

    hermitian_tol: float = 1e-10
    rank_tol: float = 1e-10
    orth_tol: float = 1e-8
    verdict_margin_tol: float = 1e-9
    cluster_tol: float = 1e-8

    def __post_init__(self) -> None:
        for name in self.__dataclass_fields__:
            if not 0.0 <= getattr(self, name) < float("inf"):
                raise ValueError(f"tolerance {name} must be finite and nonnegative")


DEFAULT_TOL = Tolerances()


def _as_square_matrix(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    if np.iscomplexobj(m):
        return m.astype(np.complex128, copy=False)
    return m.astype(np.float64, copy=False)


def _hermitian_eig(matrix: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate near-Hermitian input; return its exactly Hermitian part with
    that part's eigenvalues, descending, and matching eigenvectors."""
    m = _as_square_matrix(matrix)
    scale = max(float(np.max(np.abs(m))), 1.0) if m.size else 1.0
    if not np.isfinite(scale):
        raise NonFiniteError("matrix has a non-finite entry")
    asym = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
    if asym > tol * scale:
        raise NotHermitianError(
            f"matrix is not Hermitian: max asymmetry {asym:.3e} > {tol:.1e} * {scale:.3e}"
        )
    m = (m + m.conj().T) / 2.0
    w, v = np.linalg.eigh(m)
    # LAPACK's order is ascending; the Fortran-order copy of the reversed
    # columns keeps a positive-stride layout for BLAS
    return m, w[::-1], v[:, ::-1].copy(order="F")


def hermitian_eig(
    matrix: np.ndarray, tol: Tolerances = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues sorted descending.

    Returns (eigenvalues, eigenvectors) with unitary eigenvector columns
    matching the eigenvalue order, so matrix = V diag(w) V*.
    """
    return _hermitian_eig(matrix, tol.hermitian_tol)[1:]


@dataclass(frozen=True)
class PsdOperator:
    """A positive semidefinite operator with its spectral factorization.

    Attributes
    ----------
    matrix : ndarray
        The (exactly Hermitian) n x n matrix of A.
    eigenvalues : ndarray
        Clipped spectrum, descending, all >= 0.
    eigenvectors : ndarray
        Unitary matrix whose columns match ``eigenvalues``.
    rank : int
        Number of eigenvalues above the clipping threshold.
    u_plus, lam_plus : ndarray
        Eigenvectors/eigenvalues of the positive block (n x r and r).
    projector : ndarray
        Orthogonal projection onto R(A).

    Range coordinates are u = W* x, with W = U+ diag(sqrt(lam+)) and
    W- = U+ diag(1/sqrt(lam+)) (n x r), so ||W- u||_A = ||u||_2. W and W- are
    notation, not attributes: :meth:`from_coords` is the one lift of coordinate
    vectors and blocks, and :meth:`reduce` and :meth:`lift` change operators' basis.

    Each instance also keeps a private memo of the last matrices bound to it
    (see :func:`semiortho.operators.bind_operator`; witnesses bound from their
    factors are not kept), so binding one again costs no eigensolve. The memo
    takes no part in comparisons and dies with the instance.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    rank: int
    tol: Tolerances = field(default=DEFAULT_TOL, repr=False)
    _binds: list = field(default_factory=list, init=False, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def null_dim(self) -> int:
        return self.dim - self.rank

    @property
    def lam_max(self) -> float:
        return float(self.eigenvalues[0]) if self.dim else 0.0

    @property
    def is_complex(self) -> bool:
        return bool(np.iscomplexobj(self.matrix))

    @property
    def u_plus(self) -> np.ndarray:
        return self.eigenvectors[:, : self.rank]

    @property
    def lam_plus(self) -> np.ndarray:
        return self.eigenvalues[: self.rank]

    @property
    def projector(self) -> np.ndarray:
        u = self.u_plus
        return u @ u.conj().T

    def from_coords(self, u: np.ndarray) -> np.ndarray:
        """W- u: the ambient vector in R(A) with range coordinates ``u`` (r),
        or one such column per column of an r x k block, in O(n r k)."""
        return self.u_plus @ (u.T / np.sqrt(self.lam_plus)).T

    def reduce(self, t: np.ndarray) -> np.ndarray:
        """W* T W-, the r x r matrix of T in range coordinates."""
        # Scaling U+ before the products fixes T~'s rounding, which near-tie
        # attainment margins magnify by 1/gap (1e-8 at a relative gap of 1e-8).
        u, root = self.u_plus, np.sqrt(self.lam_plus)
        return (u * root).conj().T @ t @ (u / root)

    def lift(self, left: np.ndarray, right: np.ndarray | None = None) -> np.ndarray:
        """(W- left)(W right)^H: the operator, zero on N(A), whose range-coordinate
        matrix is left @ right^H, or ``left`` without ``right``, so that
        ``lift(reduce(T))`` is T compressed to R(A); O(n r k + n^2 k) for r x k."""
        u, root = self.u_plus, np.sqrt(self.lam_plus)
        w = u * root
        return (u / root) @ left @ (w if right is None else w @ right).conj().T

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


def psd_decompose(matrix: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> PsdOperator:
    """Validate and factor a positive semidefinite matrix.

    Eigenvalues in [-rank_tol * lam_max, rank_tol * lam_max] are clipped to
    zero; anything below that band raises :class:`NotPositiveError`.
    """
    m, w, v = _hermitian_eig(matrix, tol.hermitian_tol)
    lam_max = max(float(w[0]) if w.size else 0.0, 0.0)
    clip = tol.rank_tol * lam_max
    if w.size and float(w[-1]) < -clip:
        raise NotPositiveError(
            f"matrix is not positive semidefinite: eigenvalue {float(w[-1]):.3e} "
            f"< {-clip:.3e}"
        )
    w = np.where(w > clip, w, 0.0)
    rank = int(np.count_nonzero(w))
    return PsdOperator(matrix=m, eigenvalues=w, eigenvectors=v, rank=rank, tol=tol)


def sqrt_psd(a: PsdOperator) -> np.ndarray:
    """Hermitian PSD square root, so that the result squared recovers A."""
    v = a.eigenvectors
    return (v * np.sqrt(a.eigenvalues)[None, :]) @ v.conj().T


def null_basis(a: PsdOperator) -> np.ndarray:
    """Orthonormal basis of N(A) as the columns of an n x (n - rank) array."""
    return a.eigenvectors[:, a.rank :]
