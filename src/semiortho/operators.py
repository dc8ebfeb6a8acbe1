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

from .core import PsdOperator, null_basis
from .errors import NonFiniteError, NotABoundedError, ZeroANormError


@dataclass(frozen=True)
class BoundedCheck:
    ok: bool
    residual: float


@dataclass(frozen=True)
class ABoundedOperator:
    """An A-bounded operator with its cached reduction.

    ``tilde`` is the r x r matrix of the compression P T restricted to R(A),
    written in coordinates that make the A-seminorm Euclidean; ``sigma`` its
    singular values, descending; ``norm`` is sigma_max(tilde) = ||T||_A; and
    ``top_coords`` (r x m) the right-singular vectors of the top singular-value
    cluster, a copy that does not keep the other r - m columns alive.
    """

    psd: PsdOperator
    matrix: np.ndarray
    tilde: np.ndarray
    norm: float
    sigma: np.ndarray
    top_coords: np.ndarray

    @property
    def kernel(self) -> np.ndarray:
        """A^{1/2} T W-, the n x r restricted kernel (same singular values)."""
        return self.psd.u_plus @ self.tilde

    @property
    def is_complex(self) -> bool:
        return bool(np.iscomplexobj(self.matrix) or self.psd.is_complex)


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
    return _reduce(a, a.check_matrix(t))


def _reduce(a: PsdOperator, t: np.ndarray) -> np.ndarray:
    """``tilde_reduce`` of a matrix that ``a.check_matrix`` has validated."""
    chk = _bounded_check(a, t)
    if not chk.ok:
        raise NotABoundedError(
            f"operator does not map N(A) into N(A): residual {chk.residual:.3e}"
        )
    return a.w_map.conj().T @ t @ a.w_inv_map


def lift_tilde(a: PsdOperator, tilde: np.ndarray) -> np.ndarray:
    """Ambient operator with the given range-coordinate matrix, zero on N(A)."""
    return a.w_inv_map @ tilde @ a.w_map.conj().T


# Reductions remembered per decomposition: enough for T, S and the two
# witnesses of a symmetry report.
_BIND_MEMO_SIZE = 4


def bind_operator(a: PsdOperator, t: Operand) -> ABoundedOperator:
    """Validate A-boundedness and cache the reduction of T with its singular
    system, from one eigensolve of the Gram matrix of the reduction.

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
    tilde = _reduce(a, t)
    w, v = np.linalg.eigh(tilde.conj().T @ tilde)
    order = np.argsort(w)[::-1]
    sigma = np.sqrt(np.clip(w[order], 0.0, None))
    norm = float(sigma[0]) if sigma.size else 0.0
    m = int(np.count_nonzero(sigma >= norm * (1.0 - a.tol.cluster_tol)))
    top_coords = v[:, order[:m]]
    # every later hit shares these arrays, so a write must fail loudly
    for arr in (tilde, sigma, top_coords):
        arr.flags.writeable = False
    fields = {"tilde": tilde, "norm": norm, "sigma": sigma, "top_coords": top_coords}
    # two statements that never raise, so threads sharing ``a`` need no lock
    a._binds.append((t.copy(), fields))
    del a._binds[:-_BIND_MEMO_SIZE]
    return ABoundedOperator(psd=a, matrix=t, **fields)


def operator_norm_a(a: PsdOperator, t: np.ndarray) -> float:
    """||T||_A, the supremum of ||Tx||_A over the A-unit sphere."""
    return bind_operator(a, t).norm


def norm_is_zero(op: ABoundedOperator) -> bool:
    """Whether ||T||_A vanishes up to the rounding noise of the reduction."""
    scale = math.sqrt(max(op.psd.lam_max, 1.0)) * (1.0 + float(np.linalg.norm(op.matrix)))
    return op.norm <= 1e-12 * scale


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


def attainment_coords(op: ABoundedOperator) -> tuple[np.ndarray, np.ndarray]:
    """Top-cluster right-singular coordinates of the reduction.

    Returns (singular values, r x m coordinate basis). For the zero operator
    every A-unit vector attains, so the basis spans all of the coordinates.
    """
    if op.norm == 0.0 or norm_is_zero(op):
        return op.sigma, np.eye(op.tilde.shape[0], dtype=op.tilde.dtype)
    return op.sigma, op.top_coords


def norm_attainment_set(a: PsdOperator, t: Operand) -> NormAttainment:
    """Norm, attainment subspace basis, and N(A) basis for an A-bounded T."""
    op = bind_operator(a, t)
    _, coords = attainment_coords(op)
    return NormAttainment(
        norm=op.norm,
        attain_basis=a.w_inv_map @ coords,
        attain_coords=coords,
        null_basis=null_basis(a),
        multiplicity=coords.shape[1],
    )


@dataclass(frozen=True)
class IsometryCheck:
    ok: bool
    deviation: float


def is_a_isometry(a: PsdOperator, t: Operand) -> IsometryCheck:
    """Whether every A-unit vector attains ||T||_A.

    Equivalent to all singular values of the reduction being equal; the
    reported deviation is (sigma_max^2 - sigma_min^2) / sigma_max^2. The zero
    operator counts as an A-isometry of norm 0.
    """
    op = bind_operator(a, t)
    sig = op.sigma
    if sig.size == 0 or op.norm == 0.0 or norm_is_zero(op):
        return IsometryCheck(ok=True, deviation=0.0)
    deviation = float((sig[0] ** 2 - sig[-1] ** 2) / sig[0] ** 2)
    return IsometryCheck(ok=deviation <= a.tol.isometry_tol, deviation=deviation)


def require_positive_norm(op: ABoundedOperator) -> None:
    if norm_is_zero(op):
        raise ZeroANormError("operator has zero A-norm; use the direct route")
