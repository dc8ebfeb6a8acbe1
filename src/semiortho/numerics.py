"""Orthonormal complements in K^dim."""

from __future__ import annotations

import numpy as np


def orthonormal_complement(basis: np.ndarray, dim: int) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of span(basis) in K^dim.

    ``basis`` is a dim x m array with m <= dim (columns need not be
    orthonormal, but must not exceed rank m). Uses a full QR factorization,
    which is deterministic for a fixed input.
    """
    basis = np.atleast_2d(basis)
    if basis.shape[0] != dim:
        raise ValueError(f"basis rows {basis.shape[0]} != dim {dim}")
    m = basis.shape[1]
    if m == 0:
        return np.eye(dim, dtype=basis.dtype)
    q, _ = np.linalg.qr(basis, mode="complete")
    return q[:, m:]

