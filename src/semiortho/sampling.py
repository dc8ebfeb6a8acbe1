"""Seeded random instance generators for the tests, the self-test suites and
the benchmark.

Everything takes an explicit numpy Generator, so the suites are reproducible
given a seed. A-bounded operators are assembled block-wise against the
range/null splitting of A: an arbitrary action inside R(A) (prescribed in
range coordinates), plus, where A is singular, random blocks mapping into
N(A), which keeps A-boundedness exact by construction.
"""

from __future__ import annotations

import math

import numpy as np

from .core import PsdOperator, null_basis, psd_decompose
from .operators import bind_operator
from .vectors import inner_a, norm_a


def gaussian(rng: np.random.Generator, shape: tuple[int, ...], complex_field: bool = False) -> np.ndarray:
    z = rng.standard_normal(shape)
    if complex_field:
        z = z + 1j * rng.standard_normal(shape)
    return z


def random_orthonormal(rng: np.random.Generator, n: int, complex_field: bool = False) -> np.ndarray:
    """Haar-ish orthogonal/unitary matrix from the QR of a Gaussian."""
    q, r = np.linalg.qr(gaussian(rng, (n, n), complex_field))
    signs = np.where(np.real(np.diag(r)) < 0.0, -1.0, 1.0)
    return q * signs[None, :]


def random_hermitian(rng: np.random.Generator, n: int, complex_field: bool = False) -> np.ndarray:
    m = gaussian(rng, (n, n), complex_field)
    return (m + m.conj().T) / 2.0


def random_psd(
    rng: np.random.Generator, n: int, rank: int | None = None, complex_field: bool = False
) -> PsdOperator:
    """Random PSD operator with exactly ``rank`` positive eigenvalues (all of
    them by default), drawn uniformly from [0.3, 2.5]."""
    rank = n if rank is None else rank
    if not 0 <= rank <= n:
        raise ValueError(f"rank must lie in [0, {n}], got {rank}")
    u = random_orthonormal(rng, n, complex_field)
    lam = np.zeros(n)
    lam[:rank] = np.sort(rng.uniform(0.3, 2.5, size=rank))[::-1]
    matrix = (u * lam[None, :]) @ u.conj().T
    matrix = (matrix + matrix.conj().T) / 2.0
    if complex_field:
        matrix = matrix.astype(np.complex128)
    return psd_decompose(matrix)


def random_vector(rng: np.random.Generator, n: int, complex_field: bool = False) -> np.ndarray:
    return gaussian(rng, (n,), complex_field)


def random_a_unit(rng: np.random.Generator, a: PsdOperator) -> np.ndarray:
    """Random A-unit vector, plus a random N(A) part where A is singular."""
    u = gaussian(rng, (a.rank,), a.is_complex)
    u /= np.linalg.norm(u)
    x = a.from_coords(u)
    if a.null_dim:
        x = x + null_basis(a) @ gaussian(rng, (a.null_dim,), a.is_complex)
    return x


def lift_operator(rng: np.random.Generator, a: PsdOperator, tilde: np.ndarray) -> np.ndarray:
    """Ambient A-bounded operator with the given range-coordinate matrix.

    Where A is singular, random blocks also move N(A) into itself and leak
    part of R(A) into N(A); neither affects any A-seminorm quantity.
    """
    t = a.lift(tilde)
    k = a.null_dim
    if k:
        nb = null_basis(a)
        t = t + nb @ gaussian(rng, (k, k), a.is_complex) @ nb.conj().T
        t = t + nb @ gaussian(rng, (k, a.rank), a.is_complex) @ a.u_plus.conj().T
    return t


def random_a_bounded(
    rng: np.random.Generator, a: PsdOperator, complex_field: bool | None = None
) -> np.ndarray:
    if complex_field is None:
        complex_field = a.is_complex
    tilde = gaussian(rng, (a.rank, a.rank), complex_field)
    return lift_operator(rng, a, tilde)


def random_a_isometry(
    rng: np.random.Generator, a: PsdOperator, scale: float | None = None
) -> np.ndarray:
    """Random A-isometry: every A-unit vector attains the norm."""
    if scale is None:
        scale = float(rng.uniform(0.5, 2.0))
    tilde = scale * random_orthonormal(rng, a.rank, a.is_complex)
    return lift_operator(rng, a, tilde)


def operator_with_multiplicity(rng: np.random.Generator, a: PsdOperator, multiplicity: int) -> np.ndarray:
    """A-bounded operator, in A's field, whose top singular value 1 has exact
    multiplicity; the others are drawn uniformly from [0.05, 0.65], a
    relative gap of at least 0.35 below it."""
    r = a.rank
    if not 1 <= multiplicity <= r:
        raise ValueError(f"multiplicity must lie in [1, {r}], got {multiplicity}")
    sig = np.empty(r)
    sig[:multiplicity] = 1.0
    if r > multiplicity:
        sig[multiplicity:] = np.sort(rng.uniform(0.05, 0.65, size=r - multiplicity))[::-1]
    left = random_orthonormal(rng, r, a.is_complex)
    right = random_orthonormal(rng, r, a.is_complex)
    tilde = (left * sig[None, :]) @ right.conj().T
    return lift_operator(rng, a, tilde)


def rank_one_operator(rng: np.random.Generator, a: PsdOperator) -> np.ndarray:
    """Rank-one A-bounded operator of A-norm 1: kills the orthocomplement of
    its attaining vector (the first left-symmetry witness case)."""
    r = a.rank
    u = gaussian(rng, (r,), a.is_complex)
    u /= np.linalg.norm(u)
    v = gaussian(rng, (r,), a.is_complex)
    v /= np.linalg.norm(v)
    return lift_operator(rng, a, np.outer(u, v.conj()))


def zero_a_norm_operator(rng: np.random.Generator, a: PsdOperator) -> np.ndarray:
    """Nonzero operator with ||T||_A = 0 (range inside N(A), null to null)."""
    k = a.null_dim
    if k == 0:
        return np.zeros_like(a.matrix)
    nb = null_basis(a)
    t = nb @ gaussian(rng, (k, a.dim), a.is_complex)
    return t


def shared_attainment_pair(
    rng: np.random.Generator, a: PsdOperator, multiplicity: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Two operators with identical attainment subspaces (M_A^T = M_A^S)."""
    r = a.rank
    m = min(multiplicity, r)
    right = random_orthonormal(rng, r, a.is_complex)
    mats = []
    for _ in range(2):
        sig = np.empty(r)
        sig[:m] = rng.uniform(1.0, 2.0)
        if r > m:
            sig[m:] = np.sort(rng.uniform(0.05, 0.6, size=r - m))[::-1] * sig[0]
        left = random_orthonormal(rng, r, a.is_complex)
        mats.append(lift_operator(rng, a, (left * sig[None, :]) @ right.conj().T))
    return mats[0], mats[1]


def eps_orthogonal_probe(
    rng: np.random.Generator, a: PsdOperator, t: np.ndarray, eps: float
) -> np.ndarray:
    """Random S satisfying S perp T by construction, in A's field.

    S is built with a single attaining direction x0 whose image makes an
    angle with T x0 that keeps |<S x0, T x0>_A| strictly below
    eps ||S||_A ||T||_A; the sufficiency direction of the single-vector
    criterion then certifies the relation. Requires dim R(A) >= 2.
    """
    r, complex_field = a.rank, a.is_complex
    if r < 2:
        raise ValueError("probe construction needs dim R(A) >= 2")
    op_t = bind_operator(a, t)
    x0 = gaussian(rng, (r,), complex_field)
    x0 /= np.linalg.norm(x0)
    image = op_t.tilde @ x0
    image_norm = float(np.linalg.norm(image))
    sigma = float(rng.uniform(0.5, 2.0))
    if image_norm <= 1e-12 * max(op_t.norm, 1.0):
        u = gaussian(rng, (r,), complex_field)
        u /= np.linalg.norm(u)
    else:
        direction = image / image_norm
        perp = np.linalg.qr(direction[:, None], mode="complete")[0][:, 1]
        # |<u, Tx0>| = |c| * image_norm <= eps * ||T||_A needs |c| <= eps
        c = eps * float(rng.uniform(-0.95, 0.95)) * op_t.norm / image_norm
        c = float(np.clip(c, -0.95, 0.95))
        u = c * direction + math.sqrt(1.0 - c**2) * perp
    rest = gaussian(rng, (r, r), complex_field)
    rest = (np.eye(r) - np.outer(u, u.conj())) @ rest @ (np.eye(r) - np.outer(x0, x0.conj()))
    spectral = float(np.linalg.norm(rest, 2))
    if spectral > 0.0:
        rest *= 0.7 * sigma / spectral
    tilde_s = sigma * np.outer(u, x0.conj()) + rest
    return lift_operator(rng, a, tilde_s)


def forced_inner_pair(
    rng: np.random.Generator, a: PsdOperator, value: complex | float
) -> tuple[np.ndarray, np.ndarray]:
    """Vectors (x, y) with <x, y>_A equal to the requested value exactly."""
    n = a.dim
    while True:
        x = random_vector(rng, n, a.is_complex)
        if norm_a(a, x) > 1e-6:
            break
    z = random_vector(rng, n, a.is_complex)
    y_perp = z - (inner_a(a, x, z) / norm_a(a, x) ** 2) * x
    y = y_perp + (np.conj(value) / norm_a(a, x) ** 2) * x
    return x, y
