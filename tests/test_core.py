from __future__ import annotations

import numpy as np
import pytest

from semiortho import (
    DimensionMismatchError,
    NonFiniteError,
    NotHermitianError,
    NotPositiveError,
    Tolerances,
    hermitian_eig,
    norm_a,
    null_basis,
    psd_decompose,
    sqrt_psd,
)
from semiortho.core import _CHOLESKY_MIN_DIM, HERMITIAN_TOL, _hermitian_part, _lower_inverse
from semiortho.sampling import gaussian, random_hermitian, random_orthonormal, random_psd


def test_hermitian_eig_diagonal():
    w, v = hermitian_eig(np.diag([2.0, 1.0]))
    assert np.allclose(w, [2.0, 1.0])
    # eigenvectors are signed permutation columns of the identity
    assert np.allclose(np.abs(v), np.eye(2))

    w, v = hermitian_eig(np.diag([1.0, 2.0]))
    assert np.allclose(w, [2.0, 1.0])
    assert np.allclose(np.abs(v), [[0.0, 1.0], [1.0, 0.0]])


def test_hermitian_eig_symmetry_forced():
    w, v = hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(w, [1.0, -1.0])
    expected_plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    expected_minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
    assert min(np.linalg.norm(v[:, 0] - expected_plus), np.linalg.norm(v[:, 0] + expected_plus)) < 1e-12
    assert min(np.linalg.norm(v[:, 1] - expected_minus), np.linalg.norm(v[:, 1] + expected_minus)) < 1e-12


def test_hermitian_eig_roundtrip_random(rng):
    for complex_field in (False, True):
        h = random_hermitian(rng, 6, complex_field)
        w, v = hermitian_eig(h)
        assert np.all(np.diff(w) <= 1e-12)
        assert np.max(np.abs(h - (v * w[None, :]) @ v.conj().T)) <= 1e-9 * (1 + np.max(np.abs(w)))
        assert np.max(np.abs(v.conj().T @ v - np.eye(6))) <= 1e-9


def test_hermitian_eig_rejects_bad_input():
    with pytest.raises(DimensionMismatchError):
        hermitian_eig(np.ones((2, 3)))
    with pytest.raises(NotHermitianError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DimensionMismatchError):  # square, but not the size of A
        psd_decompose(np.eye(2)).check_matrix(np.eye(3))


@pytest.mark.parametrize("factor, accepted", [(0.5, True), (2.0, False)])
def test_hermitian_tol_boundary(factor, accepted):
    """An asymmetry of half HERMITIAN_TOL times the largest entry is taken
    for rounding and symmetrized; twice it raises."""
    m = np.array([[2.0, 0.0], [2.0 * factor * HERMITIAN_TOL, 1.0]])
    if accepted:
        assert np.array_equal(psd_decompose(m).matrix, (m + m.T) / 2.0)
    else:
        with pytest.raises(NotHermitianError):
            psd_decompose(m)


@pytest.mark.parametrize("scale", [1.0, 1e-12, 1e-300])
def test_hermitian_tol_is_relative_at_every_scale(scale):
    """HERMITIAN_TOL is relative to the largest entry, however small the
    entries are: an asymmetry of half of it is rejected, not symmetrized,
    and the symmetric part is accepted as it is."""
    m = scale * np.array([[2.0, 0.0], [1.0, 2.0]])
    with pytest.raises(NotHermitianError):
        psd_decompose(m)
    with pytest.raises(NotHermitianError):
        hermitian_eig(m)
    sym = (m + m.T) / 2.0
    a = psd_decompose(sym)
    assert a.rank == 2 and np.array_equal(a.matrix, sym)
    assert np.array_equal(hermitian_eig(sym)[0], a.eigenvalues)


def test_psd_decompose_reference_diagonal():
    a = psd_decompose(np.diag([1.0, 2.0]))
    assert a.rank == 2
    assert np.allclose(a.projector, np.eye(2))
    assert null_basis(a).shape == (2, 0)


def test_psd_decompose_rank_deficient():
    a = psd_decompose(np.diag([1.0, 0.0]))
    assert a.rank == 1
    assert np.allclose(a.projector, np.diag([1.0, 0.0]))
    nb = null_basis(a)
    assert nb.shape == (2, 1)
    assert np.allclose(np.abs(nb[:, 0]), [0.0, 1.0])
    # a zero A, and an empty one, have no entry to scale the Hermitian check
    assert psd_decompose(np.zeros((2, 2))).rank == 0
    assert psd_decompose(np.zeros((0, 0))).rank == 0


def test_psd_decompose_rejects_indefinite():
    with pytest.raises(NotPositiveError):
        psd_decompose(np.diag([1.0, -0.5]))


def test_sqrt_psd_diagonal_and_identity():
    assert np.allclose(sqrt_psd(psd_decompose(np.diag([4.0, 9.0]))), np.diag([2.0, 3.0]))
    assert np.allclose(sqrt_psd(psd_decompose(np.eye(3))), np.eye(3))


def test_sqrt_psd_roundtrip_random(rng):
    a = random_psd(rng, 6, rank=4, complex_field=True)
    b = sqrt_psd(a)
    assert np.max(np.abs(b @ b - a.matrix)) <= 1e-9 * (1 + a.lam_max)
    assert np.max(np.abs(b - b.conj().T)) <= 1e-12


def test_null_basis_spans_kernel(rng):
    a = psd_decompose(np.diag([1.0, 0.0, 0.0]))
    nb = null_basis(a)
    assert nb.shape == (3, 2)
    # spans e2, e3 up to rotation
    proj = nb @ nb.T
    assert np.allclose(proj, np.diag([0.0, 1.0, 1.0]))

    rdef = random_psd(rng, 6, rank=3)
    for v in null_basis(rdef).T:
        assert np.linalg.norm(rdef.matrix @ v) <= rdef.tol.rank_tol * rdef.lam_max * 10


def test_projection_commutes_with_a(rng):
    a = random_psd(rng, 5, rank=3)
    p = a.projector
    scale = 1e-10 * (1 + a.lam_max)
    assert np.max(np.abs(p @ p - p)) <= scale
    assert np.max(np.abs(p - p.conj().T)) <= scale
    assert np.max(np.abs(p @ a.matrix - a.matrix)) <= scale
    assert np.max(np.abs(a.matrix @ p - a.matrix)) <= scale


def test_coordinate_isometry(rng):
    a = random_psd(rng, 6, rank=4, complex_field=True)
    u = gaussian(rng, (4,), True)
    x = a.from_coords(u)
    assert abs(norm_a(a, x) - np.linalg.norm(u)) <= 1e-10 * (1 + np.linalg.norm(u))


def _explicit_maps(a):
    """W and W- as explicit n x r matrices: W = cholesky(A) and
    W- = inv(W)^-H for a full-rank A at n >= the crossover, else
    W = U+ diag(sqrt(lam+)) and W- = U+ diag(1/sqrt(lam+)) from the spectral
    factorization."""
    if a.rank == a.dim >= _CHOLESKY_MIN_DIM:
        w = np.linalg.cholesky(a.matrix)
        return w, np.linalg.inv(w).conj().T
    u = a.eigenvectors[:, : a.rank]
    root = np.sqrt(a.eigenvalues[: a.rank])
    return u * root[None, :], u / root[None, :]


def _relative(x, ref):
    return float(np.linalg.norm(x - ref)) / float(np.linalg.norm(ref))


@pytest.mark.parametrize("n", [4, 16, 64, 256])
@pytest.mark.parametrize("deficient", [False, True])
@pytest.mark.parametrize("complex_field", [False, True])
def test_coordinate_methods_match_explicit_maps(rng, n, deficient, complex_field):
    """from_coords is W- u, reduce is W* T W-, and lift is (W- L)(W R)^H,
    or W- L W* without R, each within 1e-13 relative of the explicit maps;
    ||from_coords(u)||_A = ||u|| and lift(reduce(T)) = P T P on either path."""
    a = random_psd(rng, n, rank=n - n // 4 if deficient else n, complex_field=complex_field)
    w, w_inv = _explicit_maps(a)
    r, k = a.rank, 3
    u = gaussian(rng, (r,), complex_field)
    block = gaussian(rng, (r, k), complex_field)
    t = gaussian(rng, (n, n), complex_field)
    tilde = gaussian(rng, (r, r), complex_field)
    left, right = gaussian(rng, (r, k), complex_field), gaussian(rng, (r, k), complex_field)
    assert a.from_coords(u).shape == (n,)
    assert _relative(a.from_coords(u), w_inv @ u) <= 1e-13
    assert _relative(a.from_coords(block), w_inv @ block) <= 1e-13
    assert _relative(a.reduce(t), w.conj().T @ t @ w_inv) <= 1e-13
    assert _relative(a.lift(tilde), w_inv @ tilde @ w.conj().T) <= 1e-13
    assert _relative(a.lift(left, right), (w_inv @ left) @ (w @ right).conj().T) <= 1e-13
    assert abs(norm_a(a, a.from_coords(u)) - np.linalg.norm(u)) <= 1e-13 * np.linalg.norm(u)
    p = a.projector
    assert _relative(a.lift(a.reduce(t)), p @ t @ p) <= 1e-13


def test_positivity_quadratic_form(rng):
    a = random_psd(rng, 6, rank=4)
    for _ in range(50):
        x = rng.standard_normal(6)
        quad = float(x @ (a.matrix @ x))
        assert quad >= -1e-10 * a.lam_max * float(x @ x)


def test_clipping_is_conservative_and_monotone():
    m = np.diag([1.0, 5e-11, -5e-11])
    a = psd_decompose(m)  # default rank_tol 1e-10 clips both tiny eigenvalues
    assert a.rank == 1
    assert np.all(a.eigenvalues[1:] == 0.0)

    tight = psd_decompose(np.diag([1.0, 5e-11]), Tolerances(rank_tol=1e-12))
    assert tight.rank == 2  # rank is monotone: smaller tolerance keeps more


def test_tolerances_validation():
    for bad in (-1.0, float("inf")):
        with pytest.raises(ValueError):
            Tolerances(rank_tol=bad)


# ----------------------------- Cholesky path ----------------------------------


def _spectral_matrix(rng, lam, complex_field):
    """U diag(lam) U* for a random unitary U, exactly Hermitian."""
    u = random_orthonormal(rng, lam.size, complex_field)
    m = (u * lam[None, :]) @ u.conj().T
    return (m + m.conj().T) / 2.0


def _eigh_rank(matrix, rank_tol):
    """The rank that a fresh eigh with the clipping rule gives."""
    w = hermitian_eig(matrix)[0]
    return int(np.count_nonzero(w > rank_tol * max(float(w[0]), 0.0)))


# lambda_min / lambda_max for each case; None: rank n - n/4
RANK_CASES = {"full": 0.3 / 2.5, "deficient": None, "above_clip": 1e-9, "below_clip": 1e-11,
              "negative_in_band": -1e-11}


@pytest.mark.parametrize("n", [48, 64, 256])
@pytest.mark.parametrize("complex_field", [False, True])
@pytest.mark.parametrize("case", RANK_CASES)
def test_cholesky_path_rank_matches_eigh(rng, eigh_calls, n, complex_field, case):
    """Either path gives the rank that eigh with the clipping rule gives
    (rank_tol = 1e-10); a Cholesky factor is kept only at full rank, and
    its lazily computed spectrum, projector, square root and null basis
    match eigh's."""
    lam = np.sort(rng.uniform(0.3, 2.5, n))[::-1]
    lam[0] = 2.5
    if RANK_CASES[case] is None:
        lam[n - n // 4:] = 0.0
    else:
        lam[-1] = RANK_CASES[case] * lam[0]
    matrix = _spectral_matrix(rng, lam, complex_field)
    rank = _eigh_rank(matrix, 1e-10)
    eigh_calls.clear()
    a = psd_decompose(matrix)
    assert a.rank == rank
    assert len(eigh_calls) <= 1
    cholesky = not eigh_calls
    assert cholesky == (case == "full") or case == "above_clip"
    if not cholesky:
        return
    assert a.rank == n and a.null_dim == 0
    assert null_basis(a).shape == (n, 0) and null_basis(a).dtype == a.matrix.dtype
    assert eigh_calls == []
    w, v = hermitian_eig(matrix)
    assert 0.0 < a.lam_max <= w[0] * (1.0 + 1e-14)
    assert np.max(np.abs(a.eigenvalues - w)) <= 1e-14 * w[0]
    assert len(eigh_calls) == 2  # one lazy eigh, one reference
    assert np.max(np.abs(a.projector - v @ v.conj().T)) <= 1e-13
    root = sqrt_psd(a)
    assert np.max(np.abs(root @ root - a.matrix)) <= 1e-13 * w[0]
    assert len(eigh_calls) == 2


@pytest.mark.parametrize("n", [48, 64, 256])
@pytest.mark.parametrize("complex_field", [False, True])
def test_cholesky_certificate_never_certifies_rounding(rng, eigh_calls, n, complex_field):
    """With rank_tol = 1e-16, an eigenvalue of 1e-14 lambda_max lies inside
    the Cholesky factor's rounding term: the factor cannot certify it, and
    eigh decides the rank."""
    lam = np.sort(rng.uniform(0.3, 2.5, n))[::-1]
    lam[-1] = 1e-14 * lam[0]
    matrix = _spectral_matrix(rng, lam, complex_field)
    tol = Tolerances(rank_tol=1e-16)
    eigh_calls.clear()
    a = psd_decompose(matrix, tol)
    assert len(eigh_calls) == 1
    assert a.rank == _eigh_rank(matrix, tol.rank_tol)


@pytest.mark.parametrize("n", [48, 64, 256])
@pytest.mark.parametrize("complex_field", [False, True])
def test_cholesky_path_rejects_bad_input_as_before(rng, n, complex_field):
    lam = rng.uniform(0.3, 2.5, n)
    matrix = _spectral_matrix(rng, lam, complex_field)
    skewed = matrix.copy()
    skewed[0, 1] += 1e-6
    with pytest.raises(NotHermitianError):
        psd_decompose(skewed)
    broken = matrix.copy()
    broken[1, 1] = np.nan
    with pytest.raises(NonFiniteError):
        psd_decompose(broken)
    lam[-1] = -0.1
    with pytest.raises(NotPositiveError):
        psd_decompose(_spectral_matrix(rng, lam, complex_field))


@pytest.mark.parametrize("n", [1, 31, 32, 33, 64, 255, 256])
@pytest.mark.parametrize("complex_field", [False, True])
def test_lower_inverse_blocked(rng, n, complex_field):
    """The blocked inverse is exactly lower triangular, with
    ||L X - I||_F within a few n u cond(L), across odd splits and leaves."""
    lam = 10.0 ** rng.uniform(-6.0, 0.0, n)
    low = np.linalg.cholesky(_spectral_matrix(rng, lam, complex_field))
    inv = _lower_inverse(low)
    assert inv.dtype == low.dtype
    assert not np.any(np.triu(inv, 1))
    unit = np.finfo(np.float64).eps / 2.0
    bound = 4.0 * n * unit * np.linalg.cond(low)
    assert np.linalg.norm(low @ inv - np.eye(n)) <= bound


def test_cholesky_path_extreme_scales(eigh_calls):
    """Where a norm in the certificate overflows or the inverse's does, the
    certificate fails quietly and eigh decides, as it does for every scale
    below the crossover."""
    for scale in (1e-310, 1e-300, 1.0, 1e150, 1e300):
        for dtype in (float, complex):
            eigh_calls.clear()
            a = psd_decompose(scale * np.eye(32, dtype=dtype))
            assert a.rank == 32
            assert (not eigh_calls) == (1e-300 <= scale <= 1e150)


@pytest.mark.parametrize("n", [2, 16, 24, 32])
@pytest.mark.parametrize("complex_field", [False, True])
def test_psd_decompose_near_overflow(eigh_calls, n, complex_field):
    """Entries above half the largest double are halved before they are
    added, which is exact, so A keeps its matrix and its rank under the
    clipping rule, with no overflow warning: diag(big, 1, ..., 1) has rank 1
    and big * I full rank, on the eigh path (n < 24) and where n >= 24
    tries a Cholesky factor first, whose certificate's norms overflow, so
    that eigh decides. The asymmetry test is made on the halves too: a skew
    matrix of such entries raises NotHermitianError, not an overflow."""
    dtype = complex if complex_field else float
    skew = np.triu(np.ones((n, n)), 1)
    with pytest.raises(NotHermitianError):
        psd_decompose(1e308 * (skew - skew.T).astype(dtype))
    for big in (1e308, 9e307):
        a = psd_decompose(np.diag([big] + [1.0] * (n - 1)).astype(dtype))
        assert a.rank == 1 and a.lam_max == big
        assert np.array_equal(a.eigenvalues, [big] + [0.0] * (n - 1))
        matrix = big * np.eye(n, dtype=dtype)
        eigh_calls.clear()
        a = psd_decompose(matrix)
        assert a.rank == n and a.lam_max == big and np.array_equal(a.matrix, matrix)
        assert len(eigh_calls) == 1


@pytest.mark.parametrize("n", [2, 16, 24, 32])
@pytest.mark.parametrize("complex_field", [False, True])
def test_psd_decompose_rejects_a_spectrum_beyond_range(n, complex_field):
    """Finite entries can still have an eigenvalue above the largest double:
    the all-1e308 matrix has n * 1e308. That raises NonFiniteError, not a
    rank of 0, on either side of the Cholesky crossover."""
    with pytest.raises(NonFiniteError, match="eigenvalue"):
        psd_decompose(np.full((n, n), 1e308, dtype=complex if complex_field else float))


@pytest.mark.parametrize("n", [0, 1, 4, 16, 64])
@pytest.mark.parametrize("complex_field", [False, True])
def test_hermitian_part_bits(rng, n, complex_field):
    """``_hermitian_part`` returns the bits of (m + m*) / 2, for a matrix
    within HERMITIAN_TOL of Hermitian and for the zero matrix, in either
    field and memory order."""
    m = random_hermitian(rng, n, complex_field) + 1e-12 * gaussian(rng, (n, n), complex_field)
    for matrix in (m, np.asfortranarray(m), np.zeros_like(m)):
        out = _hermitian_part(matrix)
        expected = (matrix + matrix.conj().T) / 2.0
        assert out.dtype == expected.dtype and out.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n, rank", [(4, 4), (4, 3), (64, 64), (64, 48)])
@pytest.mark.parametrize("complex_field", [False, True])
def test_coordinate_methods_make_no_eigensolve(rng, monkeypatch, n, rank, complex_field):
    """Once psd_decompose has returned, from_coords, reduce, lift and
    null_basis read the stored maps on either path and solve nothing."""
    a = random_psd(rng, n, rank=rank, complex_field=complex_field)
    w, w_inv = _explicit_maps(a)
    u = gaussian(rng, (rank, 2), complex_field)
    t = a.lift(gaussian(rng, (rank, rank), complex_field))

    def refuse(*args, **kwargs):
        raise AssertionError("eigensolve after psd_decompose")

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    assert _relative(a.from_coords(u), w_inv @ u) <= 1e-13
    assert _relative(a.reduce(t), w.conj().T @ t @ w_inv) <= 1e-13
    assert _relative(a.lift(u, u), (w_inv @ u) @ (w @ u).conj().T) <= 1e-13
    assert null_basis(a).shape == (n, n - rank)
