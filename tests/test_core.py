from __future__ import annotations

import numpy as np
import pytest

from semiortho import (
    DimensionMismatchError,
    NotHermitianError,
    NotPositiveError,
    Tolerances,
    hermitian_eig,
    norm_a,
    null_basis,
    psd_decompose,
    sqrt_psd,
)
from semiortho.sampling import gaussian, random_hermitian, random_psd


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
    """W = U+ diag(sqrt(lam+)) and W- = U+ diag(1/sqrt(lam+)), as explicit
    n x r matrices built from the spectral factorization."""
    u = a.eigenvectors[:, : a.rank]
    root = np.sqrt(a.eigenvalues[: a.rank])
    return u * root[None, :], u / root[None, :]


def _relative(x, ref):
    return float(np.linalg.norm(x - ref)) / float(np.linalg.norm(ref))


@pytest.mark.parametrize("n", [4, 16, 64])
@pytest.mark.parametrize("deficient", [False, True])
@pytest.mark.parametrize("complex_field", [False, True])
def test_coordinate_methods_match_explicit_maps(rng, n, deficient, complex_field):
    """from_coords is W- u, reduce is W* T W-, and lift is (W- L)(W R)^H,
    or W- L W* without R, each within 1e-13 relative of the explicit maps."""
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
