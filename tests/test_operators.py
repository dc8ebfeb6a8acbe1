from __future__ import annotations

import gc
import math
import sys
import threading
import weakref

import numpy as np
import pytest

from semiortho import (
    NonFiniteError,
    NotABoundedError,
    Tolerances,
    bind_operator,
    check_a_bounded,
    classify_left,
    classify_right,
    is_a_isometry,
    norm_a,
    norm_attainment_set,
    null_basis,
    operator_norm_a,
    psd_decompose,
    tilde_reduce,
)
from semiortho.core import CLUSTER_TOL
from semiortho.operators import (
    _DEPENDENT_LENGTH,
    _PARTIAL_MIN_RANK,
    _bind_product,
    _orthonormalize,
    _singular_system,
    _top_block,
)
from semiortho.sampling import (
    gaussian,
    operator_with_multiplicity,
    random_a_bounded,
    random_a_isometry,
    random_a_unit,
    random_orthonormal,
    random_psd,
    zero_a_norm_operator,
)

A_REF = psd_decompose(np.diag([1.0, 2.0]))
T_REF = np.diag([2.0, 1.0])
S_REF = np.diag([0.0, 1.0])


# ----------------------------- boundedness -----------------------------------


def test_definite_a_everything_bounded(rng):
    a = random_psd(rng, 4, rank=4)
    chk = check_a_bounded(a, rng.standard_normal((4, 4)))
    assert chk.ok and chk.residual == 0.0


def test_unbounded_shift():
    a = psd_decompose(np.diag([1.0, 0.0]))
    chk = check_a_bounded(a, np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert not chk.ok and chk.residual > 0.1
    with pytest.raises(NotABoundedError):
        operator_norm_a(a, np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_diagonal_preserving_is_bounded():
    a = psd_decompose(np.diag([1.0, 0.0]))
    assert check_a_bounded(a, np.diag([2.0, 3.0])).ok


def test_boundedness_check_is_scale_invariant(rng):
    scales = 10.0 ** np.arange(-7, 8)
    for trial in range(10):
        a = random_psd(rng, 5, rank=3, complex_field=bool(trial % 2))
        t = random_a_bounded(rng, a)
        unbounded = gaussian(rng, (5, 5), a.is_complex)
        assert not check_a_bounded(a, unbounded).ok
        for c in scales:
            assert check_a_bounded(a, c * t).ok, (trial, c)
            assert not check_a_bounded(a, c * unbounded).ok, (trial, c)


# ----------------------------- norms ------------------------------------------


def test_reference_norms():
    assert operator_norm_a(A_REF, T_REF) == pytest.approx(2.0, abs=1e-12)
    assert operator_norm_a(A_REF, S_REF) == pytest.approx(1.0, abs=1e-12)


def test_norm_monte_carlo_bound(rng):
    a = random_psd(rng, 5, rank=3)
    t = random_a_bounded(rng, a)
    norm = operator_norm_a(a, t)
    values = []
    for _ in range(100_000 // 50):  # batches of 50 below
        coords = gaussian(rng, (a.rank, 50))
        coords /= np.linalg.norm(coords, axis=0)[None, :]
        xs = a.from_coords(coords)
        imgs = a.matrix @ (t @ xs)
        vals = np.sqrt(np.clip(np.real(np.einsum("ik,ik->k", (t @ xs).conj(), imgs)), 0, None))
        values.append(vals)
    values = np.concatenate(values)
    assert float(np.max(values)) <= norm + 1e-7
    assert float(np.max(values)) >= norm - 1e-3 * (1 + norm)


# ----------------------------- attainment -------------------------------------


def test_reference_attainment_sets():
    att_t = norm_attainment_set(A_REF, T_REF)
    assert att_t.multiplicity == 1
    v = att_t.attain_basis[:, 0]
    assert min(np.linalg.norm(v - [1, 0]), np.linalg.norm(v + [1, 0])) <= 1e-9

    att_s = norm_attainment_set(A_REF, S_REF)
    assert att_s.multiplicity == 1
    w = att_s.attain_basis[:, 0]
    target = np.array([0.0, 1.0 / math.sqrt(2.0)])
    assert min(np.linalg.norm(w - target), np.linalg.norm(w + target)) <= 1e-9


def test_scaled_identity_attains_everywhere(rng):
    a = random_psd(rng, 4, rank=4)
    att = norm_attainment_set(a, 3.0 * np.eye(4))
    assert att.multiplicity == 4
    assert att.norm == pytest.approx(3.0, abs=1e-10)


def test_attainment_basis_properties(rng):
    a = random_psd(rng, 6, rank=4)
    t = random_a_bounded(rng, a)
    att = norm_attainment_set(a, t)
    p = a.projector
    for v in att.attain_basis.T:
        assert np.linalg.norm(v - p @ v) <= 1e-9
        assert abs(norm_a(a, v) - 1.0) <= 1e-8
        assert abs(norm_a(a, t @ v) - att.norm) <= 1e-8 * (1 + att.norm)


def test_zero_operator_attains_everywhere(rng):
    a = random_psd(rng, 5, rank=3)
    att = norm_attainment_set(a, zero_a_norm_operator(rng, a))
    assert att.norm == pytest.approx(0.0, abs=1e-12)
    assert att.multiplicity == a.rank


# ----------------------------- tilde reduction --------------------------------


def test_tilde_reference_values():
    # definite diagonal A keeps a diagonal T diagonal with the same entries
    tilde = tilde_reduce(A_REF, T_REF)
    assert np.allclose(np.sort(np.diag(tilde)), [1.0, 2.0])
    assert np.allclose(tilde - np.diag(np.diag(tilde)), 0.0)

    a = psd_decompose(np.diag([1.0, 0.0]))
    assert np.allclose(tilde_reduce(a, np.diag([2.0, 3.0])), [[2.0]])


def test_tilde_norm_and_linearity(rng):
    a = random_psd(rng, 6, rank=4, complex_field=True)
    t = random_a_bounded(rng, a)
    s = random_a_bounded(rng, a)
    lam = complex(rng.standard_normal(), rng.standard_normal())
    tilde_t = tilde_reduce(a, t)
    assert operator_norm_a(a, t) == pytest.approx(np.linalg.norm(tilde_t, 2), abs=1e-9)
    assert np.max(np.abs(tilde_reduce(a, t + s) - tilde_t - tilde_reduce(a, s))) <= 1e-10 * (
        1 + np.max(np.abs(tilde_t))
    )
    assert np.max(np.abs(tilde_reduce(a, lam * t) - lam * tilde_t)) <= 1e-10 * (
        1 + abs(lam) * np.max(np.abs(tilde_t))
    )


def test_null_space_absorption(rng):
    a = random_psd(rng, 6, rank=3)
    t = random_a_bounded(rng, a)
    u = null_basis(a) @ gaussian(rng, (3,))
    v = a.from_coords(gaussian(rng, (3,)))
    assert abs(norm_a(a, t @ (u + v)) - norm_a(a, t @ v)) <= 1e-9 * (1 + norm_a(a, t @ v))


# ----------------------------- isometry ---------------------------------------


def test_identity_is_isometry(rng):
    for _ in range(3):
        a = random_psd(rng, 4, rank=int(rng.integers(1, 5)))
        assert is_a_isometry(a, np.eye(4)).ok


def test_reference_t_not_isometry():
    chk = is_a_isometry(A_REF, T_REF)
    assert not chk.ok
    assert chk.deviation == pytest.approx(0.75, abs=1e-12)  # (4 - 1) / 4


def test_orthogonal_matrix_is_isometry(rng):
    eye = psd_decompose(np.eye(5))
    q = random_orthonormal(rng, 5)
    assert is_a_isometry(eye, q).ok


def test_random_a_isometry_generator(rng):
    a = random_psd(rng, 5, rank=3)
    t = random_a_isometry(rng, a, scale=1.7)
    chk = is_a_isometry(a, t)
    assert chk.ok
    assert operator_norm_a(a, t) == pytest.approx(1.7, abs=1e-9)
    # a generic bounded operator is not an isometry
    assert not is_a_isometry(a, random_a_bounded(rng, a)).ok


def test_zero_operator_is_isometry_of_norm_zero(rng):
    a = random_psd(rng, 4, rank=2)
    z = zero_a_norm_operator(rng, a)
    chk = is_a_isometry(a, z)
    assert chk.ok and chk.deviation == 0.0


def test_isometry_is_the_attainment_cluster():
    """sigma_min / sigma_max = 1 - 8e-9 lies inside the cluster width 1e-8,
    so the cluster fills R(A) and T is an isometry; 1 - 3e-8 lies outside.
    The deviation reports (sigma_max^2 - sigma_min^2) / sigma_max^2."""
    eye = psd_decompose(np.eye(3))
    band = np.diag([1.0, 1.0, 1.0 - 8e-9])
    chk = is_a_isometry(eye, band)
    assert chk.ok and chk.deviation == pytest.approx(1.6e-8, rel=1e-6)
    assert norm_attainment_set(eye, band).multiplicity == 3
    outside = np.diag([1.0, 1.0, 1.0 - 3e-8])
    assert not is_a_isometry(eye, outside).ok
    assert norm_attainment_set(eye, outside).multiplicity == 2


def test_zero_norm_attainment_coords_are_identity(rng):
    a = random_psd(rng, 5, rank=3)
    op = bind_operator(a, zero_a_norm_operator(rng, a))
    assert op.zero_norm
    assert np.array_equal(op.top_coords, np.eye(3))
    assert not op.top_coords.flags.writeable


@pytest.mark.parametrize("rho", [1e-8, 1e-9, 5e-10])
def test_zero_norm_decided_from_range_image(rho):
    """A with a wide kept spectrum (1, 0.7, 0.4, rho) and two null directions:
    T~ = (W* T) W- magnifies the rounding of W* T by about 1 / sqrt(rho), so a
    test on sigma_max(T~) against ||T||_F missed 41, 140 and 163 of these 200
    zero-A-norm T at rho = 1e-8, 1e-9 and 5e-10. The test on W* T misses none,
    and a random A-bounded T on the same A is never taken for zero."""
    rng = np.random.default_rng(5)
    misses = 0
    for _ in range(200):
        q = random_orthonormal(rng, 6)
        a = psd_decompose(q @ np.diag([1.0, 0.7, 0.4, rho, 0.0, 0.0]) @ q.T)
        assert a.rank == 4
        misses += not bind_operator(a, zero_a_norm_operator(rng, a)).zero_norm
    assert misses == 0
    for _ in range(20):
        q = random_orthonormal(rng, 6)
        a = psd_decompose(q @ np.diag([1.0, 0.7, 0.4, rho, 0.0, 0.0]) @ q.T)
        t = random_a_bounded(rng, a)
        for scale in (1e-30, 1.0, 1e30):
            assert not bind_operator(psd_decompose(a.matrix * scale), t / scale).zero_norm


@pytest.mark.parametrize("complex_field", [False, True])
def test_bind_keeps_its_gram_eigensystem(rng, complex_field):
    """Below the partial rank a bind keeps the one eigh it made of T~* T~,
    read-only and bit-identical to a fresh one; above it keeps none where
    inverse iteration certifies the top cluster."""
    for n, kept in ((6, True), (64, False)):
        a = random_psd(rng, n, complex_field=complex_field)
        op = bind_operator(a, random_a_bounded(rng, a))
        if not kept:
            assert op.gram_eigh is None
            continue
        w, v = op.gram_eigh
        fresh_w, fresh_v = np.linalg.eigh(op.tilde.conj().T @ op.tilde)
        assert np.array_equal(w, fresh_w) and np.array_equal(v, fresh_v)
        assert not (w.flags.writeable or v.flags.writeable)
        assert np.array_equal(op.top_coords[:, 0], v[:, -1])


# ----------------------------- sup form (statistical) --------------------------


def test_sup_form_matches_norm(rng):
    a = random_psd(rng, 5, rank=4)
    t = random_a_bounded(rng, a)
    op = bind_operator(a, t)
    best = 0.0
    for _ in range(2000):
        x = random_a_unit(rng, a)
        y = random_a_unit(rng, a)
        val = abs(np.vdot(y, a.matrix @ (t @ x)))
        assert val <= op.norm + 1e-7
        best = max(best, val)
    # the sup is approached once y aligns with the image of an attaining x
    v = norm_attainment_set(a, t).attain_basis[:, 0]
    img = t @ v
    aligned = abs(np.vdot(img / norm_a(a, img), a.matrix @ img))
    assert aligned == pytest.approx(op.norm, rel=1e-9)


def test_bind_bound_operator_returns_it(rng):
    a = random_psd(rng, 5, rank=3, complex_field=True)
    op = bind_operator(a, random_a_bounded(rng, a))
    assert bind_operator(a, op) is op
    # another decomposition of the same A binds the matrix afresh
    other = psd_decompose(a.matrix)
    rebound = bind_operator(other, op)
    assert rebound.psd is other and rebound.norm == pytest.approx(op.norm, rel=1e-12)


def test_bound_singular_system(rng):
    a = random_psd(rng, 6, rank=4)
    op = bind_operator(a, random_a_bounded(rng, a))
    assert np.allclose(op.sigma, np.linalg.svd(op.tilde, compute_uv=False), atol=1e-12)
    assert op.norm == op.sigma[0] and op.top_coords.shape == (4, 1)
    top = op.top_coords[:, 0]
    assert np.linalg.norm(op.tilde @ top) == pytest.approx(op.norm, rel=1e-12)


# ----------------------------- bit-pinned helpers -------------------------------


def _same_bits(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def _reference_system(left, right=None):
    """The singular system of ``_singular_system`` (zero_image False), by
    the expressions it used before it was trimmed for call overhead."""
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
    m = int(np.count_nonzero(sigma >= norm * (1.0 - CLUSTER_TOL)))
    tilde = left if right is None else left @ right.conj().T
    if norm == 0.0 or m == sigma.size:
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
    return {"tilde": tilde, "norm": norm, "sigma": sigma, "top_coords": top,
            "zero_norm": norm == 0.0, "gram_eigh": gram_eigh}


def _assert_same_system(fields, expected):
    assert fields["norm"] == expected["norm"] and fields["zero_norm"] == expected["zero_norm"]
    for key in ("tilde", "sigma", "top_coords"):
        assert _same_bits(fields[key], expected[key]), key
    assert (fields["gram_eigh"] is None) == (expected["gram_eigh"] is None)
    for got, want in zip(fields["gram_eigh"] or (), expected["gram_eigh"] or ()):
        assert _same_bits(got, want)


@pytest.mark.parametrize("r", [4, 16, 48, 64])
@pytest.mark.parametrize("complex_field", [False, True])
def test_singular_system_bits(rng, r, complex_field):
    """``_singular_system`` keeps the bits of its reference expressions on
    the full eigh path (r < 48) and the partial one, for a generic
    reduction, one with a top cluster of two, and the zero matrix, and for
    witness factors with k < r columns (padded singular values) and k = r."""
    for m in (1, 2):
        sigma = np.sort(rng.uniform(0.1, 1.0, r))[::-1]
        sigma[:m] = 2.0
        q1, q2 = random_orthonormal(rng, r, complex_field), random_orthonormal(rng, r, complex_field)
        left = (q1 * sigma) @ q2.conj().T
        _assert_same_system(_singular_system(left), _reference_system(left))
    zero = np.zeros((r, r), dtype=complex if complex_field else float)
    _assert_same_system(_singular_system(zero), _reference_system(zero))
    for k in (2, r):
        right = random_orthonormal(rng, r, complex_field)[:, :k]
        left = gaussian(rng, (r, k), complex_field)
        _assert_same_system(_singular_system(left, right), _reference_system(left, right))


@pytest.mark.parametrize("n, rank", [(4, 3), (16, 12), (64, 64)])
@pytest.mark.parametrize("complex_field", [False, True])
def test_bind_product_bits(rng, n, rank, complex_field):
    """``_bind_product`` lifts by ``PsdOperator.lift`` and binds the
    reference singular system, bit for bit, for k = 2 columns (k < r) and
    k = r."""
    a = random_psd(rng, n, rank=rank, complex_field=complex_field)
    for k in (2, rank):
        right = random_orthonormal(rng, rank, complex_field)[:, :k]
        left = gaussian(rng, (rank, k), complex_field)
        op = _bind_product(a, left, right)
        assert _same_bits(op.matrix, a.lift(left, right))
        _assert_same_system(vars(op), _reference_system(left, right))


# ----------------------------- partial singular system -------------------------

# Ranks at and above ``_PARTIAL_MIN_RANK``: the bind takes eigvalsh plus
# inverse iteration for the top cluster.
PARTIAL_CASES = [(r, c) for r in (64, 96, 128) for c in (False, True)]


def _full_eigh(op, m):
    """Squared singular values, descending, and the top m right-singular
    vectors of the bind's reduction, from one full eigh of its Gram matrix."""
    w, v = np.linalg.eigh(op.tilde.conj().T @ op.tilde)
    return w[::-1], v[:, ::-1][:, :m]


def _span_sine(basis, ref):
    """Largest principal-angle sine from span ``ref`` to span ``basis``."""
    return float(np.linalg.norm(ref - basis @ (basis.conj().T @ ref), 2))


@pytest.mark.parametrize("r, complex_field", PARTIAL_CASES)
def test_partial_bind_matches_full_eigh(rng, eigh_calls, r, complex_field):
    """A generic bind at r >= 64 makes no eigh; its squared singular values
    agree with a full eigh to rounding (1e-14 sigma_1^2: the square root
    magnifies the difference at small sigma_i) and its top vector spans the
    same line to 1e-12."""
    a = random_psd(rng, r, complex_field=complex_field)
    eigh_calls.clear()
    op = bind_operator(a, random_a_bounded(rng, a))
    assert eigh_calls == []
    assert op.top_coords.shape == (r, 1) and op.is_complex == complex_field
    w, top = _full_eigh(op, 1)
    assert abs(op.norm - math.sqrt(w[0])) <= 1e-14 * op.norm
    assert np.max(np.abs(op.sigma**2 - np.clip(w, 0.0, None))) <= 1e-14 * w[0]
    assert _span_sine(op.top_coords, top) <= 1e-12
    assert np.allclose(op.top_coords.conj().T @ op.top_coords, np.eye(1), atol=1e-14)


@pytest.mark.parametrize("r, complex_field", PARTIAL_CASES)
def test_partial_bind_multiple_cluster(rng, eigh_calls, r, complex_field):
    """A cluster of multiplicity 2 or 3 comes from inverse iteration too: the
    only eigh is the m x m Rayleigh-Ritz step, and the span agrees with a
    full eigh to 1e-12."""
    a = random_psd(rng, r, complex_field=complex_field)
    for m in (2, 3):
        t = operator_with_multiplicity(rng, a, m)
        eigh_calls.clear()
        op = bind_operator(a, t)
        assert set(eigh_calls) <= {(m, m)}
        assert op.top_coords.shape == (r, m)
        assert _span_sine(op.top_coords, _full_eigh(op, m)[1]) <= 1e-12
        assert np.allclose(op.top_coords.conj().T @ op.top_coords, np.eye(m), atol=1e-13)


@pytest.mark.parametrize("r, complex_field", PARTIAL_CASES)
def test_partial_bind_near_tie_falls_back(rng, eigh_calls, r, complex_field):
    """A top gap of 1e-6, outside CLUSTER_TOL but too narrow for the residual
    test, takes the full eigh, so the cluster matches it exactly."""
    a = psd_decompose(np.diag(rng.uniform(0.5, 2.0, r)).astype(complex if complex_field else float))
    for m in (1, 2):
        sig = np.sort(rng.uniform(0.1, 0.9, r))[::-1]
        sig[:m], sig[m] = 1.0, 1.0 - 1e-6
        left, right = random_orthonormal(rng, r, complex_field), random_orthonormal(rng, r, complex_field)
        eigh_calls.clear()
        op = bind_operator(a, a.lift((left * sig[None, :]) @ right.conj().T))
        assert (r, r) in eigh_calls
        assert op.top_coords.shape == (r, m)
        assert np.array_equal(op.top_coords, _full_eigh(op, m)[1])


def test_partial_bind_rejects_a_lower_eigenvector(eigh_calls):
    """The Gram column of largest diagonal can be an exact eigenvector below
    the top one, here e_1 with eigenvalue 1.5 against 2 along (e_2 + e_3):
    its residual is 0, but its Ritz value lies below the midpoint to the
    next eigenvalue, so the bind falls back to the full eigh."""
    a = psd_decompose(np.eye(64))
    t = np.zeros((64, 64))
    t[0, 0], t[1, 1], t[1, 2] = math.sqrt(1.5), 1.0, 1.0
    eigh_calls.clear()
    op = bind_operator(a, t)
    assert (64, 64) in eigh_calls
    assert op.norm == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert _span_sine(op.top_coords, _full_eigh(op, 1)[1]) <= 1e-12


@pytest.mark.parametrize("m, fault", [(1, "singular"), (1, "overflow"), (2, "dependent")])
def test_partial_bind_falls_back_when_iteration_fails(rng, eigh_calls, monkeypatch, m, fault):
    """Where the shifted solve raises, or returns a block with an infinite
    column or dependent columns, inverse iteration certifies nothing and the
    bind takes one full eigh, whose top span it keeps, and whose eigensystem
    it keeps as ``gram_eigh``, read-only and bit-identical to a fresh one."""
    a = random_psd(rng, 64)
    t = operator_with_multiplicity(rng, a, m)
    solve = np.linalg.solve

    def failing(lhs, rhs):
        if fault == "singular":
            raise np.linalg.LinAlgError("Singular matrix")
        if fault == "overflow":
            return np.full_like(rhs, np.inf)
        return np.repeat(solve(lhs, rhs)[:, :1], rhs.shape[1], axis=1)

    monkeypatch.setattr(np.linalg, "solve", failing)
    eigh_calls.clear()
    op = bind_operator(a, t)
    assert eigh_calls == [(64, 64)]
    assert op.top_coords.shape == (64, m)
    assert _span_sine(op.top_coords, _full_eigh(op, m)[1]) <= 1e-12
    w, v = op.gram_eigh
    fresh_w, fresh_v = np.linalg.eigh(op.tilde.conj().T @ op.tilde)
    assert np.array_equal(w, fresh_w) and np.array_equal(v, fresh_v)
    assert not (w.flags.writeable or v.flags.writeable)


@pytest.mark.parametrize("factor, kept", [(0.5, False), (2.0, True)])
def test_orthonormalize_dependence_boundary(factor, kept):
    """A column that keeps half of _DEPENDENT_LENGTH of its length once
    projected off the column before it is refused (the bind then takes a
    full eigh); one that keeps twice that is kept, orthonormal to the first."""
    delta = factor * _DEPENDENT_LENGTH
    q = _orthonormalize(np.array([[1.0, 1.0], [0.0, delta], [0.0, 0.0]]))
    assert (q is not None) is kept
    if kept:
        assert np.max(np.abs(q - np.eye(3)[:, :2])) <= 1e-15


@pytest.mark.parametrize("r, complex_field", PARTIAL_CASES)
def test_partial_bind_identity_without_solve(rng, eigh_calls, monkeypatch, r, complex_field):
    """An A-isometry and a zero-norm operator hold the r x r identity as
    attainment coordinates, decided from the eigenvalues with no solve."""
    a = random_psd(rng, r, complex_field=complex_field)
    solves, solve = [], np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *args: solves.append(args) or solve(*args))
    eigh_calls.clear()
    for t in (random_a_isometry(rng, a), zero_a_norm_operator(rng, a)):
        op = bind_operator(a, t)
        assert np.array_equal(op.top_coords, np.eye(r))
        assert op.top_coords.dtype == op.tilde.dtype
        assert is_a_isometry(a, op).ok
    assert eigh_calls == [] and solves == []


def test_attainment_and_isometry_one_eigensolve_each(rng, eigh_calls):
    for n in (4, 16):
        a = random_psd(rng, n, rank=n - 1)
        for t in (random_a_bounded(rng, a), random_a_isometry(rng, a), zero_a_norm_operator(rng, a)):
            eigh_calls.clear()
            norm_attainment_set(a, t)
            assert len(eigh_calls) == 1
            eigh_calls.clear()
            is_a_isometry(a, t)  # the same matrix again: no eigensolve
            assert len(eigh_calls) == 0


# ----------------------------- bind memo ---------------------------------------


def test_repeated_matrix_bind_costs_no_eigensolve(rng, eigh_calls):
    a = random_psd(rng, 6, rank=4)
    t = random_a_bounded(rng, a)
    first = bind_operator(a, t)
    eigh_calls.clear()
    again = bind_operator(a, t.copy())
    assert eigh_calls == []
    assert again is not first and again.psd is a
    assert again.norm == first.norm
    assert np.array_equal(again.sigma, first.sigma)
    assert np.array_equal(again.top_coords, first.top_coords)
    # the shared arrays cannot be edited behind the memo's back
    with pytest.raises(ValueError):
        again.tilde[0, 0] = 1.0


def test_symmetry_witnesses_bind_outside_the_memo(rng):
    """A symmetry report on T and the norm calls on it remember T alone: the
    witnesses, bound from their factors, stay out of the memo, and their
    arrays are read-only like those of every bound operator."""
    a = random_psd(rng, 6, rank=5)
    t = random_a_bounded(rng, a)
    reports = classify_right(a, t, 0.3), classify_left(a, t, 0.3)
    norm_attainment_set(a, t)
    is_a_isometry(a, t)
    assert len(a._binds) == 1
    for report in reports:
        for array in (report.witness.tilde, report.witness.sigma, report.witness.top_coords):
            with pytest.raises(ValueError):
                array[0] = 1.0


def test_bind_after_in_place_edit_reduces_again(rng, eigh_calls):
    a = random_psd(rng, 5, rank=3)
    t = random_a_bounded(rng, a)
    norm = bind_operator(a, t).norm
    t *= 2.0
    eigh_calls.clear()
    assert bind_operator(a, t).norm == pytest.approx(2.0 * norm, rel=1e-12)
    assert len(eigh_calls) == 1


def test_bind_memo_keys_on_dtype(rng, eigh_calls):
    a = random_psd(rng, 5, rank=3)
    t = random_a_bounded(rng, a)
    bind_operator(a, t)
    eigh_calls.clear()
    op = bind_operator(a, t.astype(np.complex128))
    assert len(eigh_calls) == 1 and op.is_complex and np.iscomplexobj(op.tilde)
    assert not bind_operator(a, t).is_complex
    assert len(eigh_calls) == 1


def test_bind_memo_key_is_dtype_and_bytes(rng, eigh_calls):
    """The memo keys on the dtype and the C-order bytes of the matrix that
    ``check_matrix`` returns, so a hit compares no arrays: the same entries
    in Fortran order, as a non-contiguous view, or as float32 cast to
    float64 on the way in all hit and share the stored arrays. A matrix
    that differs only in the sign of a zero entry has other bytes, and
    misses."""
    a = random_psd(rng, 5)  # full rank: every T is A-bounded
    t = gaussian(rng, (5, 5)).astype(np.float32).astype(np.float64)
    t[0, 1] = 0.0
    first = bind_operator(a, t)
    eigh_calls.clear()
    wide = np.repeat(t, 2, axis=1)
    for same in (np.asfortranarray(t), wide[:, ::2], t.astype(np.float32)):
        assert bind_operator(a, same).tilde is first.tilde
    assert eigh_calls == []
    signed = t.copy()
    signed[0, 1] = -0.0
    assert bind_operator(a, signed).tilde is not first.tilde
    assert len(eigh_calls) == 1


def test_bind_memo_keeps_no_cycle(rng):
    gc.disable()
    try:
        a = random_psd(rng, 6, rank=4)
        t = random_a_bounded(rng, a)
        norm_attainment_set(a, t)
        is_a_isometry(a, t)
        bind_operator(a, random_a_bounded(rng, a))
        ref = weakref.ref(a)
        del a
        assert ref() is None
    finally:
        gc.enable()


def test_bind_memo_is_bounded(rng, eigh_calls):
    a = random_psd(rng, 4, rank=3)
    ts = [random_a_bounded(rng, a) for _ in range(50)]
    for t in ts:
        bind_operator(a, t)
    assert len(a._binds) <= 4
    eigh_calls.clear()
    bind_operator(a, ts[0])  # long evicted: bound afresh
    assert len(eigh_calls) == 1


def test_bind_memo_shared_by_threads(rng):
    """Threads binding to one decomposition always get the right norm."""
    a = random_psd(rng, 5, rank=4)
    ts = [random_a_bounded(rng, a) for _ in range(6)]
    norms = [operator_norm_a(psd_decompose(a.matrix), t) for t in ts]
    wrong, errors = [], []

    def work(k):
        try:
            for i in range(300):
                j = (k + i) % len(ts)
                if bind_operator(a, ts[j]).norm != norms[j]:
                    wrong.append(j)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert errors == [] and wrong == []
    assert len(a._binds) <= 4


def test_non_finite_input_rejected(rng):
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(NonFiniteError):
            psd_decompose(np.diag([1.0, bad, 2.0]))
        a = random_psd(rng, 3, rank=2)
        t = random_a_bounded(rng, a)
        t[0, 1] = bad
        for call in (bind_operator, tilde_reduce, check_a_bounded):
            with pytest.raises(NonFiniteError):
                call(a, t)
        with pytest.raises(NonFiniteError):  # no N(A) to expose it
            tilde_reduce(psd_decompose(np.eye(3)), t)
        with pytest.raises(NonFiniteError):
            norm_a(a, np.array([1.0, bad, 0.0]))
    with pytest.raises(ValueError):
        Tolerances(rank_tol=np.nan)


def test_identity_equality_and_hash(rng):
    """A decomposition and a bound operator each equal only themselves, and
    == never compares their arrays, so it never raises; both hash, so they
    can key a dict or a set. Two binds of one matrix are two objects."""
    a1, a2 = psd_decompose(np.eye(3)), psd_decompose(np.eye(3))
    assert a1 == a1 and a1 != a2
    t = random_a_bounded(rng, a1)
    op1, op2 = bind_operator(a1, t), bind_operator(a1, t)
    assert op1 == op1 and op1 != op2 and op1 != bind_operator(a2, t)
    assert len({a1, a2, op1, op2}) == 4 and {a1: op1}[a1] is op1
