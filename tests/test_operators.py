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
    is_a_isometry,
    norm_a,
    norm_attainment_set,
    null_basis,
    operator_norm_a,
    psd_decompose,
    tilde_reduce,
)
from semiortho.sampling import (
    gaussian,
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
        xs = a.w_inv_map @ coords
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


def test_kernel_shares_singular_values(rng):
    a = random_psd(rng, 5, rank=3, complex_field=True)
    t = random_a_bounded(rng, a)
    op = bind_operator(a, t)
    assert op.kernel.shape == (5, 3)
    kernel_sv = np.linalg.svd(op.kernel, compute_uv=False)
    tilde_sv = np.linalg.svd(op.tilde, compute_uv=False)
    assert np.allclose(kernel_sv, tilde_sv, atol=1e-9)
    assert op.norm == pytest.approx(kernel_sv[0], abs=1e-9)


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
