from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiortho import (
    ComplexFieldError,
    ConstructionTag,
    IsometryError,
    RankTooSmallError,
    SymmetryKind,
    ZeroANormError,
    bind_operator,
    classify_left,
    classify_right,
    is_a_isometry,
    left_parameters,
    left_witness,
    norm_attainment_set,
    null_basis,
    op_orth_direct,
    operator_norm_a,
    psd_decompose,
    right_witness,
)
from semiortho.sampling import (
    lift_operator,
    operator_with_multiplicity,
    random_a_bounded,
    random_a_isometry,
    random_orthonormal,
    random_psd,
    rank_one_operator,
    zero_a_norm_operator,
)

A_REF = psd_decompose(np.diag([1.0, 2.0]))
T_REF = np.diag([2.0, 1.0])


def _verify_right(a, t, u, eps) -> bool:
    return op_orth_direct(a, u, t, eps).holds and not op_orth_direct(a, t, u, eps).holds


def _verify_left(a, t, s, eps) -> bool:
    return op_orth_direct(a, t, s, eps).holds and not op_orth_direct(a, s, t, eps).holds


# ----------------------------- witness parameters -----------------------------


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.0, max_value=0.99, allow_nan=False))
def test_left_parameters_inequalities(eps):
    p = left_parameters(eps)
    assert p.a * p.eps1 > eps
    assert p.alpha_lo < 1.0
    assert abs(p.a**2 + p.b**2 - 1.0) < 1e-12
    assert p.b > 0.0
    assert 0.0 < p.t < 0.5
    assert p.alpha_lo - 1e-12 <= p.alpha <= p.alpha_hi + 1e-12
    assert p.alpha < 1.0


def test_left_parameters_at_zero_eps():
    # eps = 0, eps1 = 1/2, t = 1/4: a = (1 - 2t) sqrt(3)/2 = sqrt(3)/4 and the
    # alpha interval degenerates to its endpoint 1/sqrt(13)
    p = left_parameters(0.0)
    assert p.eps1 == pytest.approx(0.5)
    assert p.t == pytest.approx(0.25)
    assert p.a == pytest.approx(math.sqrt(3.0) / 4.0, abs=1e-15)
    assert p.alpha == pytest.approx(1.0 / math.sqrt(13.0), abs=1e-15)
    assert p.alpha_hi == pytest.approx(p.alpha_lo, abs=1e-15)
    # the mixing value vanishes exactly: exact orthogonality at eps = 0
    s1 = math.sqrt(1.0 - p.eps1**2)
    assert p.eps1 * p.a - s1 * p.alpha * p.b == pytest.approx(0.0, abs=1e-15)
    # and the reverse value stays strictly positive
    assert p.a * p.eps1 == pytest.approx(p.a / 2.0)


def test_left_parameters_spot_check():
    p = left_parameters(0.3)
    assert p.eps1 == pytest.approx(0.65)
    assert p.a * p.eps1 > 0.3
    assert (p.a * p.eps1 - 0.3) / (math.sqrt(1 - p.eps1**2) * p.b) < 1.0


def test_left_parameters_grid():
    for eps in np.linspace(0.0, 0.99, 100):
        p = left_parameters(float(eps))
        assert p.a * p.eps1 > eps
        assert p.alpha_lo < 1.0


# ----------------------------- right symmetry ---------------------------------


def test_identity_right_symmetric(rng):
    for _ in range(3):
        n = int(rng.integers(2, 6))
        a = random_psd(rng, n, rank=int(rng.integers(1, n + 1)))
        for eps in (0.0, 0.5):
            assert classify_right(a, np.eye(n), eps).kind is SymmetryKind.RIGHT_SYMMETRIC


def test_reference_not_right_symmetric():
    report = classify_right(A_REF, T_REF, 1.0 / 3.0)
    assert report.kind is SymmetryKind.NOT_RIGHT_SYMMETRIC
    assert report.witness is not None
    assert _verify_right(A_REF, T_REF, report.witness.matrix, 1.0 / 3.0)
    assert report.construction.tag is ConstructionTag.RIGHT_PROOF


def test_right_witness_reference_epsilon_sweep():
    for eps in (0.0, 1.0 / 3.0, 0.9):
        wc = right_witness(A_REF, T_REF, eps)
        assert _verify_right(A_REF, T_REF, wc.operator, eps)
        # witness kills N(A) (trivial here) and lives in coordinates
        assert wc.operator.shape == (2, 2)


def test_right_witness_errors(rng):
    with pytest.raises(IsometryError):
        right_witness(A_REF, np.eye(2), 0.3)
    a = random_psd(rng, 4, rank=2)
    with pytest.raises(ZeroANormError):
        right_witness(a, zero_a_norm_operator(rng, a), 0.3)
    ac = random_psd(rng, 3, rank=2, complex_field=True)
    with pytest.raises(ComplexFieldError):
        right_witness(ac, random_a_bounded(rng, ac), 0.3)


def test_right_witness_random_instances(rng):
    checked = 0
    while checked < 40:
        n = int(rng.integers(2, 7))
        rank = int(rng.integers(2, n + 1))
        a = random_psd(rng, n, rank=rank)
        t = random_a_bounded(rng, a)
        if is_a_isometry(a, t).ok:
            continue
        eps = (0.0, 0.1, 0.5, 0.9)[checked % 4]
        wc = right_witness(a, t, eps)
        assert _verify_right(a, t, wc.operator, eps)
        # witness maps N(A) to zero
        nb = null_basis(a)
        if nb.shape[1]:
            assert np.max(np.abs(wc.operator @ nb)) <= 1e-9
        checked += 1


def test_right_witness_multiplicity_above_one(rng):
    a = random_psd(rng, 5, rank=4)
    t = operator_with_multiplicity(rng, a, 2)
    wc = right_witness(a, t, 0.4)
    assert wc.attain_basis.shape[1] == 2
    assert _verify_right(a, t, wc.operator, 0.4)


def test_right_classification_probe_oracle(rng):
    # RightSymmetric exactly when no random probe breaks the implication
    for _ in range(10):
        n = int(rng.integers(2, 6))
        rank = int(rng.integers(2, n + 1))
        a = random_psd(rng, n, rank=rank)
        isometry = bool(rng.random() < 0.5)
        t = random_a_isometry(rng, a) if isometry else random_a_bounded(rng, a)
        if not isometry and is_a_isometry(a, t).ok:
            continue
        eps = 0.25
        report = classify_right(a, t, eps)
        if report.kind is SymmetryKind.NOT_RIGHT_SYMMETRIC:
            # the witness itself is a successful probe
            assert _verify_right(a, t, report.witness.matrix, eps)
        else:
            for _ in range(20):
                s = random_a_bounded(rng, a)
                if op_orth_direct(a, s, t, eps).holds:
                    assert op_orth_direct(a, t, s, eps).holds


def test_right_witness_scale_invariance(rng):
    a = random_psd(rng, 4, rank=3)
    t = random_a_bounded(rng, a)
    if is_a_isometry(a, t).ok:
        pytest.skip("degenerate draw")
    wc = right_witness(a, t, 0.3)
    for c in (0.2, 5.0):
        assert _verify_right(a, c * t, wc.operator, 0.3)


# ----------------------------- left symmetry ----------------------------------


def test_zero_norm_left_symmetric(rng):
    a = random_psd(rng, 4, rank=2)
    z = zero_a_norm_operator(rng, a)
    report = classify_left(a, z, 0.3)
    assert report.kind is SymmetryKind.LEFT_SYMMETRIC
    assert report.evidence <= 1e-10


def test_identity_not_left_symmetric():
    a = psd_decompose(np.eye(3))
    report = classify_left(a, np.eye(3), 0.2)
    assert report.kind is SymmetryKind.NOT_LEFT_SYMMETRIC
    assert _verify_left(a, np.eye(3), report.witness.matrix, 0.2)
    assert report.construction.tag is ConstructionTag.LEFT_MULTI_PAIR


def test_reference_not_left_symmetric():
    report = classify_left(A_REF, T_REF, 1.0 / 3.0)
    assert report.kind is SymmetryKind.NOT_LEFT_SYMMETRIC
    assert report.evidence == pytest.approx(2.0, abs=1e-12)
    assert _verify_left(A_REF, T_REF, report.witness.matrix, 1.0 / 3.0)


def test_left_witness_branches(rng):
    eps_cycle = (0.0, 0.1, 0.5, 0.9)
    makers = {
        ConstructionTag.LEFT_MULTI_PAIR: lambda a: operator_with_multiplicity(rng, a, 2),
        ConstructionTag.LEFT_CASE_I: lambda a: rank_one_operator(rng, a),
        ConstructionTag.LEFT_CASE_II: lambda a: operator_with_multiplicity(rng, a, 1),
    }
    count = 0
    for tag, make in makers.items():
        for k in range(8):
            n = int(rng.integers(2, 7))
            rank = int(rng.integers(2, n + 1))
            a = random_psd(rng, n, rank=rank)
            t = make(a)
            eps = eps_cycle[count % 4]
            count += 1
            wc = left_witness(a, t, eps)
            assert wc.tag is tag, (tag, wc.tag, rank)
            assert _verify_left(a, t, wc.operator, eps)


def test_left_witness_case_ii_orthogonality_is_automatic(rng):
    a = random_psd(rng, 5, rank=4)
    t = operator_with_multiplicity(rng, a, 1)
    wc = left_witness(a, t, 0.2)
    assert wc.tag is ConstructionTag.LEFT_CASE_II
    assert wc.params.beta > 0.0
    # w is the unmodified image direction and is orthogonal to the image of
    # the attaining vector because that vector is a top singular vector
    tilde_n = bind_operator(a, t).tilde / operator_norm_a(a, t)
    image_x = tilde_n @ wc.attain_basis[:, 0]
    assert abs(float(wc.w @ image_x)) <= 1e-8


def test_left_witness_forward_value_stays_inside_band(rng):
    for eps in (0.0, 0.3, 0.7):
        p = left_parameters(eps)
        s1 = math.sqrt(1.0 - p.eps1**2)
        value = p.eps1 * p.a - s1 * p.alpha * p.b
        assert abs(value) <= eps + 1e-12


def test_classify_right_rank_zero_rejected():
    a0 = psd_decompose(np.zeros((2, 2)))
    with pytest.raises(RankTooSmallError):
        classify_right(a0, np.eye(2), 0.3)


def test_left_witness_errors(rng):
    a1 = psd_decompose(np.diag([1.0, 0.0]))
    with pytest.raises(RankTooSmallError):
        left_witness(a1, np.diag([2.0, 0.0]), 0.3)
    with pytest.raises(RankTooSmallError):
        classify_left(a1, np.diag([2.0, 0.0]), 0.3)
    a = random_psd(rng, 4, rank=3)
    with pytest.raises(ZeroANormError):
        left_witness(a, np.zeros((4, 4)), 0.3)
    ac = random_psd(rng, 3, rank=2, complex_field=True)
    with pytest.raises(ComplexFieldError):
        classify_left(ac, random_a_bounded(rng, ac), 0.3)


def test_left_witness_scale_invariance(rng):
    a = random_psd(rng, 4, rank=3)
    t = operator_with_multiplicity(rng, a, 1)
    wc = left_witness(a, t, 0.4)
    for c in (0.1, 7.0):
        assert _verify_left(a, c * t, wc.operator, 0.4)


def test_left_witness_attains_at_z1(rng):
    # M_A^S = {+- z1}: the witness attains its norm exactly at z1
    a = random_psd(rng, 4, rank=3)
    t = rank_one_operator(rng, a)
    wc = left_witness(a, t, 0.25)
    p = wc.params
    x = wc.attain_basis[:, 0]
    partner = wc.extension_basis[:, 0]
    s1 = math.sqrt(1.0 - p.eps1**2)
    z1 = p.eps1 * x + s1 * partner
    img = wc.tilde @ z1
    assert np.linalg.norm(img) == pytest.approx(1.0, abs=1e-9)


def test_right_witness_near_tie_cluster(rng):
    # top two singular values 5e-9 to 1e-8 apart fall in one attainment
    # cluster; the images T x_i / sigma_i stay orthonormal and the witness holds
    for _ in range(60):
        a = random_psd(rng, 4)
        gap = 10.0 ** rng.uniform(math.log10(5e-9), -8.0)
        left, right = random_orthonormal(rng, 4), random_orthonormal(rng, 4)
        t = lift_operator(rng, a, (left * np.array([1.0, 1.0 - gap, 0.5, 0.2])) @ right.T)
        eps = float(rng.uniform(0.05, 0.9))
        report = classify_right(a, t, eps)
        assert report.construction.attain_basis.shape[1] == 2
        assert _verify_right(a, t, report.witness.matrix, eps)


def test_classifiers_bind_once(rng, eigh_calls):
    for n, rank in ((4, 4), (16, 12), (64, 64)):
        a = random_psd(rng, n, rank=rank)
        for t in (random_a_bounded(rng, a), operator_with_multiplicity(rng, a, 2),
                  rank_one_operator(rng, a)):
            eigh_calls.clear()
            assert classify_right(a, t, 0.3).witness is not None
            assert len(eigh_calls) <= 2  # T and the witness
            eigh_calls.clear()
            assert classify_left(a, t, 0.3).witness is not None
            assert len(eigh_calls) <= 2


def test_symmetry_calls_share_one_bind(rng, eigh_calls):
    """The four calls of a symmetry report on one matrix bind it once: one
    eigensolve for T and one for each witness."""
    a = random_psd(rng, 16, rank=12)
    t = random_a_bounded(rng, a)
    eigh_calls.clear()
    classify_right(a, t, 0.3)
    classify_left(a, t, 0.3)
    norm_attainment_set(a, t)
    is_a_isometry(a, t)
    assert len(eigh_calls) == 3
