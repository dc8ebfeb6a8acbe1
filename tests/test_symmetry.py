from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiortho import (
    ConstructionTag,
    IsometryError,
    RankTooSmallError,
    SymmetryKind,
    WitnessConstructionError,
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
from semiortho import operators, selftest, symmetry
from semiortho.core import CLUSTER_TOL
from semiortho.operators import _bind_product, _singular_system
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

from conftest import SCAN_POWERS

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
        assert _verify_right(A_REF, T_REF, wc.witness, eps)
        # witness kills N(A) (trivial here) and lives in coordinates
        assert wc.witness.matrix.shape == (2, 2)


def test_right_witness_errors(rng):
    with pytest.raises(IsometryError):
        right_witness(A_REF, np.eye(2), 0.3)
    a = random_psd(rng, 4, rank=2)
    with pytest.raises(ZeroANormError):
        right_witness(a, zero_a_norm_operator(rng, a), 0.3)


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
        assert _verify_right(a, t, wc.witness, eps)
        # witness maps N(A) to zero
        nb = null_basis(a)
        if nb.shape[1]:
            assert np.max(np.abs(wc.witness.matrix @ nb)) <= 1e-9
        checked += 1


def test_real_right_witness_turned_by_minus_one_stays_real():
    """T x_2 = -e_2 points against the unit w_0 = e_2 that ``_unit_orthogonal``
    picks, so the phase that makes <w_0, T x_2> >= 0 is -1: the witness stays
    float64, sends x_2 to -e_2 and verifies both ways."""
    a = psd_decompose(np.diag([1.0, 2.0]))
    t = np.diag([2.0, -1.0])
    op = bind_operator(a, t)
    ext = symmetry._unit_orthogonal(op.top_coords)
    w0 = symmetry._unit_orthogonal(op.tilde @ op.top_coords / op.norm)
    assert np.vdot(w0, op.tilde @ ext) < 0.0
    for eps in (0.0, 0.4, 0.9):
        wc = right_witness(a, t, eps)
        assert wc.witness.tilde.dtype == np.float64
        assert np.array_equal(wc.witness.tilde @ ext, -w0)
        assert _verify_right(a, t, wc.witness, eps)


@pytest.mark.parametrize("side", ["right", "left"])
def test_complex_witnesses_verify(rng, side):
    """Over C, generic, multiplicity-2 and rank-one operators on a range of
    dimension >= 3 (none an A-isometry) get a witness on either side that
    verifies both ways with the complex direct route."""
    makers = (
        random_a_bounded,
        lambda rng_, a_: operator_with_multiplicity(rng_, a_, 2),
        rank_one_operator,
    )
    tags = set()
    for k in range(15):
        n = int(rng.integers(3, 6))
        a = random_psd(rng, n, rank=int(rng.integers(3, n + 1)), complex_field=True)
        t = makers[k % 3](rng, a)
        eps = (0.0, 0.3, 0.7, 0.9)[k % 4]
        report = (classify_right if side == "right" else classify_left)(a, t, eps)
        assert report.kind is SymmetryKind(f"not_{side}_symmetric")
        assert report.witness.is_complex
        fwd, bwd = report.verify(a, t)
        assert fwd.holds and not bwd.holds, (k, eps, fwd.margin, bwd.margin)
        tags.add(report.construction.tag)
    expected = {ConstructionTag.RIGHT_PROOF} if side == "right" else {
        ConstructionTag.LEFT_MULTI_PAIR, ConstructionTag.LEFT_CASE_I, ConstructionTag.LEFT_CASE_II
    }
    assert tags == expected


def test_right_witness_multiplicity_above_one(rng):
    a = random_psd(rng, 5, rank=4)
    t = operator_with_multiplicity(rng, a, 2)
    wc = right_witness(a, t, 0.4)
    assert norm_attainment_set(a, t).multiplicity == 2
    assert _verify_right(a, t, wc.witness, 0.4)


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
        assert _verify_right(a, c * t, wc.witness, 0.3)


def test_right_classification_near_isometry():
    """One cluster decides: sigma_min / sigma_max = 1 - 8e-9 is within
    CLUSTER_TOL (1e-8) of 1, so T is right symmetric; 1 - 3e-8 is not, and its
    witness verifies."""
    eye = psd_decompose(np.eye(3))
    inside = classify_right(eye, np.diag([1.0, 1.0, 1.0 - 8e-9]), 0.3)
    assert inside.kind is SymmetryKind.RIGHT_SYMMETRIC and inside.witness is None
    t = np.diag([1.0, 1.0, 1.0 - 3e-8])
    outside = classify_right(eye, t, 0.3)
    assert outside.kind is SymmetryKind.NOT_RIGHT_SYMMETRIC
    fwd, bwd = outside.verify(eye, t)
    assert fwd.holds and not bwd.holds


@pytest.mark.parametrize("r", [4, 64])
def test_isometry_attainment_basis_is_identity_at_every_rank(rng, r):
    """A cluster that fills R(A) takes the identity as its coordinates on both
    sides of ``_PARTIAL_MIN_RANK``, and the multi-pair left witness built on
    that basis verifies both ways."""
    a = random_psd(rng, r)
    t = random_a_isometry(rng, a)
    assert np.array_equal(bind_operator(a, t).top_coords, np.eye(r))
    assert np.array_equal(norm_attainment_set(a, t).attain_coords, np.eye(r))
    report = classify_left(a, t, 0.3)
    assert report.construction.tag is ConstructionTag.LEFT_MULTI_PAIR
    fwd, rev = report.verify(a, t)
    assert fwd.holds and not rev.holds


def test_report_verify_orients_each_side(rng):
    """verify checks U perp T for a right witness U and T perp S for a left
    witness S, forward first; a symmetric report has nothing to verify."""
    a = random_psd(rng, 4, rank=3)
    t = random_a_bounded(rng, a)
    right = classify_right(a, t, 0.3)
    left = classify_left(a, t, 0.3)
    for report, (first, second) in ((right, (right.witness, t)), (left, (t, left.witness))):
        fwd, bwd = report.verify(a, t)
        assert fwd == op_orth_direct(a, first, second, 0.3)
        assert bwd == op_orth_direct(a, second, first, 0.3)
        assert fwd.holds and not bwd.holds
    with pytest.raises(ValueError):
        classify_right(a, np.eye(4), 0.3).verify(a, np.eye(4))


def test_left_suite_builds_each_witness_once(monkeypatch):
    """The sym_left_witness suite reads tag and witness from classify_left's
    report: one witness build per trial."""
    builds = []
    build = symmetry.left_witness

    def counted(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(symmetry, "left_witness", counted)
    monkeypatch.setattr(selftest, "left_witness", counted, raising=False)
    assert selftest.run_trials(selftest._suite_sym_left_witness, np.random.default_rng(5), 9) == []
    assert len(builds) == 9


# ----------------------------- left symmetry ----------------------------------


def test_zero_norm_left_symmetric(rng):
    a = random_psd(rng, 4, rank=2)
    z = zero_a_norm_operator(rng, a)
    report = classify_left(a, z, 0.3)
    assert report.kind is SymmetryKind.LEFT_SYMMETRIC
    assert report.evidence <= 1e-10


@pytest.mark.parametrize("beta", [10.0**-k for k in range(4, 13)] + [2e-9])
def test_left_witness_near_rank_one(beta):
    """T = U diag(1, beta, 0, 0) V^T on A = I: case II (beta above 1e-9)
    divides T x_1 by beta, which magnified the rounding of <T x, T x_1> to
    u / beta and made 41 of these 100 draws raise at beta = 1e-8 and 81 at
    2e-9. With the Tx component removed, every witness builds and verifies."""
    a = psd_decompose(np.eye(4))
    rng = np.random.default_rng(3)
    for _ in range(100):
        u, v = random_orthonormal(rng, 4), random_orthonormal(rng, 4)
        t = (u * np.array([1.0, beta, 0.0, 0.0])) @ v.T
        eps = float(rng.uniform(0.05, 0.9))
        report = classify_left(a, t, eps)
        assert report.construction.tag is (
            ConstructionTag.LEFT_CASE_II if beta > 1e-9 else ConstructionTag.LEFT_CASE_I
        )
        assert _verify_left(a, t, report.witness.matrix, eps)


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
            assert _verify_left(a, t, wc.witness, eps)


def test_left_witness_case_ii_orthogonality_is_automatic(rng):
    a = random_psd(rng, 5, rank=4)
    t = operator_with_multiplicity(rng, a, 1)
    # the builder's cross check |<w, Tx>| <= 1e-8 raises if w is not
    # orthogonal to the image of the attaining vector x; it passes because x
    # is a top singular vector
    wc = left_witness(a, t, 0.2)
    assert wc.tag is ConstructionTag.LEFT_CASE_II
    assert wc.params.beta > 0.0
    wit = wc.witness
    assert np.count_nonzero(wit.sigma > 1e-12 * wit.norm) <= 2
    # S z_1 = a Tx + b w with Tx a unit vector, so <S z_1, Tx> = a exactly
    # when w is orthogonal to Tx
    x = norm_attainment_set(a, t).attain_coords[:, 0]
    z1 = wit.top_coords[:, 0] * np.sign(wit.top_coords[:, 0] @ x)
    image_x = bind_operator(a, t).tilde @ x / operator_norm_a(a, t)
    assert abs(float((wit.tilde @ z1) @ image_x) - wc.params.a) <= 1e-8


def test_left_witness_forward_value_stays_inside_band(rng):
    for eps in (0.0, 0.3, 0.7):
        p = left_parameters(eps)
        s1 = math.sqrt(1.0 - p.eps1**2)
        value = p.eps1 * p.a - s1 * p.alpha * p.b
        assert abs(value) <= eps + 1e-12


def test_classify_right_rank_zero_is_right_symmetric():
    """With A = 0 every operator has A-norm 0 and is an A-isometry, so it is
    right symmetric, and left symmetric too."""
    a0 = psd_decompose(np.zeros((2, 2)))
    right = classify_right(a0, np.eye(2), 0.3)
    assert right.kind is SymmetryKind.RIGHT_SYMMETRIC and right.evidence == 0.0
    assert classify_left(a0, np.eye(2), 0.3).kind is SymmetryKind.LEFT_SYMMETRIC


@pytest.mark.parametrize("complex_field", [False, True])
def test_classify_left_rank_one_is_left_symmetric(rng, complex_field):
    """In a range of dimension 1, T~ = t and S~ = s are scalars, and for
    t, s != 0 the scalar lambda = -mu t / s gives
    g = |t|^2 mu (mu - 2 (1 - eps)) < 0 for 0 < mu < 2 (1 - eps). So T perp S
    fails both ways for every pair of nonzero A-norm, T perp S implies
    S perp T vacuously, and every T is left symmetric, with ||T||_A as the
    evidence."""
    for _ in range(20):
        a = random_psd(rng, 3, rank=1, complex_field=complex_field)
        t, s = random_a_bounded(rng, a), random_a_bounded(rng, a)
        report = classify_left(a, t, 0.3)
        assert report.kind is SymmetryKind.LEFT_SYMMETRIC and report.witness is None
        assert report.evidence == operator_norm_a(a, t) > 0.0
        for eps in selftest.EPS_POOL:
            assert not op_orth_direct(a, t, s, eps).holds
            assert not op_orth_direct(a, s, t, eps).holds


def test_left_witness_errors(rng):
    a1 = psd_decompose(np.diag([1.0, 0.0]))
    with pytest.raises(RankTooSmallError):
        left_witness(a1, np.diag([2.0, 0.0]), 0.3)
    a = random_psd(rng, 4, rank=3)
    with pytest.raises(ZeroANormError):
        left_witness(a, np.zeros((4, 4)), 0.3)


def test_left_witness_scale_invariance(rng):
    a = random_psd(rng, 4, rank=3)
    t = operator_with_multiplicity(rng, a, 1)
    wc = left_witness(a, t, 0.4)
    for c in (0.1, 7.0):
        assert _verify_left(a, c * t, wc.witness, 0.4)


def test_left_witness_attains_at_z1(rng):
    # M_A^S = {+- z1}: the witness attains its norm exactly at z1
    a = random_psd(rng, 4, rank=3)
    t = rank_one_operator(rng, a)
    wc = left_witness(a, t, 0.25)
    wit = wc.witness
    assert wit.top_coords.shape[1] == 1
    assert wit.norm == pytest.approx(1.0, abs=1e-9)
    # z_1 = eps1 x + sqrt(1 - eps1^2) x_1 with x_1 orthogonal to x
    z1 = wit.top_coords[:, 0]
    x = norm_attainment_set(a, t).attain_coords[:, 0]
    assert abs(float(z1 @ x)) == pytest.approx(wc.params.eps1, abs=1e-9)


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
        assert norm_attainment_set(a, t).multiplicity == 2
        assert _verify_right(a, t, report.witness.matrix, eps)


def test_classifiers_bind_once(rng, eigh_calls):
    for n, rank in ((4, 4), (16, 12), (64, 64)):
        a = random_psd(rng, n, rank=rank)
        for t in (random_a_bounded(rng, a), operator_with_multiplicity(rng, a, 2),
                  rank_one_operator(rng, a)):
            eigh_calls.clear()
            assert classify_right(a, t, 0.3).witness is not None
            assert len(eigh_calls) <= 1  # T's bind; the witness reads its factors
            eigh_calls.clear()
            assert classify_left(a, t, 0.3).witness is not None
            assert len(eigh_calls) == 0  # T's bind is a memo hit; so is the witness


@pytest.mark.parametrize("n", [4, 16, 64])
def test_classifiers_take_no_qr(rng, monkeypatch, n):
    """The witness builders find each vector orthogonal to a few given ones
    by projecting a coordinate vector, so a classification takes no QR; the
    report's witness is the construction's, not a second bind."""
    a = random_psd(rng, n)
    operators = (random_a_bounded(rng, a), operator_with_multiplicity(rng, a, 2),
                 rank_one_operator(rng, a))
    calls = []
    qr = np.linalg.qr

    def counting(*args, **kwargs):
        calls.append(np.shape(args[0] if args else kwargs["a"]))
        return qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting)
    for t in operators:
        for report in (classify_right(a, t, 0.3), classify_left(a, t, 0.3)):
            assert report.witness is not None
            assert report.witness is report.construction.witness
    assert calls == []


_PERMUTATION = np.array([[0.0, 0.0, 3.0], [1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])


@pytest.mark.parametrize(
    "a_diag, t, left_tag",
    [
        pytest.param([1.0] * 3, np.diag([2.0, 1.0, 0.5]), ConstructionTag.LEFT_CASE_II, id="distinct"),
        pytest.param([1.0] * 3, np.diag([2.0, 0.0, 0.0]), ConstructionTag.LEFT_CASE_I, id="rank_one"),
        pytest.param([1.0] * 3, np.diag([2.0, 2.0, 0.5]), ConstructionTag.LEFT_MULTI_PAIR, id="double"),
        pytest.param([1.0] * 4, np.diag([1.0, 1.0, 1.0, 0.0]), ConstructionTag.LEFT_MULTI_PAIR, id="kernel"),
        pytest.param([1.0, 2.0, 0.0], np.diag([3.0, 1.0, 5.0]), ConstructionTag.LEFT_CASE_II, id="deficient_a"),
        pytest.param([1.0] * 3, _PERMUTATION, ConstructionTag.LEFT_CASE_II, id="scaled_permutation"),
    ],
)
def test_witnesses_on_axis_aligned_operators(a_diag, t, left_tag):
    """Singular vectors along coordinate axes: the coordinate vector picked
    for a complement may lie in the span it must avoid, or have zero image."""
    a = psd_decompose(np.diag(a_diag))
    for eps in (0.0, 0.3, 0.9):
        right = classify_right(a, t, eps)
        assert right.construction.tag is ConstructionTag.RIGHT_PROOF
        assert _verify_right(a, t, right.witness, eps)
        left = classify_left(a, t, eps)
        assert left.construction.tag is left_tag
        assert _verify_left(a, t, left.witness, eps)


def test_symmetry_calls_share_one_bind(rng, eigh_calls):
    """The four calls of a symmetry report on one matrix bind it once: one
    r x r eigensolve for T, and none for either witness, whose singular
    system is read off its factors."""
    a = random_psd(rng, 16, rank=12)
    for t in (random_a_bounded(rng, a), rank_one_operator(rng, a),
              operator_with_multiplicity(rng, a, 3)):
        eigh_calls.clear()
        classify_right(a, t, 0.3)
        classify_left(a, t, 0.3)
        norm_attainment_set(a, t)
        is_a_isometry(a, t)
        assert eigh_calls == [(12, 12)]


def _principal_sine(q1: np.ndarray, q2: np.ndarray) -> float:
    """Largest principal-angle sine between the spans of two orthonormal bases."""
    return float(np.linalg.norm(q2 - q1 @ (q1.conj().T @ q2), 2))


@pytest.mark.parametrize("n", [4, 16, 64])
@pytest.mark.parametrize("deficient", [False, True])
def test_factored_witness_matches_fresh_bind(rng, n, deficient):
    """A witness bound from its factors equals a full bind of its matrix on a
    fresh decomposition, which has no memo to hit."""
    a = random_psd(rng, n, rank=n - max(1, n // 4) if deficient else n)
    tags = set()
    for t in (random_a_bounded(rng, a), operator_with_multiplicity(rng, a, 2),
              rank_one_operator(rng, a)):
        for report in (classify_right(a, t, 0.3), classify_left(a, t, 0.3)):
            tags.add(report.construction.tag)
            wit = report.witness
            assert wit is report.construction.witness
            fresh = bind_operator(psd_decompose(a.matrix), wit.matrix)
            assert fresh.psd is not a
            assert abs(wit.norm - fresh.norm) <= 1e-12 * fresh.norm
            assert np.max(np.abs(wit.sigma**2 - fresh.sigma**2)) <= 1e-12 * fresh.norm**2
            assert wit.top_coords.shape == fresh.top_coords.shape
            assert _principal_sine(fresh.top_coords, wit.top_coords) <= 1e-8
            scale = np.linalg.norm(wit.matrix)
            assert np.linalg.norm(wit.matrix - a.lift(wit.tilde)) <= 1e-12 * scale
            assert np.linalg.norm(wit.tilde - fresh.tilde) <= 1e-12 * np.linalg.norm(wit.tilde)
            assert np.linalg.norm(wit.matrix @ null_basis(a)) <= 1e-12 * scale
    assert tags == set(ConstructionTag)


def _recorded_binds(monkeypatch) -> list:
    """Record the factors (left, right, gram) of every witness bind."""
    binds = []

    def recording(a, left, right, gram=None):
        binds.append((left, right, gram))
        return _bind_product(a, left, right, gram)

    monkeypatch.setattr(symmetry, "_bind_product", recording)
    return binds


@pytest.mark.parametrize("n", [4, 16, 64])
@pytest.mark.parametrize("complex_field", [False, True])
def test_witness_reads_singular_system_off_its_factors(rng, monkeypatch, eigh_calls, n, complex_field):
    """The left factor of every witness of a generic, multiplicity-two or
    rank-one T has orthogonal columns: its bind makes no eigh, and its
    singular system agrees with the k x k eigensolve of ``_singular_system``
    within the bounds of a fresh bind; its reduction has the same bits."""
    binds = _recorded_binds(monkeypatch)
    a = random_psd(rng, n, complex_field=complex_field)
    for t in (random_a_bounded(rng, a), operator_with_multiplicity(rng, a, 2),
              rank_one_operator(rng, a)):
        op = bind_operator(a, t)
        eigh_calls.clear()
        binds.clear()
        witnesses = [classify_right(a, op, 0.3).witness, classify_left(a, op, 0.3).witness]
        assert eigh_calls == [] and len(binds) == 2
        for wit, (left, right, gram) in zip(witnesses, binds):
            assert gram is not None and wit.gram_eigh is None
            ref = _singular_system(left, right)
            assert abs(wit.norm - ref["norm"]) <= 1e-12 * ref["norm"]
            assert np.max(np.abs(wit.sigma**2 - ref["sigma"] ** 2)) <= 1e-12 * ref["norm"] ** 2
            assert wit.top_coords.shape == ref["top_coords"].shape
            assert _principal_sine(ref["top_coords"], wit.top_coords) <= 1e-8
            assert wit.tilde.tobytes() == ref["tilde"].tobytes()


def test_right_witness_between_defects_takes_eigh(monkeypatch, eigh_calls):
    """Images whose Gram defect lies between _FACTOR_DEFECT and
    _ORTHO_ASSERT_TOL (a two-fold cluster turned by phi, as in
    ``test_right_witness_gram_defect_boundary``) still give a witness, bound
    with the (m + 1) x (m + 1) eigh of ``_singular_system``, bit for bit."""
    a = psd_decompose(np.eye(4))
    op = bind_operator(a, np.diag([1.0, 1.0 - 0.99 * CLUSTER_TOL, 0.5, 0.3]))
    binds = _recorded_binds(monkeypatch)
    for phi in (1e-3, 1e-2, 0.1):
        rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
        turned = dataclasses.replace(op, top_coords=op.top_coords @ rot)
        eigh_calls.clear()
        binds.clear()
        wit = right_witness(a, turned, 0.3).witness
        left, right, gram = binds[0]
        defect = float(np.max(np.abs(left.conj().T @ left - np.eye(3))))
        assert operators._FACTOR_DEFECT < defect < symmetry._ORTHO_ASSERT_TOL
        assert gram is None and eigh_calls == [(3, 3)]
        ref = _singular_system(left, right)
        assert wit.norm == ref["norm"] and wit.gram_eigh is ref["gram_eigh"] is None
        for key in ("tilde", "sigma", "top_coords"):
            assert getattr(wit, key).tobytes() == ref[key].tobytes(), key


SCAN_FAMILIES = {
    "generic": random_a_bounded,
    "multiplicity": lambda rng, a: operator_with_multiplicity(rng, a, 2),
    "isometry": random_a_isometry,
    "rank_one": rank_one_operator,
    "zero_norm": zero_a_norm_operator,
}


def _scale_free_verdicts(a, t):
    """(zero_norm, multiplicity, isometry, right kind, left kind) of T."""
    op = bind_operator(a, t)
    return (op.zero_norm, op.top_coords.shape[1], is_a_isometry(a, op).ok,
            classify_right(a, op, 0.3).kind, classify_left(a, op, 0.3).kind)


@pytest.mark.parametrize("n", [4, 6, 64])
@pytest.mark.parametrize("deficient", [False, True])
@pytest.mark.parametrize("complex_field", [False, True])
def test_verdicts_do_not_change_when_t_or_a_is_rescaled(rng, n, deficient, complex_field):
    """Multiplying A or T by 10^k, |k| up to 30, changes no zero-norm test,
    multiplicity, isometry flag or symmetry kind, for every operator family."""
    a = random_psd(rng, n, rank=n - max(1, n // 4) if deficient else n,
                   complex_field=complex_field)
    for family, draw in SCAN_FAMILIES.items():
        t = draw(rng, a)
        expected = _scale_free_verdicts(a, t)
        assert expected[0] == (family == "zero_norm")
        for k in SCAN_POWERS:
            c = 10.0 ** k
            assert _scale_free_verdicts(psd_decompose(c * a.matrix), t) == expected, (family, "A", k)
            assert _scale_free_verdicts(a, c * t) == expected, (family, "T", k)


@pytest.mark.parametrize("factor, builds", [(0.5, True), (2.0, False)])
def test_factored_bind_defect_boundary(factor, builds):
    """A right factor whose R* R - I has an entry of half _FACTOR_DEFECT is
    bound, with the singular values of the left factor; at twice it the bind
    refuses."""
    a = psd_decompose(np.eye(4))
    right = np.eye(4)[:, :2]
    right[0, 0] = math.sqrt(1.0 + factor * operators._FACTOR_DEFECT)
    defect = float(np.max(np.abs(right.T @ right - np.eye(2))))
    assert defect == pytest.approx(factor * operators._FACTOR_DEFECT, rel=1e-3)
    left = np.diag([2.0, 1.0, 0.0, 0.0])[:, :2]
    if builds:
        assert np.array_equal(_bind_product(a, left, right).sigma[:2], [2.0, 1.0])
    else:
        with pytest.raises(WitnessConstructionError, match="not orthonormal"):
            _bind_product(a, left, right)


def test_factored_bind_requires_orthonormal_right_factor(rng):
    a = random_psd(rng, 6, rank=5)
    left = rng.standard_normal((5, 2))
    right = np.linalg.qr(rng.standard_normal((5, 2)))[0]
    assert _bind_product(a, left, right).tilde.shape == (5, 5)
    for bad in (right * (1.0 + 1e-9), right + 1e-9 * right[:, ::-1], 2.0 * right):
        with pytest.raises(WitnessConstructionError):
            _bind_product(a, left, bad)


# ----------------------------- witness thresholds ------------------------------


def _images_defect(op):
    """The right witness's Gram defect of its unit images, as it computes it."""
    m = op.top_coords.shape[1]
    images = op.tilde @ op.top_coords / op.sigma[:m]
    return float(np.max(np.abs(images.conj().T @ images - np.eye(m))))


def test_right_witness_gram_defect_boundary():
    """Turning a two-fold cluster's singular vectors by phi makes the images'
    Gram defect max(g sin 2 phi, 2 g sin^2 phi) to first order in the relative
    gap g, which rises to 2 g at phi = pi / 2; with g just inside CLUSTER_TOL
    the witness is built at 0.5 _ORTHO_ASSERT_TOL and refused at 1.9 times it."""
    a = psd_decompose(np.eye(4))
    g = 0.99 * CLUSTER_TOL
    op = bind_operator(a, np.diag([1.0, 1.0 - g, 0.5, 0.3]))
    assert op.top_coords.shape[1] == 2 and _images_defect(op) <= 1e-15
    tol = symmetry._ORTHO_ASSERT_TOL

    def turn(phi):
        rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
        return dataclasses.replace(op, top_coords=op.top_coords @ rot)

    for factor, builds in ((0.5, True), (1.9, False)):
        # the defect rises monotonically on [0, pi / 2]: bisect for factor * tol
        lo, hi = 0.0, math.pi / 2.0
        for _ in range(60):
            mid = (lo + hi) / 2.0
            lo, hi = (mid, hi) if _images_defect(turn(mid)) < factor * tol else (lo, mid)
        turned = turn(hi)
        assert _images_defect(turned) == pytest.approx(factor * tol, rel=1e-3)
        assert (_images_defect(turned) <= tol) == builds
        if builds:
            assert right_witness(a, turned, 0.3).tag is ConstructionTag.RIGHT_PROOF
        else:
            with pytest.raises(WitnessConstructionError, match="not orthonormal"):
                right_witness(a, turned, 0.3)


def _case_ii_cross(op):
    """The left witness's case II cosine |<Tx, Tx_1>|, as it computes it."""
    tilde_n, x = op.tilde / op.norm, op.top_coords[:, 0]
    image_x = tilde_n @ x
    k = int(np.argmax(np.linalg.norm(tilde_n - np.outer(image_x, x.conj()), axis=0)))
    partner = -np.conj(x[k]) * x
    partner[k] += 1.0
    return abs(np.vdot(image_x, tilde_n @ (partner / np.linalg.norm(partner))))


def test_left_witness_cross_term_boundary():
    """Tilting the attaining vector off the top singular vector by phi makes
    the case II cosine grow linearly in phi: the witness is built just below
    _ORTHO_ASSERT_TOL and refused just above it."""
    a = psd_decompose(np.eye(3))
    turn = np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, math.sqrt(2.0)]]) / math.sqrt(2.0)
    op = bind_operator(a, np.diag([1.0, 0.6, 0.3]) @ turn)
    x, other = op.top_coords[:, 0], np.linalg.svd(op.tilde)[2][1]

    def tilt(phi):
        unit = (x + phi * other) / math.hypot(1.0, phi)
        return dataclasses.replace(op, top_coords=unit[:, None])

    assert _case_ii_cross(op) <= 1e-15
    tol = symmetry._ORTHO_ASSERT_TOL
    slope = _case_ii_cross(tilt(1e-6)) / 1e-6
    for factor, builds in ((0.5, True), (2.0, False)):
        tilted = tilt(factor * tol / slope)
        assert (_case_ii_cross(tilted) <= tol) == builds
        if builds:
            assert left_witness(a, tilted, 0.3).tag is ConstructionTag.LEFT_CASE_II
        else:
            with pytest.raises(WitnessConstructionError, match="not orthogonal to Tx"):
                left_witness(a, tilted, 0.3)


@pytest.mark.parametrize(
    "factor, tag", [(0.5, ConstructionTag.LEFT_CASE_I), (2.0, ConstructionTag.LEFT_CASE_II)]
)
@pytest.mark.parametrize("eps", [0.0, 0.3, 0.99])
def test_left_witness_case_switch_boundary(factor, tag, eps):
    """T = diag(1, beta, 0) has x = e_1 and one column beta off it: at half
    _RANK_ONE_COLUMN the left witness takes T for rank one (case I), at twice
    it case II, and both witnesses verify."""
    a = psd_decompose(np.eye(3))
    t = np.diag([1.0, factor * symmetry._RANK_ONE_COLUMN, 0.0])
    report = classify_left(a, t, eps)
    assert report.construction.tag is tag
    fwd, rev = report.verify(a, t)
    assert fwd.holds and not rev.holds


@pytest.mark.parametrize("eps", [0.0, 0.3, 0.9, 0.99])
def test_left_witness_forward_check_boundary(monkeypatch, eps):
    """At alpha_lo, the end of the admissible interval, |<Tx, Sx>| = eps up to
    rounding and the forward check accepts; 64 u beyond it, it refuses."""
    a = psd_decompose(np.eye(3))
    t = np.diag([1.0, 0.5, 0.2])
    params = left_parameters(eps)
    root_eps1 = math.sqrt(1.0 - params.eps1**2)
    for shift, builds in ((0.0, True), (64.0 * np.finfo(np.float64).eps / 2.0, False)):
        alpha = params.alpha_lo - shift / (root_eps1 * params.b)
        moved = dataclasses.replace(params, alpha=alpha)
        monkeypatch.setattr(symmetry, "left_parameters", lambda e: moved)
        if builds:
            assert left_witness(a, t, eps).params.alpha == alpha
        else:
            with pytest.raises(WitnessConstructionError, match="forward guarantee"):
                left_witness(a, t, eps)
