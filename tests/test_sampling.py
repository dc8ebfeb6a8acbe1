from __future__ import annotations

import numpy as np
import pytest

from semiortho import (
    check_a_bounded,
    is_a_isometry,
    norm_attainment_set,
    op_orth_direct,
    operator_norm_a,
)
from semiortho.sampling import (
    eps_orthogonal_probe,
    operator_with_multiplicity,
    random_a_bounded,
    random_a_isometry,
    random_a_unit,
    random_psd,
    rank_one_operator,
    shared_attainment_pair,
    zero_a_norm_operator,
)
from semiortho.vectors import norm_a


def test_random_psd_rank_control(rng):
    for rank in (1, 3, 5):
        a = random_psd(rng, 5, rank=rank)
        assert a.rank == rank


def test_generated_operators_are_bounded(rng):
    a = random_psd(rng, 5, rank=3)
    for maker in (
        lambda: random_a_bounded(rng, a),
        lambda: random_a_isometry(rng, a),
        lambda: operator_with_multiplicity(rng, a, 2),
        lambda: rank_one_operator(rng, a),
        lambda: zero_a_norm_operator(rng, a),
    ):
        assert check_a_bounded(a, maker()).ok


def test_random_a_unit_is_unit(rng):
    a = random_psd(rng, 6, rank=4, complex_field=True)
    for _ in range(10):
        assert norm_a(a, random_a_unit(rng, a)) == pytest.approx(1.0, abs=1e-10)


def test_multiplicity_generator(rng):
    a = random_psd(rng, 6, rank=5)
    for m in (1, 2, 4):
        t = operator_with_multiplicity(rng, a, m)
        assert norm_attainment_set(a, t).multiplicity == m


def test_rank_one_operator_kills_complement(rng):
    a = random_psd(rng, 5, rank=3)
    t = rank_one_operator(rng, a)
    att = norm_attainment_set(a, t)
    assert att.multiplicity == 1
    from semiortho import tilde_reduce

    assert np.linalg.matrix_rank(tilde_reduce(a, t), tol=1e-10) == 1


def test_zero_a_norm_operator_is_nonzero_but_null(rng):
    a = random_psd(rng, 5, rank=3)
    z = zero_a_norm_operator(rng, a)
    assert np.max(np.abs(z)) > 0.0
    assert operator_norm_a(a, z) <= 1e-12


def test_shared_attainment_pair(rng):
    from semiortho import attainment_subset

    a = random_psd(rng, 5, rank=4)
    t, s = shared_attainment_pair(rng, a)
    assert attainment_subset(a, t, s) and attainment_subset(a, s, t)


def test_probe_premise_certified(rng):
    # the probe generator promises S perp T by construction
    for eps in (0.0, 0.2, 0.8):
        a = random_psd(rng, 5, rank=3)
        t = random_a_bounded(rng, a)
        for _ in range(5):
            s = eps_orthogonal_probe(rng, a, t, eps)
            assert op_orth_direct(a, s, t, eps).holds


def test_complex_probe_premise_certified(rng):
    """Over C the probe is drawn in A's field with conjugate projectors, so
    S attains only at x0 and S perp T holds."""
    for eps in (0.0, 0.2, 0.8):
        for _ in range(10):
            n = int(rng.integers(2, 6))
            a = random_psd(rng, n, rank=int(rng.integers(2, n + 1)), complex_field=True)
            t = random_a_bounded(rng, a)
            s = eps_orthogonal_probe(rng, a, t, eps)
            assert norm_attainment_set(a, s).multiplicity == 1
            assert op_orth_direct(a, s, t, eps).holds


def test_isometry_generator_isometric(rng):
    a = random_psd(rng, 5, rank=2)
    assert is_a_isometry(a, random_a_isometry(rng, a)).ok


# eps_orthogonal_probe(default_rng(1729), random_psd(n = 4), random_a_bounded, 0.3)
_PINNED_PROBE = np.array([
    [0.00965828639614784, 0.08391733844367305, 0.0855984222000411, -0.10350533371926117],
    [0.3765666959899446, 0.24866269036249397, 0.10119151560149596, -0.04938244337062411],
    [-0.09517172892485669, 0.17291870433295292, -0.06247397008961511, -0.21828107783663336],
    [0.08847911569711994, -0.21601884264108737, 0.3484563293350172, 0.4735351872989186],
])


def test_probe_pinned_at_fixed_seed():
    """The benchmark's op-real probe slots and the selftest instances are
    drawn with this generator: an edit that changes its output would make
    runs of two versions decide different instances."""
    rng = np.random.default_rng(1729)
    a = random_psd(rng, 4)
    t = random_a_bounded(rng, a)
    s = eps_orthogonal_probe(rng, a, t, 0.3)
    assert np.max(np.abs(s - _PINNED_PROBE)) <= 1e-12 * np.max(np.abs(_PINNED_PROBE))


def test_probe_where_t_is_zero_on_the_range(rng):
    """T of zero A-norm maps every x0 to 0, so the probe's S takes a random
    image direction: S is A-bounded and S perp T holds."""
    for complex_field in (False, True):
        a = random_psd(rng, 5, rank=3, complex_field=complex_field)
        t = zero_a_norm_operator(rng, a)
        assert operator_norm_a(a, t) <= 1e-12 * np.linalg.norm(t)
        s = eps_orthogonal_probe(rng, a, t, 0.3)
        assert check_a_bounded(a, s).ok
        assert op_orth_direct(a, s, t, 0.3).holds
