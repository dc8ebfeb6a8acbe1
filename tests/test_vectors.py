from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from semiortho import (
    ConeTag,
    DimensionMismatchError,
    EpsilonRangeError,
    cone_membership,
    directional_derivative,
    inner_a,
    is_a_null,
    is_a_orthogonal,
    is_chmielinski_orthogonal_vec,
    is_eps_orthogonal,
    norm_a,
    null_basis,
    orthogonal_decomposition,
    psd_decompose,
    validate_epsilon,
)
from semiortho.sampling import forced_inner_pair, random_psd, random_vector
from semiortho.vectors import _UNIMODULAR_TOL

from conftest import SCAN_POWERS

A_REF = psd_decompose(np.diag([1.0, 2.0]))


def _vec_instance(rng, complex_field=False, n=None, rank=None):
    n = n or int(rng.integers(2, 7))
    rank = rank or int(rng.integers(1, n + 1))
    a = random_psd(rng, n, rank=rank, complex_field=complex_field)
    return a, random_vector(rng, n, complex_field), random_vector(rng, n, complex_field)


# ----------------------------- inner product and norm -----------------------


def test_inner_a_reference_values():
    assert inner_a(A_REF, np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0
    eye = psd_decompose(np.eye(2))
    assert inner_a(eye, np.array([1.0, 1.0]), np.array([1.0, 1.0])) == pytest.approx(2.0)


def test_inner_a_matches_triple_product(rng):
    a, x, y = _vec_instance(rng, complex_field=True)
    direct = np.conj(y) @ (a.matrix @ x)
    assert inner_a(a, x, y) == pytest.approx(complex(direct), abs=1e-12)


def test_inner_a_conjugate_symmetry(rng):
    a, x, y = _vec_instance(rng, complex_field=True)
    assert inner_a(a, x, y) == pytest.approx(np.conj(inner_a(a, y, x)), abs=1e-12)


def test_inner_a_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        inner_a(A_REF, np.ones(3), np.ones(2))


def test_norm_a_reference_unit_vector():
    assert norm_a(A_REF, np.array([0.0, 1.0 / math.sqrt(2.0)])) == pytest.approx(1.0)


def test_norm_a_null_vector_and_consistency(rng):
    a = psd_decompose(np.diag([1.0, 0.0]))
    assert norm_a(a, np.array([0.0, 3.0])) == 0.0
    ar, x, _ = _vec_instance(rng)
    assert norm_a(ar, x) == pytest.approx(math.sqrt(inner_a(ar, x, x).real if ar.is_complex else inner_a(ar, x, x)), abs=1e-12)


# ----------------------------- exact orthogonality ---------------------------


def test_is_a_orthogonal_diagonal():
    assert is_a_orthogonal(A_REF, np.array([1.0, 0.0]), np.array([0.0, 5.0])).holds


def test_null_vector_orthogonal_to_everything(rng):
    a = random_psd(rng, 5, rank=3)
    x = null_basis(a) @ rng.standard_normal(2)
    assert is_a_null(a, x)
    for _ in range(5):
        y = rng.standard_normal(5)
        assert is_a_orthogonal(a, x, y).holds


def test_forced_inner_product_fails(rng):
    a = random_psd(rng, 4, rank=4)
    x, y = forced_inner_pair(rng, a, 0.3)
    assert inner_a(a, x, y) == pytest.approx(0.3, abs=1e-9)
    assert not is_a_orthogonal(a, x, y).holds


# ----------------------------- epsilon validation ----------------------------


@given(st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False))
def test_validate_epsilon_accepts_range(eps):
    assert validate_epsilon(eps) == eps


@given(
    st.one_of(
        st.floats(max_value=0.0, exclude_max=True, allow_nan=False),
        st.floats(min_value=1.0, allow_nan=False),
    )
)
def test_validate_epsilon_rejects_outside(eps):
    with pytest.raises(EpsilonRangeError):
        validate_epsilon(eps)


# ----------------------------- approximate orthogonality ---------------------


def test_eps_orthogonal_hand_arithmetic():
    x = np.array([1.0, 1.0])
    y = np.array([1.0, -1.0])
    # <x,y>_A = 1 - 2 = -1, ||x||_A = ||y||_A = sqrt(3)
    assert inner_a(A_REF, x, y) == pytest.approx(-1.0)
    assert is_eps_orthogonal(A_REF, x, y, 0.5).holds
    assert not is_eps_orthogonal(A_REF, x, y, 0.2).holds
    assert is_chmielinski_orthogonal_vec(A_REF, x, y, 0.5).holds
    assert not is_chmielinski_orthogonal_vec(A_REF, x, y, 0.2).holds


def test_eps_zero_reduces_to_exact(rng):
    a, x, _ = _vec_instance(rng, n=4, rank=4)
    y = orthogonal_decomposition(a, x, random_vector(rng, 4))
    assert is_eps_orthogonal(a, x, y, 0.0).holds
    assert is_chmielinski_orthogonal_vec(a, x, y, 0.0).holds


def test_chmielinski_null_first_argument(rng):
    a = psd_decompose(np.diag([1.0, 1.0, 0.0]))
    x = np.array([0.0, 0.0, 2.0])
    for eps in (0.0, 0.4, 0.9):
        assert is_chmielinski_orthogonal_vec(a, x, random_vector(rng, 3), eps).holds


def test_chmielinski_identity_is_birkhoff_james():
    eye = psd_decompose(np.eye(2))
    assert is_chmielinski_orthogonal_vec(eye, np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.0).holds
    assert not is_chmielinski_orthogonal_vec(eye, np.array([1.0, 0.0]), np.array([1.0, 0.1]), 0.0).holds


def test_route_equivalence_random(rng):
    disagreements = 0
    for k in range(500):
        complex_field = k % 2 == 1
        a, x, y = _vec_instance(rng, complex_field=complex_field)
        eps = float(rng.uniform(0.0, 0.99))
        if rng.random() < 0.4:
            target = eps * norm_a(a, x) * float(rng.uniform(0.0, 1.5))
            x, y = forced_inner_pair(rng, a, target)
        lhs = is_eps_orthogonal(a, x, y, eps)
        rhs = is_chmielinski_orthogonal_vec(a, x, y, eps)
        if lhs.holds != rhs.holds:
            disagreements += 1
    assert disagreements == 0


def test_chmielinski_witness_reproduces_margin(rng):
    a, x, y = _vec_instance(rng, complex_field=True)
    eps = 0.1
    x, y = forced_inner_pair(rng, a, 0.9 * norm_a(a, x))
    v = is_chmielinski_orthogonal_vec(a, x, y, eps)
    if not v.holds:
        lam = v.witness.lam
        f = (
            norm_a(a, x + lam * y) ** 2
            - norm_a(a, x) ** 2
            + 2 * eps * norm_a(a, x) * norm_a(a, y) * abs(lam)
        )
        assert f == pytest.approx(v.margin, abs=1e-9)


# ----------------------------- decomposition --------------------------------


def test_decomposition_already_orthogonal(rng):
    a = random_psd(rng, 4, rank=4)
    x = random_vector(rng, 4)
    y0 = random_vector(rng, 4)
    z0 = orthogonal_decomposition(a, x, y0)
    # x perp_A z0 already, so decomposing again returns z0
    assert np.allclose(orthogonal_decomposition(a, x, z0), z0, atol=1e-10)


def test_decomposition_null_x_returns_y(rng):
    a = psd_decompose(np.diag([1.0, 0.0]))
    x = np.array([0.0, 1.0])
    y = random_vector(rng, 2)
    assert np.array_equal(orthogonal_decomposition(a, x, y), y)


def test_decomposition_postconditions_random(rng):
    for k in range(200):
        a, x, y = _vec_instance(rng, complex_field=k % 2 == 0)
        eps = float(rng.uniform(0.0, 0.99))
        z = orthogonal_decomposition(a, x, y)
        assert abs(inner_a(a, x, z)) <= 1e-10 * (1 + norm_a(a, x) * norm_a(a, z))
        if is_eps_orthogonal(a, x, y, eps).holds:
            assert norm_a(a, z - y) <= eps * norm_a(a, y) + 1e-10 * (1 + norm_a(a, y))


# ----------------------------- cones -----------------------------------------


def test_cone_membership_orthogonal_gives_both(rng):
    a = random_psd(rng, 4, rank=4, complex_field=True)
    x = random_vector(rng, 4, True)
    z = orthogonal_decomposition(a, x, random_vector(rng, 4, True))
    for arg in (0.0, 0.6, 1.5, 3.0):
        assert cone_membership(a, x, z, np.exp(1j * arg)) == ConeTag.BOTH


def test_cone_membership_collinear():
    eye = psd_decompose(np.eye(2))
    x = np.array([1.0, 0.0])
    assert cone_membership(eye, x, x, 1.0) == ConeTag.PLUS_ONLY
    assert cone_membership(eye, x, -x, 1.0) == ConeTag.MINUS_ONLY


def test_cone_membership_alpha_validation():
    with pytest.raises(ValueError):
        cone_membership(A_REF, np.ones(2), np.ones(2), 2.0)
    with pytest.raises(ValueError):
        cone_membership(A_REF, np.ones(2), np.ones(2), -1.0)  # arg = pi excluded


@pytest.mark.parametrize("factor, accepted", [(0.5, True), (2.0, False)])
def test_cone_membership_unimodular_boundary(factor, accepted):
    """|alpha| off 1 by half of _UNIMODULAR_TOL is accepted, above or below
    the unit circle; off by twice it is refused."""
    x, y = np.array([1.0, 0.0]), np.array([1.0, 1.0])
    for sign in (1.0, -1.0):
        alpha = (1.0 + sign * factor * _UNIMODULAR_TOL) * np.exp(0.5j)
        if accepted:
            assert cone_membership(A_REF, x, y, alpha) == ConeTag.PLUS_ONLY
        else:
            with pytest.raises(ValueError, match="unimodular"):
                cone_membership(A_REF, x, y, alpha)


def test_cone_membership_grid_oracle(rng):
    ts = np.linspace(-10.0, 10.0, 10_000)
    for _ in range(10):
        a, x, y = _vec_instance(rng)
        tag = cone_membership(a, x, y)
        norms = np.array([norm_a(a, x + t * y) for t in ts[::50]])
        base = norm_a(a, x)
        sub = ts[::50]
        if tag in (ConeTag.PLUS_ONLY, ConeTag.BOTH):
            assert np.all(norms[sub >= 0] >= base - 1e-9)
        if tag in (ConeTag.MINUS_ONLY, ConeTag.BOTH):
            assert np.all(norms[sub <= 0] >= base - 1e-9)


def test_cone_both_exactly_when_a_orthogonal(rng):
    """Over R at alpha = 1 the two decide one statement with one band, also
    for |<x, y>_A| near VERDICT_MARGIN_TOL ||x||_A ||y||_A."""
    seen = set()
    for k in range(600):
        a, x, _ = _vec_instance(rng)
        if is_a_null(a, x):
            continue
        size = norm_a(a, x) * 10.0 ** rng.uniform(-3.0, 3.0) * 10.0 ** rng.uniform(-10.0, -7.5)
        x, y = forced_inner_pair(rng, a, float(rng.choice([-1.0, 1.0])) * size)
        holds = is_a_orthogonal(a, x, y).holds
        assert (cone_membership(a, x, y) == ConeTag.BOTH) == holds
        seen.add(holds)
    assert seen == {True, False}


# ----------------------------- rescaling ---------------------------------------

SCAN_EPS = (0.3, 0.7)


def _vector_verdicts(a, x, y):
    """(holds, boundary) of every vector predicate on (x, y), both epsilon
    routes at each SCAN_EPS, and the cone tags along 1 and i."""
    verdicts = [is_a_orthogonal(a, x, y)]
    for eps in SCAN_EPS:
        verdicts += [is_eps_orthogonal(a, x, y, eps), is_chmielinski_orthogonal_vec(a, x, y, eps)]
    tags = (cone_membership(a, x, y), cone_membership(a, x, y, 1j))
    return [(v.holds, v.boundary) for v in verdicts], tags


def _scan_pairs(rng, a):
    """A random pair, an A-orthogonal one, pairs 1e-6 inside and outside the
    boundary at SCAN_EPS[0], and A-null or zero arguments."""
    cplx = a.is_complex
    x, y = random_vector(rng, a.dim, cplx), random_vector(rng, a.dim, cplx)
    z = orthogonal_decomposition(a, x, y)
    pairs = [(x, y), (x, z), (z, x), (x, np.zeros_like(y))]
    for rho in SCAN_EPS[0] * np.array([1.0 - 1e-6, 1.0 + 1e-6]):
        # |<x, z + t x>_A| = rho ||x||_A ||z + t x||_A
        t = rho * norm_a(a, z) / (norm_a(a, x) * math.sqrt(1.0 - rho**2))
        pairs.append((x, z + t * x))
    if a.null_dim:
        null = null_basis(a) @ random_vector(rng, a.null_dim, cplx)
        pairs += [(null, y), (x, null)]
    return pairs


@pytest.mark.parametrize("deficient", [False, True])
@pytest.mark.parametrize("complex_field", [False, True])
def test_vector_verdicts_do_not_change_when_x_y_or_a_is_rescaled(rng, deficient, complex_field):
    """Multiplying x, y or A by 10^k, |k| up to 30, changes no verdict,
    boundary flag or cone tag of the vector predicates."""
    n = 5
    a = random_psd(rng, n, rank=n - 2 if deficient else n, complex_field=complex_field)
    pairs = _scan_pairs(rng, a)
    expected = [_vector_verdicts(a, x, y) for x, y in pairs]
    assert [e[0][1][0] for e in expected[4:6]] == [True, False]  # both sides of the boundary
    for k in SCAN_POWERS:
        c = 10.0**k
        scaled_a = psd_decompose(c * a.matrix)
        for (x, y), want in zip(pairs, expected):
            assert _vector_verdicts(scaled_a, x, y) == want, ("A", k)
            assert _vector_verdicts(a, c * x, y) == want, ("x", k)
            assert _vector_verdicts(a, x, c * y) == want, ("y", k)


@pytest.mark.parametrize("k", SCAN_POWERS)
def test_identity_example_is_scale_free(k):
    """A = I, x = (1, 0), y = (1, 1) at eps = 0.5: |<x, y>| = ||x|| ||y|| / sqrt(2),
    so not orthogonal, not eps-orthogonal and plus_only, at every scale."""
    c = 10.0**k
    x, y = np.array([1.0, 0.0]), np.array([1.0, 1.0])
    for a, x, y in ((psd_decompose(c * np.eye(2)), x, y), (psd_decompose(np.eye(2)), c * x, c * y)):
        assert not is_a_orthogonal(a, x, y).holds
        assert not is_eps_orthogonal(a, x, y, 0.5).holds
        assert not is_chmielinski_orthogonal_vec(a, x, y, 0.5).holds
        assert cone_membership(a, x, y) == ConeTag.PLUS_ONLY


# ----------------------------- directional derivative ------------------------


def test_directional_derivative_self_and_orthogonal(rng):
    a = random_psd(rng, 4, rank=4)
    x = random_vector(rng, 4)
    x = x / norm_a(a, x)
    assert directional_derivative(a, x, x) == pytest.approx(1.0, abs=1e-10)
    z = orthogonal_decomposition(a, x, random_vector(rng, 4))
    assert directional_derivative(a, x, z) == pytest.approx(0.0, abs=1e-9)


def test_directional_derivative_non_unit_x():
    """x need not be A-unit: the derivative of ||x + lambda y||_A is
    Re <x, y>_A / ||x||_A, here 2.5 / 5."""
    assert directional_derivative(A_REF, np.array([5.0, 0.0]), np.array([0.5, 0.25])) == 0.5


def test_directional_derivative_a_null_x():
    """Where x is A-null, ||x + lambda y||_A = |lambda| ||y||_A, whose
    one-sided derivative at 0 is ||y||_A."""
    a = psd_decompose(np.diag([2.0, 0.0]))
    x, y = np.array([0.0, 3.0]), np.array([0.5, 0.25])
    assert directional_derivative(a, x, y) == norm_a(a, y) == math.sqrt(0.5)
    h = 1e-3
    assert directional_derivative(a, x, y) == pytest.approx((norm_a(a, x + h * y) - norm_a(a, x)) / h)


def test_directional_derivative_finite_difference(rng):
    h = 1e-6
    for _ in range(50):
        a, x, y = _vec_instance(rng)
        nx = norm_a(a, x)
        if nx < 1e-6:
            continue
        x = x / nx
        exact = directional_derivative(a, x, y)
        fd = (norm_a(a, x + h * y) - norm_a(a, x - h * y)) / (2 * h)
        assert abs(exact - fd) <= 1e-5 * (1 + abs(exact))
