from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from semiortho import (
    AttainmentSubsetError,
    ComplexFieldError,
    Method,
    OrthoVerdict,
    RealFieldError,
    attainment_subset,
    bind_operator,
    direct_objective,
    inner_a,
    is_a_null,
    is_a_orthogonal,
    is_chmielinski_orthogonal_vec,
    is_eps_orthogonal,
    norm_a,
    norm_attainment_set,
    op_orth_attainment_real,
    op_orth_direct,
    op_orth_pointwise,
    op_orth_theta_sweep_complex,
    operator_norm_a,
    orthogonal_decomposition,
    psd_decompose,
)
from semiortho import orthogonality
from semiortho.core import VERDICT_MARGIN_TOL
from semiortho.orthogonality import (
    _SIMPLE_GAP,
    _SUBSET_SINE_TOL,
    _eigensystem,
    _newton_step,
    _query,
)
from semiortho.sampling import (
    eps_orthogonal_probe,
    operator_with_multiplicity,
    random_a_bounded,
    random_a_isometry,
    random_psd,
    random_vector,
    shared_attainment_pair,
    zero_a_norm_operator,
)
from semiortho.selftest import EPS_POOL

A_REF = psd_decompose(np.diag([1.0, 2.0]))
T_REF = np.diag([2.0, 1.0])
S_REF = np.diag([0.0, 1.0])
EPS_REF = 1.0 / 3.0


def _real_instance(rng, n=None, rank=None):
    n = n or int(rng.integers(2, 7))
    rank = rank or int(rng.integers(1, n + 1))
    a = random_psd(rng, n, rank=rank)
    return a, random_a_bounded(rng, a), random_a_bounded(rng, a)


# ----------------------------- direct route -----------------------------------


def test_direct_reference_asymmetry():
    assert op_orth_direct(A_REF, T_REF, S_REF, EPS_REF).holds
    reverse = op_orth_direct(A_REF, S_REF, T_REF, EPS_REF)
    assert not reverse.holds
    assert reverse.margin == pytest.approx(-1.0 / 9.0, abs=1e-9)


def test_direct_zero_s_holds(rng):
    a, t, _ = _real_instance(rng)
    v = op_orth_direct(a, t, np.zeros_like(t), 0.2)
    assert v.holds and v.margin == 0.0
    # on the attainment route T = I attains on all of R(A), so the form is
    # the zero 3 x 3 matrix and every attaining vector is a minimizer
    eye = psd_decompose(np.eye(3))
    v = op_orth_attainment_real(eye, np.eye(3), np.zeros((3, 3)), 0.2)
    assert v.holds and v.margin == 0.0
    assert norm_a(eye, v.witness.vector) == pytest.approx(1.0, abs=1e-12)


def test_direct_zero_t_holds(rng):
    a = random_psd(rng, 4, rank=2)
    z = zero_a_norm_operator(rng, a)
    s = random_a_bounded(rng, a)
    assert op_orth_direct(a, z, s, 0.1).holds
    assert op_orth_direct(a, s, z, 0.1).holds
    assert direct_objective(a, z, s, 0.1, 0.5) == 0.0


@pytest.mark.parametrize("field", ["real", "complex"])
def test_zero_subgradient_ends_the_search(zero_subgradient_pairs, field):
    """A Newton step can land on a query whose subgradient is exactly 0,
    which proves it a minimizer: the search stops there with g at that query,
    less its rounding, as the lower bound. It used to divide by the zero
    width of the cut instead and raise ZeroDivisionError, here at T x 10^3 to
    10^5 over R and 10^3 and 10^4 over C. Both routes say "fails"."""
    slot = zero_subgradient_pairs[field]
    a = psd_decompose(slot.A)
    route = op_orth_theta_sweep_complex if field == "complex" else op_orth_attainment_real
    for k in range(2, 7):
        t = slot.T * 10.0**k
        direct = op_orth_direct(a, t, slot.S, slot.eps)
        assert not direct.holds and not route(a, t, slot.S, slot.eps).holds
        assert direct.margin_lower <= direct.margin


@pytest.mark.parametrize("complex_field", [False, True])
def test_direct_route_decides_at_large_t_norms(complex_field):
    """Generic pairs with ||T||_A from 3e2 to 1e6 and ||S||_A of order 1,
    where the rounding of g keeps the absolute stop width out of reach and
    the search ran on into a zero subgradient (9 of these 200 real pairs
    and 6 of the 200 complex ones raised): every call decides, with
    margin_lower <= margin."""
    rng = np.random.default_rng(5)
    for target in (3e2, 1e3, 1e4, 1e6):
        for _ in range(50):
            n = int(rng.integers(2, 7))
            a = random_psd(rng, n, complex_field=complex_field)
            t = random_a_bounded(rng, a)
            t = t * (target / operator_norm_a(a, t))
            v = op_orth_direct(a, t, random_a_bounded(rng, a), float(rng.choice(EPS_POOL)))
            assert v.margin_lower <= v.margin


def test_direct_witness_reproduces_margin(rng):
    a, t, s = _real_instance(rng, n=4, rank=4)
    v = op_orth_direct(a, s, t, 0.05)
    g_at_witness = direct_objective(a, s, t, 0.05, v.witness.lam)
    assert g_at_witness == pytest.approx(v.margin, abs=1e-9)


def test_direct_complex_phase_matters():
    # S = iT: at theta = pi/2 the rotated form is definite, so exact
    # orthogonality fails even though <Tx, Sx> is purely imaginary.
    a = psd_decompose(np.eye(2).astype(complex))
    t = np.diag([1.0 + 0j, 0.5 + 0j])
    s = 1j * t
    assert not op_orth_direct(a, t, s, 0.0).holds
    assert not op_orth_theta_sweep_complex(a, t, s, 0.0).holds


def test_direct_complex_witness_reproduces_margin(rng):
    a = random_psd(rng, 4, rank=3, complex_field=True)
    t, s = random_a_bounded(rng, a), random_a_bounded(rng, a)
    v = op_orth_direct(a, t, s, 0.1)
    assert isinstance(v.witness.lam, complex) and v.margin < 0.0
    assert direct_objective(a, t, s, 0.1, v.witness.lam) == pytest.approx(v.margin, abs=1e-9)


# ----------------------------- first query from the bind -----------------------


def _zero_optimal_pairs(rng):
    """Bound pairs (T, S, eps) where lambda = 0 minimizes g: S perp T pairs
    from the real probe construction, read as (S, T), and generic pairs in
    both fields with eps above |<S~ v, T~ v>| / (||T|| ||S||) at the top
    singular vector v of T~, so that the shortened subgradient at 0 is 0."""
    for n in (3, 4, 16):
        a = random_psd(rng, n, rank=n - 1)
        t = random_a_bounded(rng, a)
        eps = float(rng.uniform(0.05, 0.9))
        yield bind_operator(a, eps_orthogonal_probe(rng, a, t, eps)), bind_operator(a, t), eps
        for complex_field in (False, True):
            a = random_psd(rng, n, complex_field=complex_field)
            op_t = bind_operator(a, random_a_bounded(rng, a))
            op_s = bind_operator(a, random_a_bounded(rng, a))
            v = op_t.top_coords[:, 0]
            ratio = abs(np.vdot(op_s.tilde @ v, op_t.tilde @ v)) / (op_t.norm * op_s.norm)
            yield op_t, op_s, (1.0 + ratio) / 2.0


def test_direct_holds_at_zero_without_eigensolve(rng, eigh_calls):
    """Where lambda = 0 is optimal the first query reads T's bind and
    settles: no eigensolve beyond the two binds, and g(0) = 0 exactly."""
    for op_t, op_s, eps in _zero_optimal_pairs(rng):
        a = op_t.psd
        eigh_calls.clear()
        v = op_orth_direct(a, op_t, op_s, eps)
        assert eigh_calls == []
        assert v.holds and v.margin == 0.0 and v.margin_lower == 0.0
        assert v.witness.lam == 0.0 and isinstance(v.witness.lam, float)
        assert direct_objective(a, op_t, op_s, eps, 0.0) == 0.0
        assert direct_objective(a, op_t, op_s, eps, 0j) == 0.0
        assert eigh_calls == []


@pytest.mark.parametrize("complex_field", [False, True])
def test_direct_failing_witness_reproduces_margin(rng, eigh_calls, complex_field):
    """A pair that fails needs the proximal Newton step at 0, which reads the
    eigensystem of T~* T~ that T's bind kept, and at least one query away
    from 0, which makes an eigensolve; its witness lambda* still reproduces
    the margin through ``direct_objective``."""
    found = 0
    while found < 10:
        a = random_psd(rng, int(rng.integers(3, 9)), complex_field=complex_field)
        op_t = bind_operator(a, random_a_bounded(rng, a))
        op_s = bind_operator(a, random_a_bounded(rng, a))
        eps = float(rng.uniform(0.0, 0.5))
        eigh_calls.clear()
        v = op_orth_direct(a, op_t, op_s, eps)
        if v.holds:
            continue
        found += 1
        assert eigh_calls and v.witness.lam != 0
        g = direct_objective(a, op_t, op_s, eps, v.witness.lam)
        assert g == pytest.approx(v.margin, abs=1e-12 * op_t.norm**2)
        assert v.margin_lower <= v.margin


@pytest.mark.parametrize("complex_field", [False, True])
def test_direct_newton_at_zero_reads_the_bind(rng, eigh_calls, monkeypatch, complex_field):
    """The proximal Newton step at lambda = 0 takes the eigensystem of
    T~* T~ that T's bind kept: bit for bit what a fresh ``_eigensystem``
    gives, with no eigensolve (a real T~ paired with a complex S~ too). At
    eps = 0 the subgradient is not shortened, so it is not 0 and the search
    would ask for the step."""
    systems = []
    monkeypatch.setattr(orthogonality, "_newton_step", lambda *args: systems.append(args[-1]))
    for n in (2, 3, 5, 16):
        a = random_psd(rng, n, rank=max(1, n - 1), complex_field=complex_field)
        op_t = bind_operator(a, random_a_bounded(rng, a))
        for s in (random_a_bounded(rng, a), random_a_bounded(rng, a, complex_field=True)):
            op_s = bind_operator(a, s)
            eigh_calls.clear()
            _, grad, _, _, _, step = _query(op_t, op_s, 0.0, 0j if op_s.is_complex else 0.0)
            assert grad != 0
            systems.clear()
            step()
            assert eigh_calls == [] and len(systems) == 1
            fresh = _eigensystem(op_t.tilde, op_s.tilde)
            assert all(np.array_equal(x, y) for x, y in zip(systems[0], fresh))


def test_direct_from_bind_agrees_on_multiple_top_and_mixed_fields(rng):
    """The bind's top singular vector is one of several where T's top
    singular value is multiple, and a real T~ paired with a complex S~ puts
    the first query in the complex plane: the direct route still agrees with
    the attainment route and with the theta route on pairs at least 1e-3 of
    ||T||_A ||S||_A from the boundary."""
    checked = 0
    for n in (3, 4, 6):
        for _ in range(10):
            a = random_psd(rng, n)
            t = operator_with_multiplicity(rng, a, int(rng.integers(2, n)))
            mixed = (random_a_bounded(rng, a), random_a_bounded(rng, a, complex_field=True))
            for s, cross in zip(mixed, (op_orth_attainment_real, op_orth_theta_sweep_complex)):
                eps = float(rng.uniform(0.0, 0.99))
                reference = cross(a, t, s, eps)
                if abs(reference.margin) < 1e-3 * operator_norm_a(a, t) * operator_norm_a(a, s):
                    continue
                v = op_orth_direct(a, t, s, eps)
                assert v.holds == reference.holds
                assert v.margin_lower <= v.margin
                checked += 1
    assert checked >= 40


# ----------------------------- direct-route certificate ------------------------


def _certificate_instances(rng):
    """Real and complex 2x2 to 4x4 pairs: generic, repeated top singular
    value, A-isometries and shared attainment, with rank-deficient A."""
    for trial in range(24):
        complex_field = bool(trial % 2)
        n = 2 + trial % 3
        a = random_psd(rng, n, rank=int(rng.integers(1, n + 1)), complex_field=complex_field)
        kind = (trial // 2) % 4
        if kind == 0:
            t, s = random_a_bounded(rng, a), random_a_bounded(rng, a)
        elif kind == 1:
            t = operator_with_multiplicity(rng, a, int(rng.integers(1, a.rank + 1)))
            s = random_a_bounded(rng, a)
        elif kind == 2:
            t, s = random_a_isometry(rng, a), random_a_bounded(rng, a)
        else:
            t, s = shared_attainment_pair(rng, a, int(rng.integers(1, a.rank + 1)))
        yield a, t, s, float(rng.choice([0.0, 0.1, 0.4, 0.8]))


def _polar_grid_min(a, t, s, eps):
    """Least g over a dense polar grid of the proven disc (a grid of the
    interval for the real field): an upper bound on min g."""
    op_t, op_s = bind_operator(a, t), bind_operator(a, s)
    cap = 2.0 * (1.0 + eps) * op_t.norm / op_s.norm
    if op_t.is_complex or op_s.is_complex:
        radii = cap * np.concatenate([[0.0], np.geomspace(1e-6, 1.0, 300)])
        lams = np.outer(radii, np.exp(2j * np.pi * np.arange(256) / 256)).ravel()
    else:
        lams = np.linspace(-cap, cap, 20001)
    m = op_t.tilde[None] + lams[:, None, None] * op_s.tilde[None]
    smax = np.linalg.svd(m, compute_uv=False)[:, 0]
    g = smax**2 - op_t.norm**2 + 2.0 * eps * op_t.norm * op_s.norm * np.abs(lams)
    return float(np.min(g))


def test_direct_certificate_brackets_grid_oracle(rng):
    for a, t, s, eps in _certificate_instances(rng):
        v = op_orth_direct(a, t, s, eps)
        grid_min = _polar_grid_min(a, t, s, eps)
        tol = VERDICT_MARGIN_TOL
        assert v.margin_lower <= v.margin
        assert v.margin_lower <= grid_min + 1e-12
        assert v.margin <= grid_min + tol / 4.0


def test_direct_margin_lower_on_every_verdict(rng):
    for _ in range(60):
        n = int(rng.integers(2, 6))
        a = random_psd(rng, n, rank=int(rng.integers(1, n + 1)), complex_field=bool(rng.integers(2)))
        t, s = random_a_bounded(rng, a), random_a_bounded(rng, a)
        v = op_orth_direct(a, t, s, float(rng.uniform(0.0, 0.99)))
        assert v.margin_lower is not None and v.margin_lower <= v.margin
    zero = op_orth_direct(A_REF, T_REF, np.zeros((2, 2)), EPS_REF)
    assert zero.margin_lower == zero.margin == 0.0


def test_direct_holds_verdicts_are_certified():
    """Complex n = 4 pairs with epsilon a relative 1e-6 to 1e-3 below the
    boundary: every "holds" verdict rests on margin_lower >= -tol. (On these
    100 pairs, stopping on U - L <= tol / 4 alone gave four "holds" verdicts
    with margin_lower < -tol.)"""
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 100:
        a = random_psd(rng, 4, complex_field=True)
        t, s = random_a_bounded(rng, a), random_a_bounded(rng, a)
        scale = operator_norm_a(a, t) * operator_norm_a(a, s)
        boundary = -op_orth_theta_sweep_complex(a, t, s, 0.0).margin / scale
        eps = boundary - 10.0 ** rng.uniform(-6.0, -3.0)
        if not 0.0 <= eps < 1.0:
            continue
        checked += 1
        v = op_orth_direct(a, t, s, eps)
        if v.holds:
            assert v.margin_lower >= -VERDICT_MARGIN_TOL


def test_direct_eigensolves_per_call_capped(rng, eigh_calls):
    for n in (2, 4, 16):
        for _ in range(4):
            a = random_psd(rng, n, complex_field=True)
            t, s = random_a_bounded(rng, a), random_a_bounded(rng, a)
            eigh_calls.clear()
            op_orth_direct(a, t, s, float(rng.uniform(0.0, 0.99)))
            assert 0 < len(eigh_calls) <= 200


def test_attainment_route_reuses_direct_binds(rng, eigh_calls):
    """A pair passed as matrices to two routes is bound once: after the
    direct route the attainment route makes no eigensolve, as T's attainment
    cluster is simple and its 1 x 1 attainment form is read in closed form."""
    for n in (4, 16):
        a = random_psd(rng, n, rank=n - 1)
        t, s = random_a_bounded(rng, a), random_a_bounded(rng, a)
        op_orth_direct(a, t, s, 0.3)
        assert bind_operator(a, t).top_coords.shape[1] == 1
        eigh_calls.clear()
        op_orth_attainment_real(a, t, s, 0.3)
        assert len(eigh_calls) == 0


@pytest.mark.parametrize("factor, stepped", [(0.5, False), (2.0, True)])
@pytest.mark.parametrize("lam", [0.5, 0.5 + 0.25j])
def test_newton_step_simple_gap_boundary(factor, stepped, lam):
    """The top eigenvalue of M* M counts as simple, and a Newton step is
    proposed, where its relative gap to the next is twice _SIMPLE_GAP; at half
    of it the eigenvalue counts as multiple and no step is taken."""
    op_s = bind_operator(psd_decompose(np.eye(2)), np.array([[0.3, 1.0], [1.0, 0.2]]))
    gap = factor * _SIMPLE_GAP
    m = np.diag([1.0, math.sqrt(1.0 - gap)])
    w, vecs = np.array([1.0 - gap, 1.0]), np.eye(2)[:, ::-1]  # ascending, as eigh
    v = vecs[:, -1]
    step = _newton_step(op_s, 0.1, lam, complex(0.4), (m, w, vecs, m @ v, op_s.tilde @ v))
    assert (step is not None) is stepped
    if stepped:
        assert all(math.isfinite(d) for d in step)


def test_newton_step_none_without_curvature():
    """At a complex lambda != 0 with a simple top eigenvalue, S~ = 0 and
    penalty 0 leave g no curvature, so no Newton step is proposed."""
    op_s = bind_operator(psd_decompose(np.eye(2)), np.zeros((2, 2)))
    m = np.diag([2.0, 1.0])
    w, vecs = np.array([1.0, 4.0]), np.eye(2)[:, ::-1]  # ascending, as eigh
    v = vecs[:, -1]
    assert _newton_step(op_s, 0.0, 0.5 + 0.25j, complex(0.4), (m, w, vecs, m @ v, op_s.tilde @ v)) is None


def test_direct_newton_steps_on_failing_pairs(rng, eigh_calls):
    """Complex pairs that fail by at least 0.01 of ||T||_A ||S||_A: the
    minimizer is smooth there, Newton steps reach it, and the dual bound at
    its top eigenvector pins the margin: about 3.4 eigensolves per call
    (5.4 with the ellipsoid's bound alone, about 85 with no Newton step)."""
    for n in (4, 16):
        counts = []
        while len(counts) < 20:
            a = random_psd(rng, n, complex_field=True)
            t, s = random_a_bounded(rng, a), random_a_bounded(rng, a)
            eps = float(rng.uniform(0.0, 0.99))
            scale = operator_norm_a(a, t) * operator_norm_a(a, s)
            if op_orth_theta_sweep_complex(a, t, s, eps).margin / scale > -0.01:
                continue
            eigh_calls.clear()
            v = op_orth_direct(a, t, s, eps)
            counts.append(len(eigh_calls))
            assert not v.holds and v.margin - v.margin_lower <= VERDICT_MARGIN_TOL / 4.0
        assert np.mean(counts) <= 4 and max(counts) <= 20


def test_direct_proximal_start_near_boundary_complex(rng, eigh_calls):
    """Complex n = 4 pairs with epsilon 1e-6 to 1e-3 of ||T||_A ||S||_A below
    the boundary put the minimizer next to the kink at lambda = 0. The
    proximal Newton step from 0 reaches it, and the dual bound settles the
    verdict there or at 0 itself: about one eigensolve per call (8.8, and up
    to 72, with the ellipsoid's bound alone, which barely shrinks around a
    minimizer that close to the kink; about 60 with no Newton step)."""
    counts = []
    while len(counts) < 50:
        a = random_psd(rng, 4, complex_field=True)
        t, s = random_a_bounded(rng, a), random_a_bounded(rng, a)
        scale = operator_norm_a(a, t) * operator_norm_a(a, s)
        boundary = -op_orth_theta_sweep_complex(a, t, s, 0.0).margin / scale
        eps = boundary - 10.0 ** rng.uniform(-6.0, -3.0)
        if not 0.0 <= eps < 1.0:
            continue
        eigh_calls.clear()
        v = op_orth_direct(a, t, s, eps)
        counts.append(len(eigh_calls))
        assert v.margin_lower <= v.margin
        if v.holds:
            assert v.margin_lower >= -VERDICT_MARGIN_TOL
    assert np.mean(counts) <= 2 and max(counts) <= 20


def test_direct_proximal_start_real_failing(rng, eigh_calls):
    """Real pairs that fail by at least 0.01 of ||T||_A ||S||_A: the first
    step from lambda = 0 is the proximal Newton step, not an interval cut
    (about 9 eigensolves per call with the cut)."""
    for n in (16, 64):
        counts = []
        while len(counts) < 20:
            a = random_psd(rng, n)
            t, s = random_a_bounded(rng, a), random_a_bounded(rng, a)
            scale = operator_norm_a(a, t) * operator_norm_a(a, s)
            # the attainment margin is eps * scale minus a term free of eps
            boundary = -op_orth_attainment_real(a, t, s, 0.0).margin / scale
            if boundary < 0.02:
                continue
            eps = float(rng.uniform(0.0, boundary - 0.01))
            eigh_calls.clear()
            v = op_orth_direct(a, t, s, eps)
            counts.append(len(eigh_calls))
            assert not v.holds and v.margin - v.margin_lower <= VERDICT_MARGIN_TOL / 4.0
        assert np.mean(counts) <= 7.5


@pytest.mark.parametrize("complex_field", [False, True])
def test_direct_multiple_top_eigenvalue_falls_back(rng, eigh_calls, complex_field):
    """With S = T of top multiplicity 2, the top eigenvalue of M* M is
    multiple at every lambda, so no Newton step is taken; with S an
    A-isometry it is multiple at lambda = 0. The ellipsoid still certifies."""
    for n in (3, 4):
        a = random_psd(rng, n, complex_field=complex_field)
        t = operator_with_multiplicity(rng, a, 2)
        cross = op_orth_theta_sweep_complex if complex_field else op_orth_attainment_real
        for s in (t, random_a_isometry(rng, a)):
            for eps in (0.0, 0.3, 0.8):
                eigh_calls.clear()
                v = op_orth_direct(a, t, s, eps)
                assert len(eigh_calls) <= 200
                assert v.holds == cross(a, t, s, eps).holds
                if s is t:
                    assert not v.holds
                tol = VERDICT_MARGIN_TOL
                assert v.margin_lower <= v.margin <= _polar_grid_min(a, t, s, eps) + tol / 4.0


def test_direct_complex_n128_memory(rng):
    a = random_psd(rng, 128, complex_field=True)
    t, s = random_a_bounded(rng, a), random_a_bounded(rng, a)
    tracemalloc.start()
    try:
        v = op_orth_direct(a, t, s, 0.2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert v.margin_lower <= v.margin
    assert peak < 8 * 2**20


# ----------------------------- attainment route --------------------------------


def test_attainment_reference_values():
    fwd = op_orth_attainment_real(A_REF, T_REF, S_REF, EPS_REF)
    assert fwd.holds
    # |<T(1,0), S(1,0)>_A| = 0 <= (1/3) * 2 * 1
    assert fwd.margin == pytest.approx(2.0 / 3.0, abs=1e-12)

    rev = op_orth_attainment_real(A_REF, S_REF, T_REF, EPS_REF)
    assert not rev.holds
    # |<S(0,1/sqrt 2), T(0,1/sqrt 2)>_A| = 1 > 2/3
    assert rev.margin == pytest.approx(2.0 / 3.0 - 1.0, abs=1e-12)


def test_attainment_witness_attains_and_reproduces(rng):
    a, t, s = _real_instance(rng, n=5, rank=3)
    if operator_norm_a(a, t) < 1e-9:
        pytest.skip("degenerate draw")
    v = op_orth_attainment_real(a, t, s, 0.3)
    x = v.witness.vector
    assert abs(norm_a(a, x) - 1.0) <= 1e-8
    assert abs(norm_a(a, t @ x) - operator_norm_a(a, t)) <= 1e-7
    value = abs(inner_a(a, t @ x, s @ x))
    margin = 0.3 * operator_norm_a(a, t) * operator_norm_a(a, s) - value
    assert margin == pytest.approx(v.margin, abs=1e-8)


def test_attainment_form_with_zero_hermitian_part():
    """A = T = I and S a rotation by pi/2: <Tx, Sx>_A = 0 for every x, so the
    attainment form's Hermitian part is 0, its least modulus is 0 and the
    real route holds with margin exactly eps, witnessed by an x with
    <Tx, Sx>_A = 0; the direct route agrees."""
    a = psd_decompose(np.eye(2))
    t, s = np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]])
    v = op_orth_attainment_real(a, t, s, 0.3)
    assert v.holds and v.margin == 0.3
    x = v.witness.vector
    assert norm_a(a, x) == pytest.approx(1.0) and inner_a(a, t @ x, s @ x) == 0.0
    assert op_orth_direct(a, t, s, 0.3).holds


def test_attainment_self_fails_below_one(rng):
    a, t, _ = _real_instance(rng, n=4, rank=4)
    for eps in (0.0, 0.5, 0.9):
        assert not op_orth_attainment_real(a, t, t, eps).holds


def test_attainment_rejects_complex_and_holds_at_zero_norm(rng):
    a = random_psd(rng, 3, rank=3, complex_field=True)
    t = random_a_bounded(rng, a)
    with pytest.raises(ComplexFieldError):
        op_orth_attainment_real(a, t, t, 0.1)
    ar = random_psd(rng, 3, rank=2)
    v = op_orth_attainment_real(ar, zero_a_norm_operator(rng, ar), random_a_bounded(rng, ar), 0.1)
    assert v.holds and v.margin == 0.0


@pytest.mark.parametrize("complex_field", [False, True])
@pytest.mark.parametrize("zero", ["T", "S"])
def test_zero_norm_holds_on_every_route(rng, complex_field, zero):
    """Where ||T||_A or ||S||_A is 0 the relation holds trivially, and every
    route answers as the direct route does: holds, margin exactly 0
    (margin_lower too where the route reports one), and T's first lifted
    attainment vector as witness, with theta = 0 over C. The pointwise route
    needs M_A^T inside M_A^S, which a zero T meets against an A-isometry."""
    a = random_psd(rng, 4, rank=2, complex_field=complex_field)
    route = op_orth_theta_sweep_complex if complex_field else op_orth_attainment_real
    pointwise = 0
    for other in (random_a_bounded(rng, a), random_a_isometry(rng, a)):
        z = zero_a_norm_operator(rng, a)
        t, s = (z, other) if zero == "T" else (other, z)
        direct = op_orth_direct(a, t, s, 0.3)
        assert direct.holds and direct.margin == 0.0
        verdicts = [route(a, t, s, 0.3)]
        if attainment_subset(a, t, s):
            verdicts.append(op_orth_pointwise(a, t, s, 0.3))
            pointwise += 1
        first = norm_attainment_set(a, t).attain_basis[:, 0]
        for v in verdicts:
            assert v.holds == direct.holds and v.margin == 0.0
            assert v.margin_lower == (0.0 if complex_field else None)
            np.testing.assert_allclose(v.witness.vector, first, rtol=0.0, atol=1e-15)
            assert v.witness.theta == (0.0 if complex_field else None)
    assert pointwise == (1 if zero == "T" else 2)


def test_zero_norm_on_a_zero_range():
    """With A = 0 every operator has A-norm 0, and the attainment witness is
    the zero vector, the one vector of R(A)."""
    for complex_field in (False, True):
        dtype = complex if complex_field else float
        a = psd_decompose(np.zeros((2, 2), dtype=dtype))
        t = np.eye(2, dtype=dtype)
        route = op_orth_theta_sweep_complex if complex_field else op_orth_attainment_real
        for decide in (op_orth_direct, route, op_orth_pointwise):
            v = decide(a, t, 2.0 * t, 0.3)
            assert v.holds and v.margin == 0.0
        assert not np.any(route(a, t, t, 0.3).witness.vector)


# ----------------------------- theta sweep -------------------------------------


def test_theta_sweep_orthogonal_images_hold(rng):
    # T and S map their shared attaining vector to A-orthogonal images, and
    # the attainment space is one-dimensional: the rotated form is the zero
    # form there, so the sweep holds for every epsilon.
    a = psd_decompose(np.eye(3).astype(complex))
    t = np.zeros((3, 3), dtype=complex)
    t[0, 0] = 1.0
    t[1, 1] = 0.25
    s = np.zeros((3, 3), dtype=complex)
    s[1, 0] = 1.0  # Se1 = e2 perp Te1 = e1
    s[2, 2] = 0.25
    for eps in (0.0, 0.3):
        assert op_orth_theta_sweep_complex(a, t, s, eps).holds


def test_theta_sweep_rejects_real(rng):
    a, t, s = _real_instance(rng)
    with pytest.raises(RealFieldError):
        op_orth_theta_sweep_complex(a, t, s, 0.1)


def test_theta_sweep_agrees_with_direct(rng):
    disagreements = []
    for k in range(200):
        n = int(rng.integers(2, 5))
        a = random_psd(rng, n, rank=int(rng.integers(1, n + 1)), complex_field=True)
        t = random_a_bounded(rng, a)
        s = random_a_bounded(rng, a)
        eps = float(rng.uniform(0.0, 0.99))
        if operator_norm_a(a, t) < 1e-9:
            continue
        direct = op_orth_direct(a, t, s, eps)
        sweep = op_orth_theta_sweep_complex(a, t, s, eps)
        if direct.holds != sweep.holds:
            disagreements.append((k, direct.margin, sweep.margin))
    assert disagreements == []


def test_theta_route_closed_form_for_simple_attainment(rng, eigh_calls, monkeypatch):
    """m = 1: W(F) is the point f = <T x, S x>_A at the attaining x, and the
    margin band - |f| matches a dense phase reference with no eigensolve:
    the two binds were made by the test's own norm calls."""
    eigvalsh_calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(
        np.linalg, "eigvalsh", lambda *args, **kw: eigvalsh_calls.append(1) or eigvalsh(*args, **kw)
    )
    thetas = np.linspace(0.0, np.pi, 20000, endpoint=False)
    step = thetas[1]
    checked = 0
    while checked < 50:
        n = int(rng.integers(2, 7))
        a = random_psd(rng, n, rank=int(rng.integers(1, n + 1)), complex_field=True)
        t, s = random_a_bounded(rng, a), random_a_bounded(rng, a)
        att = norm_attainment_set(a, t)
        if att.multiplicity != 1:
            continue
        checked += 1
        eps = float(rng.uniform(0.0, 0.99))
        scale = operator_norm_a(a, t) * operator_norm_a(a, s)
        band = eps * scale
        x = att.attain_basis[:, 0]
        f = complex(inner_a(a, t @ x, s @ x))

        def slack(theta):
            val = np.real(np.exp(-1j * theta) * f)
            return np.minimum(val + band, band - val)

        # the dense grid, refined by the parabola through its least point
        # and the two neighbours
        k = int(np.argmin(slack(thetas)))
        lo, mid, hi = slack(thetas[k] - step), slack(thetas[k]), slack(thetas[k] + step)
        curve = lo - 2.0 * mid + hi
        reference = mid - (hi - lo) ** 2 / (8.0 * curve) if curve > 0.0 else mid

        eigh_calls.clear()
        eigvalsh_calls.clear()
        v = op_orth_theta_sweep_complex(a, t, s, eps)
        assert len(eigh_calls) == 0 and eigvalsh_calls == []  # T and S bound above
        assert v.margin == pytest.approx(band - abs(f), abs=1e-12 * scale)
        assert v.margin == pytest.approx(reference, abs=1e-12 * scale)
        assert v.margin_lower == v.margin


def _form_instance(rng, form):
    """Complex pair (A, T, S) whose attainment form is unitarily similar to
    ``form``: A = I, T the identity on the first m coordinates and a strict
    contraction after them, S carrying form* in its leading block."""
    m = form.shape[0]
    n = m + 2
    a = psd_decompose(np.eye(n, dtype=complex))
    t = np.diag(np.r_[np.ones(m), 0.5, 0.3]).astype(complex)
    s = 0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    s[:m, :m] = form.conj().T
    return a, t, s


def _support_min(form):
    """Least support function of W(form) over a dense grid of the unit
    circle, an upper bound on -dist(0, W(form))."""
    ph = np.exp(-1j * np.linspace(0.0, 2.0 * np.pi, 20000, endpoint=False))[:, None, None]
    herm = (ph * form[None] + ph.conj() * form.conj().T[None]) / 2.0
    return float(np.min(np.linalg.eigvalsh(herm)[:, -1]))


def _form_families(rng, m):
    g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    u, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    spectrum = np.r_[0.0, rng.uniform(0.5, 2.0, m - 1)]
    return {
        # trace 0 puts 0 = tr(F) / m inside W(F), which has interior
        "interior": (g - np.trace(g) / m * np.eye(m), True),
        "generic": (g, False),
        # PSD and singular, rotated: 0 is an end of W(F)
        "psd_boundary": (phase * (u * spectrum) @ u.conj().T, False),
        # normal, spectrum on a segment through 0: W(F) has no interior
        "normal_segment": (phase * (u * np.r_[-1.0, spectrum[1:]]) @ u.conj().T, False),
        "shifted": (g + (2.0 + np.linalg.norm(g, 2)) * phase * np.eye(m), False),
    }


@pytest.mark.parametrize("m", [2, 3])
def test_theta_route_certified_for_multiple_attainment(rng, eigh_calls, m):
    """m >= 2: the margin is E - dist(0, W(F)) within tol / 4, certified from
    below, and exactly E where 0 lies inside W(F)."""
    for _ in range(3):
        for name, (form, interior) in _form_families(rng, m).items():
            a, t, s = _form_instance(rng, form)
            tol = VERDICT_MARGIN_TOL
            for eps in (0.0, 0.3, 0.8):
                band = eps * operator_norm_a(a, s)  # ||T||_A = 1
                reference = band + min(0.0, _support_min(form))
                eigh_calls.clear()
                v = op_orth_theta_sweep_complex(a, t, s, eps)
                assert len(eigh_calls) <= 200, name
                assert v.margin_lower <= v.margin <= reference + tol / 4.0, name
                assert v.margin_lower <= reference + 1e-12, name
                if interior:
                    assert v.margin == band
                if name in ("psd_boundary", "normal_segment"):
                    assert v.margin >= band - tol / 4.0, name
                if name == "shifted":  # dist(0, W(F)) >= 2
                    assert v.margin <= band - 1.5 and (eps > 0.0 or not v.holds), name
                assert v.holds == op_orth_direct(a, t, s, eps).holds, name


@pytest.mark.parametrize("m", [2, 3])
def test_theta_route_hull_certificate(rng, eigh_calls, m):
    """Trace-free F puts 0 inside W(F): once 0 lies inside the hull of the
    points v* F v of W(F) that the queries meet, the route proves
    dist(0, W(F)) = 0 and stops with margin = margin_lower = E (about 45
    eigensolves per call when the ellipsoid has to shrink onto d = 0)."""
    for _ in range(5):
        g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        a, t, s = _form_instance(rng, g - np.trace(g) / m * np.eye(m))
        for eps in (0.0, 0.3, 0.8):
            band = eps * operator_norm_a(a, s)  # ||T||_A = 1
            eigh_calls.clear()
            v = op_orth_theta_sweep_complex(a, t, s, eps)
            assert len(eigh_calls) <= 12
            assert v.margin == v.margin_lower == band
            assert v.holds == op_orth_direct(a, t, s, eps).holds


def test_route_equivalence_real_random(rng):
    disagreements = []
    for k in range(300):
        a, t, s = _real_instance(rng)
        eps = float(rng.uniform(0.0, 0.99))
        if operator_norm_a(a, t) < 1e-9:
            continue
        direct = op_orth_direct(a, t, s, eps)
        attain = op_orth_attainment_real(a, t, s, eps)
        if direct.holds != attain.holds:
            disagreements.append((k, direct.margin, attain.margin))
    assert disagreements == []


# ----------------------------- subset and pointwise ----------------------------


def test_attainment_subset_reference_and_trivial(rng):
    assert not attainment_subset(A_REF, T_REF, S_REF)
    a, t, _ = _real_instance(rng)
    assert attainment_subset(a, t, t)


def test_attainment_subset_constructed_pair(rng):
    a = random_psd(rng, 5, rank=4)
    t, s = shared_attainment_pair(rng, a)
    assert attainment_subset(a, t, s)
    assert attainment_subset(a, s, t)


@pytest.mark.parametrize("factor, expected", [(0.5, True), (0.9, True), (1.1, False), (2.0, False)])
@pytest.mark.parametrize("m", [1, 2])
def test_attainment_subset_decides_at_sine_tol(factor, expected, m):
    """Containment is decided on the largest principal-angle sine between the
    attainment spans against _SUBSET_SINE_TOL, for a simple and a double
    cluster: S is T with its domain turned in the plane of e_m and e_{m+1},
    so one attaining direction leaves T's span by an angle whose sine is
    ``factor`` times the tolerance."""
    a = psd_decompose(np.eye(5))
    t = np.diag([3.0] * m + [1.0] * (5 - m))
    c, s = math.cos(math.asin(factor * _SUBSET_SINE_TOL)), factor * _SUBSET_SINE_TOL
    turn = np.eye(5)
    turn[m - 1 : m + 1, m - 1 : m + 1] = [[c, -s], [s, c]]
    s_op = t @ turn.T
    assert attainment_subset(a, t, s_op) is expected
    assert attainment_subset(a, s_op, t) is expected


def test_pointwise_requires_subset():
    with pytest.raises(AttainmentSubsetError):
        op_orth_pointwise(A_REF, T_REF, S_REF, EPS_REF)


def test_pointwise_self_fails(rng):
    a, t, _ = _real_instance(rng, n=4, rank=4)
    assert not op_orth_pointwise(a, t, t, 0.5).holds


def test_pointwise_orthogonal_images_hold():
    # S copies T on the attainment direction rotated into an A-orthogonal
    # image; both operators attain exactly at e1.
    a = psd_decompose(np.eye(3))
    t = np.diag([2.0, 0.5, 0.5])
    s = np.zeros((3, 3))
    s[1, 0] = 2.0
    s[2, 2] = 0.5
    assert attainment_subset(a, t, s)
    verdict = op_orth_pointwise(a, t, s, 0.0)
    assert verdict.holds
    assert op_orth_direct(a, t, s, 0.0).holds


def test_pointwise_agrees_with_direct_on_shared_attainment(rng):
    for _ in range(40):
        n = int(rng.integers(2, 6))
        a = random_psd(rng, n, rank=int(rng.integers(1, n + 1)))
        t, s = shared_attainment_pair(rng, a)
        eps = float(rng.uniform(0.1, 0.9))
        assert op_orth_pointwise(a, t, s, eps).holds == op_orth_direct(a, t, s, eps).holds


@pytest.mark.parametrize("multiplicity", [1, 2])
def test_complex_pointwise_is_the_theta_route(rng, multiplicity):
    """Over C the pointwise route is the theta sweep on the attainment form,
    reported as POINTWISE, and agrees with the direct route."""
    for _ in range(10):
        n = int(rng.integers(2, 6))
        a = random_psd(rng, n, rank=int(rng.integers(multiplicity, n + 1)), complex_field=True)
        t, s = shared_attainment_pair(rng, a, multiplicity=multiplicity)
        eps = float(rng.uniform(0.1, 0.9))
        pointwise = op_orth_pointwise(a, t, s, eps)
        sweep = op_orth_theta_sweep_complex(a, t, s, eps)
        assert pointwise.method is Method.POINTWISE
        assert pointwise.margin == sweep.margin
        assert pointwise.margin_lower == sweep.margin_lower
        assert pointwise.holds == sweep.holds == op_orth_direct(a, t, s, eps).holds


def test_complex_pointwise_requires_subset():
    a = psd_decompose(np.eye(2, dtype=complex))
    t = np.diag([2.0, 1.0j])
    s = np.diag([1.0, 2.0j])
    with pytest.raises(AttainmentSubsetError):
        op_orth_pointwise(a, t, s, 0.3)


# ----------------------------- structural invariants ---------------------------


def test_operator_homogeneity(rng):
    for _ in range(50):
        a, t, s = _real_instance(rng)
        eps = float(rng.uniform(0.0, 0.9))
        ct = float(rng.uniform(0.2, 4.0)) * float(rng.choice([-1, 1]))
        cs = float(rng.uniform(0.2, 4.0)) * float(rng.choice([-1, 1]))
        assert (
            op_orth_direct(a, t, s, eps).holds
            == op_orth_direct(a, ct * t, cs * s, eps).holds
        )


def test_epsilon_monotonicity(rng):
    for _ in range(50):
        a, t, s = _real_instance(rng)
        lo = float(rng.uniform(0.0, 0.7))
        hi = float(rng.uniform(lo, 0.99))
        v_lo = op_orth_direct(a, t, s, lo)
        v_hi = op_orth_direct(a, t, s, hi)
        assert v_hi.margin >= v_lo.margin - 1e-10
        if v_lo.holds:
            assert v_hi.holds


def test_subset_reverses_orthogonality(rng):
    seen_premise = 0
    for _ in range(120):
        n = int(rng.integers(2, 6))
        a = random_psd(rng, n, rank=int(rng.integers(1, n + 1)))
        t, s = shared_attainment_pair(rng, a)
        eps = float(rng.uniform(0.3, 0.9))
        if op_orth_direct(a, t, s, eps).holds:
            seen_premise += 1
            assert op_orth_direct(a, s, t, eps).holds
    assert seen_premise >= 10  # the construction must actually exercise the premise


# ----------------------------- one verdict rule --------------------------------

# decider -> (what it decides, fields it accepts)
DECIDERS = {
    "is_a_orthogonal": (lambda a, x, y, eps: is_a_orthogonal(a, x, y), "vec", (False, True)),
    "is_eps_orthogonal": (is_eps_orthogonal, "vec", (False, True)),
    "is_chmielinski_orthogonal_vec": (is_chmielinski_orthogonal_vec, "vec", (False, True)),
    "op_orth_direct": (op_orth_direct, "op", (False, True)),
    "op_orth_attainment_real": (op_orth_attainment_real, "op", (False,)),
    "op_orth_theta_sweep_complex": (op_orth_theta_sweep_complex, "op", (True,)),
    "op_orth_pointwise": (op_orth_pointwise, "pointwise", (False,)),
}


def _decider_cases(kind, complex_field, rng):
    """Random pairs, an A-orthogonal pair and a zero second argument, over
    epsilons from 0 to near 1, so verdicts land on both sides and on the
    boundary."""
    for eps in (0.0, 0.2, 0.6, 0.95):
        for _ in range(3):
            n = int(rng.integers(2, 5))
            a = random_psd(rng, n, rank=int(rng.integers(1, n + 1)), complex_field=complex_field)
            if kind == "vec":
                x, y = random_vector(rng, n, complex_field), random_vector(rng, n, complex_field)
                pairs = [(x, y), (x, orthogonal_decomposition(a, x, y)), (x, np.zeros_like(y))]
            elif kind == "op":
                t, s = random_a_bounded(rng, a), random_a_bounded(rng, a)
                pairs = [(t, s), (t, np.zeros_like(s))]
            else:
                pairs = [shared_attainment_pair(rng, a, multiplicity=1 + int(rng.integers(2)))]
            for first, second in pairs:
                yield a, first, second, eps


@pytest.mark.parametrize("name", list(DECIDERS))
def test_every_decider_returns_one_verdict_type(rng, name):
    decide, kind, fields = DECIDERS[name]
    seen = set()
    for complex_field in fields:
        for a, first, second, eps in _decider_cases(kind, complex_field, rng):
            v = decide(a, first, second, eps)
            tol = VERDICT_MARGIN_TOL
            assert isinstance(v, OrthoVerdict)
            if kind == "vec":
                # one relative rule, on the linear slack (not on the direct
                # route's squared margin); an A-null argument holds
                if is_a_null(a, first) or is_a_null(a, second):
                    assert v.holds and v.boundary and v.margin == 0.0
                else:
                    scale = norm_a(a, first) * norm_a(a, second)
                    slack = (0.0 if name == "is_a_orthogonal" else eps) * scale
                    slack -= abs(inner_a(a, first, second))
                    assert v.holds == (slack >= -tol * scale)
                    assert v.boundary == (abs(slack) <= tol * scale)
            else:
                assert v.boundary == (abs(v.margin) <= tol)
                assert v.holds == (v.margin >= -tol)
            seen.add(v.holds)
    assert seen == {True, False}
