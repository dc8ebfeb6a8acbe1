from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from semiortho import (
    AttainmentSubsetError,
    ComplexFieldError,
    RealFieldError,
    ZeroANormError,
    attainment_subset,
    bind_operator,
    direct_objective,
    inner_a,
    norm_a,
    norm_attainment_set,
    op_orth_attainment_real,
    op_orth_direct,
    op_orth_pointwise,
    op_orth_theta_sweep_complex,
    operator_norm_a,
    psd_decompose,
)
from semiortho.sampling import (
    operator_with_multiplicity,
    random_a_bounded,
    random_a_isometry,
    random_psd,
    shared_attainment_pair,
    zero_a_norm_operator,
)

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


def test_direct_zero_t_holds(rng):
    a = random_psd(rng, 4, rank=2)
    z = zero_a_norm_operator(rng, a)
    s = random_a_bounded(rng, a)
    assert op_orth_direct(a, z, s, 0.1).holds
    assert op_orth_direct(a, s, z, 0.1).holds


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
        tol = a.tol.verdict_margin_tol
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
            assert v.margin_lower >= -a.tol.verdict_margin_tol


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
    direct route the attainment route's only eigensolve is that of its m x m
    attainment form."""
    for n in (4, 16):
        a = random_psd(rng, n, rank=n - 1)
        t, s = random_a_bounded(rng, a), random_a_bounded(rng, a)
        op_orth_direct(a, t, s, 0.3)
        eigh_calls.clear()
        op_orth_attainment_real(a, t, s, 0.3)
        assert len(eigh_calls) == 1


def test_direct_newton_steps_on_failing_pairs(rng, eigh_calls):
    """Complex pairs that fail by at least 0.01 of ||T||_A ||S||_A: the
    minimizer is smooth there, and Newton steps certify "fails" in a few
    eigensolves (about 85 per call with the ellipsoid alone)."""
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
            assert not v.holds and v.margin - v.margin_lower <= a.tol.verdict_margin_tol / 4.0
        assert np.mean(counts) <= 25


def test_direct_proximal_start_near_boundary_complex(rng, eigh_calls):
    """Complex n = 4 pairs with epsilon 1e-6 to 1e-3 of ||T||_A ||S||_A below
    the boundary put the minimizer next to the kink at lambda = 0. The
    proximal Newton step from 0 reaches it in a few eigensolves (about 60
    per call with ellipsoid cuts until the first Newton step)."""
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
            assert v.margin_lower >= -a.tol.verdict_margin_tol
    assert np.mean(counts) <= 15


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
            assert not v.holds and v.margin - v.margin_lower <= a.tol.verdict_margin_tol / 4.0
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
                tol = a.tol.verdict_margin_tol
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


def test_attainment_self_fails_below_one(rng):
    a, t, _ = _real_instance(rng, n=4, rank=4)
    for eps in (0.0, 0.5, 0.9):
        assert not op_orth_attainment_real(a, t, t, eps).holds


def test_attainment_rejects_complex_and_zero(rng):
    a = random_psd(rng, 3, rank=3, complex_field=True)
    t = random_a_bounded(rng, a)
    with pytest.raises(ComplexFieldError):
        op_orth_attainment_real(a, t, t, 0.1)
    ar = random_psd(rng, 3, rank=2)
    with pytest.raises(ZeroANormError):
        op_orth_attainment_real(ar, zero_a_norm_operator(rng, ar), random_a_bounded(rng, ar), 0.1)


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
            tol = a.tol.verdict_margin_tol
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
