"""Acceptance criteria, one test per criterion, each printing a PASS line.

Tolerances are pinned here and nowhere else.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from semiortho import (
    cli,
    directional_derivative,
    example_3_1,
    inner_a,
    is_chmielinski_orthogonal_vec,
    is_eps_orthogonal,
    left_parameters,
    left_witness,
    norm_a,
    op_orth_attainment_real,
    op_orth_direct,
    op_orth_theta_sweep_complex,
    operator_norm_a,
    orthogonal_decomposition,
    right_witness,
    run_selftest,
    tilde_reduce,
)
from semiortho.operators import is_a_isometry
from semiortho.sampling import (
    eps_orthogonal_probe,
    forced_inner_pair,
    operator_with_multiplicity,
    random_a_bounded,
    random_a_isometry,
    random_psd,
    random_vector,
    rank_one_operator,
)

EPS_CYCLE = (0.0, 0.1, 0.5, 0.9)


@pytest.fixture
def announce(capsys):
    def _p(criterion: str, detail: str) -> None:
        with capsys.disabled():
            print(f"ACCEPTANCE {criterion} PASS: {detail}")

    return _p


def test_criterion_1_reference_golden(announce):
    start = time.perf_counter()
    ref = example_3_1()
    assert abs(ref.norm_t - 2.0) <= 1e-12
    assert abs(ref.norm_s - 1.0) <= 1e-12

    vt = ref.attain_t.attain_basis[:, 0]
    assert ref.attain_t.multiplicity == 1
    assert min(np.linalg.norm(vt - [1, 0]), np.linalg.norm(vt + [1, 0])) <= 1e-9
    vs = ref.attain_s.attain_basis[:, 0]
    target = np.array([0.0, 1.0 / math.sqrt(2.0)])
    assert ref.attain_s.multiplicity == 1
    assert min(np.linalg.norm(vs - target), np.linalg.norm(vs + target)) <= 1e-9

    assert ref.t_perp_s_direct.holds and ref.t_perp_s_attainment.holds
    assert not ref.s_perp_t_direct.holds and not ref.s_perp_t_attainment.holds
    elapsed = time.perf_counter() - start
    assert elapsed < 0.1, f"golden test took {elapsed:.3f}s"
    announce("C1", f"reference instance reproduced in {elapsed * 1e3:.1f} ms")


def test_criterion_2_vector_route_equivalence(announce):
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    disagreements = 0
    for k in range(1000):
        complex_field = k >= 500
        n = int(rng.integers(2, 7))
        a = random_psd(rng, n, rank=int(rng.integers(1, n + 1)), complex_field=complex_field)
        x = random_vector(rng, n, complex_field)
        y = random_vector(rng, n, complex_field)
        eps = float(rng.uniform(0.0, 0.99))
        if rng.random() < 0.4:
            target = eps * norm_a(a, x) * float(rng.uniform(0.0, 1.5))
            x, y = forced_inner_pair(rng, a, target)
        inner = is_eps_orthogonal(a, x, y, eps)
        direct = is_chmielinski_orthogonal_vec(a, x, y, eps)
        if inner.holds != direct.holds and (
            abs(inner.margin) > 1e-8 or abs(direct.margin) > 1e-8
        ):
            disagreements += 1
    elapsed = time.perf_counter() - start
    assert disagreements == 0
    assert elapsed < 10.0, f"equivalence sweep took {elapsed:.1f}s"
    announce("C2", f"1000 vector-route trials agree in {elapsed:.2f}s")


def test_criterion_3_characterization_both_directions(announce):
    rng = np.random.default_rng(303)
    forward_premises = 0
    for _ in range(500):
        n = int(rng.integers(2, 7))
        complex_field = bool(rng.random() < 0.5)
        a = random_psd(rng, n, rank=int(rng.integers(1, n + 1)), complex_field=complex_field)
        x = random_vector(rng, n, complex_field)
        y = random_vector(rng, n, complex_field)
        eps = float(rng.uniform(0.0, 0.99))
        if rng.random() < 0.6:
            target = eps * norm_a(a, x) * float(rng.uniform(0.0, 1.2))
            x, y = forced_inner_pair(rng, a, target)
        z = orthogonal_decomposition(a, x, y)
        assert abs(inner_a(a, x, z)) <= 1e-10 * (1.0 + norm_a(a, x) * norm_a(a, z))
        if is_eps_orthogonal(a, x, y, eps).holds:
            forward_premises += 1
            ny = norm_a(a, y)
            assert norm_a(a, z - y) <= eps * ny + 1e-10 * (1.0 + ny)
    assert forward_premises >= 100

    reverse = 0
    while reverse < 500:
        n = int(rng.integers(2, 7))
        complex_field = bool(rng.random() < 0.5)
        a = random_psd(rng, n, rank=int(rng.integers(1, n + 1)), complex_field=complex_field)
        x = random_vector(rng, n, complex_field)
        eps = float(rng.uniform(0.0, 0.99))
        z = orthogonal_decomposition(a, x, random_vector(rng, n, complex_field))
        nz = norm_a(a, z)
        if nz < 1e-5 * max(1.0, float(np.linalg.norm(z))):
            continue  # below the quadratic-form noise floor
        d = random_vector(rng, n, complex_field)
        nd = norm_a(a, d)
        if nd < 1e-10:
            continue
        y = z + d * (0.9 * eps * nz / (1.0 + eps) / nd)
        assert is_eps_orthogonal(a, x, y, eps).holds
        reverse += 1
    announce("C3", f"500 forward ({forward_premises} premises hit) and 500 reverse trials hold")


def test_criterion_4_operator_route_equivalence(announce):
    rng = np.random.default_rng(404)
    start = time.perf_counter()
    for _ in range(300):
        n = int(rng.integers(2, 7))
        a = random_psd(rng, n, rank=int(rng.integers(1, n + 1)))
        t = random_a_bounded(rng, a)
        s = random_a_bounded(rng, a)
        eps = float(rng.uniform(0.0, 0.99))
        if operator_norm_a(a, t) < 1e-9:
            continue
        direct = op_orth_direct(a, t, s, eps)
        attain = op_orth_attainment_real(a, t, s, eps)
        assert direct.holds == attain.holds, (
            f"real route disagreement: direct {direct.margin}, attain {attain.margin}"
        )
    for _ in range(200):
        n = int(rng.integers(2, 7))
        a = random_psd(rng, n, rank=int(rng.integers(1, n + 1)), complex_field=True)
        t = random_a_bounded(rng, a)
        s = random_a_bounded(rng, a)
        eps = float(rng.uniform(0.0, 0.99))
        if operator_norm_a(a, t) < 1e-9:
            continue
        direct = op_orth_direct(a, t, s, eps)
        sweep = op_orth_theta_sweep_complex(a, t, s, eps)
        assert direct.holds == sweep.holds, (
            f"complex route disagreement: direct {direct.margin}, sweep {sweep.margin}"
        )
    announce("C4", f"300 real + 200 complex instances agree in {time.perf_counter() - start:.1f}s")


def test_criterion_5_tilde_reduction(announce):
    rng = np.random.default_rng(505)
    for _ in range(300):
        n = int(rng.integers(3, 8))
        rank = int(rng.integers(1, n))  # rank deficient
        complex_field = bool(rng.random() < 0.5)
        a = random_psd(rng, n, rank=rank, complex_field=complex_field)
        t = random_a_bounded(rng, a)
        s = random_a_bounded(rng, a)
        tilde_t = tilde_reduce(a, t)
        scale = 1.0 + float(np.linalg.norm(tilde_t, 2))
        assert abs(operator_norm_a(a, t) - np.linalg.norm(tilde_t, 2)) <= 1e-9 * scale
        lam = complex(rng.standard_normal(), rng.standard_normal()) if complex_field else float(
            rng.standard_normal()
        )
        add = np.max(np.abs(tilde_reduce(a, t + s) - tilde_t - tilde_reduce(a, s)))
        hom = np.max(np.abs(tilde_reduce(a, lam * t) - lam * tilde_t))
        entry_scale = 1.0 + float(np.max(np.abs(tilde_t))) * (1.0 + abs(lam))
        assert add <= 1e-10 * entry_scale and hom <= 1e-10 * entry_scale
    announce("C5", "300 rank-deficient reductions preserve the norm and are linear")


def test_criterion_6_right_symmetry(announce):
    rng = np.random.default_rng(606)
    start = time.perf_counter()
    verified = 0
    while verified < 100:
        n = int(rng.integers(2, 7))
        rank = int(rng.integers(2, n + 1))
        a = random_psd(rng, n, rank=rank)
        t = random_a_bounded(rng, a)
        if is_a_isometry(a, t).ok:
            continue
        eps = EPS_CYCLE[verified % 4]
        wc = right_witness(a, t, eps)
        assert op_orth_direct(a, wc.witness, t, eps).holds
        assert not op_orth_direct(a, t, wc.witness, eps).holds
        verified += 1

    isometry_checks = 0
    for k in range(100):
        n = int(rng.integers(2, 7))
        rank = int(rng.integers(2, n + 1))
        a = random_psd(rng, n, rank=rank)
        t = random_a_isometry(rng, a)
        eps = EPS_CYCLE[k % 4]
        for j in range(50):
            s = eps_orthogonal_probe(rng, a, t, eps)
            if j % 10 == 0:  # spot-check the construction's premise
                assert op_orth_direct(a, s, t, eps).holds
            assert op_orth_direct(a, t, s, eps).holds
            isometry_checks += 1
    elapsed = time.perf_counter() - start
    assert isometry_checks == 5000
    announce(
        "C6", f"100 witnesses verified and 5000 isometry-direction checks hold in {elapsed:.1f}s"
    )


def test_criterion_7_left_symmetry(announce):
    rng = np.random.default_rng(707)
    makers = (
        lambda a: operator_with_multiplicity(rng, a, min(2, a.rank)),
        lambda a: rank_one_operator(rng, a),
        lambda a: operator_with_multiplicity(rng, a, 1),
    )
    branch_counts = [0, 0, 0]
    for k in range(100):
        n = int(rng.integers(2, 7))
        rank = int(rng.integers(2, n + 1))
        a = random_psd(rng, n, rank=rank)
        branch = k % 3
        t = makers[branch](a)
        eps = EPS_CYCLE[k % 4]
        wc = left_witness(a, t, eps)
        branch_counts[branch] += 1
        assert op_orth_direct(a, t, wc.witness, eps).holds
        assert not op_orth_direct(a, wc.witness, t, eps).holds
    assert all(c >= 30 for c in branch_counts)

    for eps in np.linspace(0.0, 0.99, 100):
        p = left_parameters(float(eps))
        assert p.a * p.eps1 > eps
        assert p.alpha_lo < 1.0
    announce("C7", f"100 left witnesses verified across branches {branch_counts}; parameter-inequality grid holds")


def test_criterion_8_directional_derivative(announce):
    rng = np.random.default_rng(808)
    h = 1e-6
    checked = 0
    while checked < 200:
        n = int(rng.integers(2, 7))
        complex_field = bool(rng.random() < 0.5)
        a = random_psd(rng, n, rank=int(rng.integers(1, n + 1)), complex_field=complex_field)
        x = random_vector(rng, n, complex_field)
        nx = norm_a(a, x)
        if nx < 1e-6:
            continue
        x = x / nx
        y = random_vector(rng, n, complex_field)
        exact = directional_derivative(a, x, y)
        fd = (norm_a(a, x + h * y) - norm_a(a, x - h * y)) / (2.0 * h)
        assert abs(exact - fd) <= 1e-5 * (1.0 + abs(exact))
        checked += 1
    announce("C8", "200 central finite differences match the inner-product form")


def test_criterion_9_invariant_suites_and_selftest(announce):
    start = time.perf_counter()
    for seed in (42, 7):
        outcome = run_selftest(seed, 300)
        failing = [r.name for r in outcome.results if not r.passed]
        assert outcome.passed, f"seed {seed} failing suites: {failing}"
        for name in (
            "vec_symmetry",
            "vec_homogeneity",
            "op_homogeneity",
            "op_eps_monotonicity",
            "op_zero_degeneracy",
            "vec_degeneracy",
        ):
            result = next(r for r in outcome.results if r.name == name)
            assert result.trials >= 300, f"{name} ran only {result.trials} trials"

    exit_code = cli.main(["selftest", "--seed", "42", "--trials", "60"])
    assert exit_code == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"invariant suites took {elapsed:.1f}s"
    announce("C9", f"selftests pass at seeds 42 and 7 in {elapsed:.1f}s")
