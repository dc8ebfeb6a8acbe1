from __future__ import annotations

import json

import numpy as np
import pytest

from semiortho import cli
from semiortho.cli import EXIT_DISAGREE, EXIT_OK, EXIT_PARSE, EXIT_PRECONDITION, EXIT_PROPERTY
from semiortho import selftest as selftest_mod

from conftest import write_instance

REF = {
    "field": "real",
    "A": [[1.0, 0.0], [0.0, 2.0]],
    "T": [[2.0, 0.0], [0.0, 1.0]],
    "S": [[0.0, 0.0], [0.0, 1.0]],
    "epsilon": 1.0 / 3.0,
}


def _read(path):
    return json.loads(path.read_text())


# ----------------------------- norm -------------------------------------------


def test_norm_reference(tmp_path, capsys):
    inst = write_instance(tmp_path / "i.json", **REF)
    out = tmp_path / "report.json"
    assert cli.main(["norm", inst, "--json-out", str(out)]) == EXIT_OK
    report = _read(out)
    assert report["schema"] == 1
    assert report["derived"]["norm_t"] == pytest.approx(2.0, abs=1e-12)
    assert report["derived"]["rank_a"] == 2
    basis = np.array(report["derived"]["attainment_basis"])
    assert np.allclose(np.abs(basis), [[1.0, 0.0]], atol=1e-9)
    assert report["derived"]["isometry"] is False
    assert "||T||_A = 2" in capsys.readouterr().out


def test_norm_identity_isometry(tmp_path):
    inst = write_instance(
        tmp_path / "i.json",
        field="real",
        A=[[1.0, 0.0], [0.0, 2.0]],
        T=[[1.0, 0.0], [0.0, 1.0]],
    )
    out = tmp_path / "r.json"
    assert cli.main(["norm", inst, "--json-out", str(out)]) == EXIT_OK
    assert _read(out)["derived"]["isometry"] is True


def test_norm_rank_deficient(tmp_path):
    inst = write_instance(
        tmp_path / "i.json",
        field="real",
        A=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]],
        T=[[1.0, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.0]],
    )
    out = tmp_path / "r.json"
    assert cli.main(["norm", inst, "--json-out", str(out)]) == EXIT_OK
    derived = _read(out)["derived"]
    assert derived["rank_a"] == 2 and derived["dim"] == 3 and derived["null_dim"] == 1
    assert len(derived["null_basis"]) == 1


# ----------------------------- check ------------------------------------------


def test_check_reference_both_orders(tmp_path):
    inst = write_instance(tmp_path / "i.json", **REF)
    out = tmp_path / "r.json"
    assert cli.main(["check", inst, "--mode", "op", "--route", "auto", "--json-out", str(out)]) == EXIT_OK
    report = _read(out)
    assert report["routes_agree"] is True
    assert all(v["holds"] for v in report["verdicts"])

    swapped = dict(REF)
    swapped["T"], swapped["S"] = REF["S"], REF["T"]
    inst2 = write_instance(tmp_path / "j.json", **swapped)
    out2 = tmp_path / "r2.json"
    assert cli.main(["check", inst2, "--route", "auto", "--json-out", str(out2)]) == EXIT_OK
    report2 = _read(out2)
    assert report2["routes_agree"] is True
    assert not any(v["holds"] for v in report2["verdicts"])


def test_check_vec_orthogonal(tmp_path):
    inst = write_instance(
        tmp_path / "i.json",
        field="real",
        A=[[1.0, 0.0], [0.0, 1.0]],
        x=[1.0, 0.0],
        y=[0.0, 1.0],
        epsilon=0.0,
    )
    out = tmp_path / "r.json"
    assert cli.main(["check", inst, "--mode", "vec", "--json-out", str(out)]) == EXIT_OK
    report = _read(out)
    assert all(v["holds"] for v in report["verdicts"])
    assert report["routes_agree"] is True


def test_check_complex_instance(tmp_path):
    inst = write_instance(
        tmp_path / "i.json",
        field="complex",
        A=[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        T=[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
        S=[[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.5]]],  # S = iT
        epsilon=0.0,
    )
    out = tmp_path / "r.json"
    assert cli.main(["check", inst, "--route", "auto", "--json-out", str(out)]) == EXIT_OK
    report = _read(out)
    assert report["routes_agree"] is True
    assert not any(v["holds"] for v in report["verdicts"])
    assert {v["route"] for v in report["verdicts"]} == {"direct", "theta"}


def test_check_epsilon_override(tmp_path):
    inst = write_instance(tmp_path / "i.json", **REF)
    out = tmp_path / "r.json"
    # with a large epsilon even the reversed pair becomes orthogonal
    swapped = dict(REF)
    swapped["T"], swapped["S"] = REF["S"], REF["T"]
    inst2 = write_instance(tmp_path / "j.json", **swapped)
    assert cli.main(["check", inst2, "--epsilon", "0.95", "--json-out", str(out)]) == EXIT_OK
    assert all(v["holds"] for v in _read(out)["verdicts"])


def test_check_route_mode_mismatch(tmp_path):
    inst = write_instance(tmp_path / "i.json", **REF)
    assert cli.main(["check", inst, "--mode", "vec", "--route", "theta"]) == EXIT_PARSE
    assert cli.main(["check", inst, "--mode", "op", "--route", "inner"]) == EXIT_PARSE


def test_check_route_disagreement_is_alarm(tmp_path, monkeypatch):
    inst = write_instance(tmp_path / "i.json", **REF)

    def broken(a, t, s, eps):
        from semiortho.orthogonality import OperatorOrthoVerdict
        from semiortho.vectors import Method

        return OperatorOrthoVerdict(holds=False, margin=-1.0, method=Method.ATTAINMENT)

    monkeypatch.setattr(cli, "op_orth_attainment_real", broken)
    assert cli.main(["check", inst, "--route", "auto"]) == EXIT_DISAGREE


# ----------------------------- error exit codes --------------------------------


def test_parse_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["norm", str(bad)]) == EXIT_PARSE

    missing = write_instance(tmp_path / "m.json", field="real", T=[[1.0]])
    assert cli.main(["norm", missing]) == EXIT_PARSE

    bad_eps = write_instance(
        tmp_path / "e.json", field="real", A=[[1.0]], T=[[1.0]], epsilon=1.5
    )
    assert cli.main(["check", bad_eps]) == EXIT_PARSE

    bad_tol = write_instance(
        tmp_path / "t.json", field="real", A=[[1.0]], T=[[1.0]], tolerances={"nope": 1.0}
    )
    assert cli.main(["norm", bad_tol]) == EXIT_PARSE

    assert cli.main(["check", write_instance(tmp_path / "v.json", **REF), "--mode", "vec"]) == EXIT_PARSE


def test_non_finite_instances_rejected(tmp_path, capsys):
    """json reads NaN, Infinity and 1e400; none of them may reach a decider."""
    cases = {
        "a_inf": ("check", dict(REF, A=[[1.0, 0.0], [0.0, float("inf")]])),
        "t_nan": ("check", dict(REF, T=[[float("nan"), 0.0], [0.0, 1.0]])),
        "t_overflow": ("norm", dict(REF, T=[[10**400, 0], [0, 1]])),
        "x_inf": ("check", dict(REF, x=[1.0, float("-inf")], y=[0.0, 1.0])),
        "complex_nan": ("norm", dict(REF, field="complex", A=[[[1.0, 0.0], [0.0, 0.0]],
                                                              [[0.0, 0.0], [1.0, float("nan")]]],
                                     T=[[1, 0], [0, 1]], S=[[0, 0], [0, 1]])),
        "tol_nan": ("norm", dict(REF, tolerances={"rank_tol": float("nan")})),
    }
    for name, (command, fields) in cases.items():
        inst = write_instance(tmp_path / f"{name}.json", **fields)
        mode = ["--mode", "vec"] if "x" in fields else []
        assert cli.main([command, inst, *mode]) == EXIT_PARSE, name
    assert "non-finite" in capsys.readouterr().err


def test_precondition_errors(tmp_path):
    not_psd = write_instance(
        tmp_path / "n.json", field="real", A=[[1.0, 0.0], [0.0, -0.5]], T=[[1.0, 0.0], [0.0, 1.0]]
    )
    assert cli.main(["norm", not_psd]) == EXIT_PRECONDITION

    unbounded = write_instance(
        tmp_path / "u.json",
        field="real",
        A=[[1.0, 0.0], [0.0, 0.0]],
        T=[[0.0, 1.0], [0.0, 0.0]],
    )
    assert cli.main(["norm", unbounded]) == EXIT_PRECONDITION

    complex_classify = write_instance(
        tmp_path / "c.json",
        field="complex",
        A=[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        T=[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
    )
    assert cli.main(["classify", complex_classify, "--side", "right"]) == EXIT_PRECONDITION


# ----------------------------- classify ----------------------------------------


def test_classify_reference_right(tmp_path):
    inst = write_instance(tmp_path / "i.json", **REF)
    out = tmp_path / "r.json"
    assert cli.main(["classify", inst, "--side", "right", "--json-out", str(out)]) == EXIT_OK
    cls = _read(out)["classification"]
    assert cls["kind"] == "not_right_symmetric"
    assert cls["witness_verified"] is True
    assert cls["construction"] == "right_proof"


def test_classify_identity_right(tmp_path):
    inst = write_instance(
        tmp_path / "i.json", field="real", A=[[1.0, 0.0], [0.0, 2.0]], T=[[1.0, 0.0], [0.0, 1.0]]
    )
    out = tmp_path / "r.json"
    assert cli.main(["classify", inst, "--side", "right", "--json-out", str(out)]) == EXIT_OK
    assert _read(out)["classification"]["kind"] == "right_symmetric"


def test_classify_left_zero_norm(tmp_path):
    inst = write_instance(
        tmp_path / "i.json",
        field="real",
        A=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]],
        T=[[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 1.0, 0.5]],
        epsilon=0.3,
    )
    out = tmp_path / "r.json"
    assert cli.main(["classify", inst, "--side", "left", "--json-out", str(out)]) == EXIT_OK
    assert _read(out)["classification"]["kind"] == "left_symmetric"


def test_classify_left_reference(tmp_path):
    inst = write_instance(tmp_path / "i.json", **REF)
    out = tmp_path / "r.json"
    assert cli.main(["classify", inst, "--side", "left", "--json-out", str(out)]) == EXIT_OK
    cls = _read(out)["classification"]
    assert cls["kind"] == "not_left_symmetric"
    assert cls["witness_verified"] is True
    assert cls["parameters"]["eps1"] == pytest.approx((1 + 1 / 3) / 2)


# ----------------------------- selftest -----------------------------------------


def test_selftest_cli_passes(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert cli.main(["selftest", "--seed", "3", "--trials", "15", "--json-out", str(out)]) == EXIT_OK
    report = _read(out)
    assert report["passed"] is True
    assert "SELFTEST PASS" in capsys.readouterr().out


def test_selftest_fault_injection(tmp_path, monkeypatch, capsys):
    def corrupted(rng, trials):
        return [{"trial": 0, "detail": "injected fault"}]

    monkeypatch.setitem(selftest_mod.SUITES, "vec_symmetry", (corrupted, None))
    out = tmp_path / "r.json"
    assert cli.main(["selftest", "--seed", "3", "--trials", "5", "--json-out", str(out)]) == EXIT_PROPERTY
    report = _read(out)
    assert report["passed"] is False
    bad = [s for s in report["suites"] if not s["passed"]]
    assert bad and bad[0]["failures"][0]["detail"] == "injected fault"
    assert "SELFTEST FAIL" in capsys.readouterr().out


def test_check_random_fixture_batch(tmp_path, rng):
    # a generated corpus of mixed instances never trips the disagreement alarm
    from semiortho.sampling import random_a_bounded, random_psd, random_vector

    for k in range(8):
        complex_field = k % 2 == 1
        n = int(rng.integers(2, 5))
        a = random_psd(rng, n, rank=int(rng.integers(1, n + 1)), complex_field=complex_field)

        def enc(m):
            if complex_field:
                return [[[float(v.real), float(v.imag)] for v in row] for row in np.atleast_2d(m)]
            return [[float(v) for v in row] for row in np.atleast_2d(m)]

        def enc_vec(v):
            if complex_field:
                return [[float(c.real), float(c.imag)] for c in v]
            return [float(c) for c in v]

        fields = {
            "field": "complex" if complex_field else "real",
            "A": enc(a.matrix),
            "epsilon": float(rng.uniform(0.0, 0.9)),
        }
        if k % 3 == 0:
            fields["x"] = enc_vec(random_vector(rng, n, complex_field))
            fields["y"] = enc_vec(random_vector(rng, n, complex_field))
            mode = "vec"
        else:
            fields["T"] = enc(random_a_bounded(rng, a))
            fields["S"] = enc(random_a_bounded(rng, a))
            mode = "op"
        inst = write_instance(tmp_path / f"batch{k}.json", **fields)
        assert cli.main(["check", inst, "--mode", mode, "--route", "auto"]) == EXIT_OK


# ----------------------------- report contracts ---------------------------------


def test_report_determinism(tmp_path):
    inst = write_instance(tmp_path / "i.json", **REF)
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert cli.main(["check", inst, "--route", "auto", "--json-out", str(out)]) == EXIT_OK
        data = _read(out)
        data.pop("timing_s")
        outs.append(json.dumps(data, sort_keys=True))
    assert outs[0] == outs[1]


def test_witness_roundtrip_direct(tmp_path):
    swapped = dict(REF)
    swapped["T"], swapped["S"] = REF["S"], REF["T"]
    inst = write_instance(tmp_path / "i.json", **swapped)
    out = tmp_path / "r.json"
    assert cli.main(["check", inst, "--route", "direct", "--json-out", str(out)]) == EXIT_OK
    verdict = _read(out)["verdicts"][0]
    from semiortho import direct_objective, psd_decompose

    a = psd_decompose(np.array(swapped["A"]))
    lam = complex(*verdict["witness"]["lam"])
    lam = lam.real  # real field
    g = direct_objective(a, np.array(swapped["T"]), np.array(swapped["S"]), REF["epsilon"], lam)
    assert g == pytest.approx(verdict["margin"], abs=1e-9)


def test_witness_roundtrip_attainment(tmp_path):
    inst = write_instance(tmp_path / "i.json", **REF)
    out = tmp_path / "r.json"
    assert cli.main(["check", inst, "--route", "attain", "--json-out", str(out)]) == EXIT_OK
    verdict = _read(out)["verdicts"][0]
    from semiortho import inner_a, operator_norm_a, psd_decompose

    a = psd_decompose(np.array(REF["A"]))
    t, s = np.array(REF["T"]), np.array(REF["S"])
    x = np.array(verdict["witness"]["vector"])
    value = abs(inner_a(a, t @ x, s @ x))
    margin = REF["epsilon"] * operator_norm_a(a, t) * operator_norm_a(a, s) - value
    assert margin == pytest.approx(verdict["margin"], abs=1e-9)


def _pairs(z):
    """Complex matrix as the instance format's [re, im] pairs."""
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(z, dtype=complex)]


# (A, T, S): T attains its A-norm on a line; T = I attains it on the whole
# plane (m = 2), and S has trace 0, so 0 lies in the numerical range of the
# attainment form
THETA_INSTANCES = {
    "m1": (np.diag([1.0, 2.0]), np.diag([2.0, 1.0]), np.array([[0.5j, 0.0], [0.3, 1.0]])),
    "m2_zero_in_range": (np.diag([1.0, 2.0]), np.eye(2), np.array([[0.4 + 0.5j, 0.3], [0.2, -0.4 - 0.5j]])),
}


@pytest.mark.parametrize("name", sorted(THETA_INSTANCES))
def test_witness_roundtrip_theta(tmp_path, name):
    a_mat, t, s = THETA_INSTANCES[name]
    inst = write_instance(
        tmp_path / "i.json", field="complex", A=_pairs(a_mat), T=_pairs(t), S=_pairs(s), epsilon=0.25
    )
    out = tmp_path / "r.json"
    assert cli.main(["check", inst, "--route", "theta", "--json-out", str(out)]) == EXIT_OK
    verdict = _read(out)["verdicts"][0]
    from semiortho import inner_a, operator_norm_a, psd_decompose

    a = psd_decompose(a_mat.astype(complex))
    t, s = t.astype(complex), s.astype(complex)
    w = verdict["witness"]
    theta = w["theta"]
    x = np.array([complex(re, im) for re, im in w["x_theta"]])
    y = np.array([complex(re, im) for re, im in w["y_theta"]])
    band = 0.25 * operator_norm_a(a, t) * operator_norm_a(a, s)
    val_x = (np.exp(-1j * theta) * inner_a(a, t @ x, s @ x)).real
    val_y = (np.exp(-1j * theta) * inner_a(a, t @ y, s @ y)).real
    margin = min(val_x + band, band - val_y)
    assert margin == pytest.approx(verdict["margin"], abs=1e-8)
