from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from semiortho import cli
from semiortho.cli import EXIT_DISAGREE, EXIT_OK, EXIT_PARSE, EXIT_PRECONDITION, EXIT_PROPERTY
from semiortho import selftest as selftest_mod
from semiortho.sampling import random_orthonormal

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


def test_check_vec_small_vectors_fail(tmp_path):
    """<x, y>_A = ||x||_A ||y||_A / sqrt(2) exceeds eps = 0.5 at every scale:
    at x, y of size 1e-5 both routes still say "fails"."""
    inst = write_instance(
        tmp_path / "i.json",
        field="real",
        A=[[1.0, 0.0], [0.0, 1.0]],
        x=[1e-5, 0.0],
        y=[1e-5, 1e-5],
        epsilon=0.5,
    )
    out = tmp_path / "r.json"
    assert cli.main(["check", inst, "--mode", "vec", "--json-out", str(out)]) == EXIT_OK
    report = _read(out)
    assert [v["holds"] for v in report["verdicts"]] == [False, False]
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


def _complex_entries(m):
    return [[[v, 0.0] for v in row] for row in m]


@pytest.mark.parametrize("field", ["real", "complex"])
def test_check_zero_norm_instance(tmp_path, field):
    """T maps R(A) into N(A), so ||T||_A = 0 and T perp S holds trivially:
    every route says so with margin 0, and none exits 3."""
    a = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]
    t = [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 1.0, 0.5]]
    s = [[1.0, 0.5, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 1.0]]
    enc = _complex_entries if field == "complex" else (lambda m: m)
    inst = write_instance(tmp_path / "i.json", field=field, A=enc(a), T=enc(t), S=enc(s), epsilon=0.3)
    out = tmp_path / "r.json"
    assert cli.main(["check", inst, "--mode", "op", "--route", "auto", "--json-out", str(out)]) == EXIT_OK
    report = _read(out)
    routes = ["direct", "theta" if field == "complex" else "attain"]
    assert [v["route"] for v in report["verdicts"]] == routes and report["routes_agree"] is True
    assert all(v["holds"] and v["margin"] == 0.0 for v in report["verdicts"])
    assert cli.main(["check", inst, "--mode", "op", "--route", routes[1]]) == EXIT_OK


def test_check_rescaled_pair_decides(tmp_path, zero_subgradient_pairs):
    """With T x 10^3 the direct route's search meets a zero subgradient and
    stops there; ``check`` used to print a traceback and exit 1."""
    slot = zero_subgradient_pairs["real"]
    inst = write_instance(
        tmp_path / "i.json", field="real", A=slot.A.tolist(), T=(slot.T * 1e3).tolist(),
        S=slot.S.tolist(), epsilon=slot.eps,
    )
    out = tmp_path / "r.json"
    assert cli.main(["check", inst, "--mode", "op", "--json-out", str(out)]) == EXIT_OK
    assert [v["holds"] for v in _read(out)["verdicts"]] == [False, False]


def test_check_route_mode_mismatch(tmp_path):
    inst = write_instance(tmp_path / "i.json", **REF)
    assert cli.main(["check", inst, "--mode", "vec", "--route", "theta"]) == EXIT_PARSE
    assert cli.main(["check", inst, "--mode", "op", "--route", "inner"]) == EXIT_PARSE


def test_check_route_disagreement_is_alarm(tmp_path, monkeypatch):
    inst = write_instance(tmp_path / "i.json", **REF)

    def broken(a, t, s, eps):
        from semiortho.vectors import Method, OrthoVerdict

        return OrthoVerdict(holds=False, margin=-1.0, method=Method.ATTAINMENT)

    monkeypatch.setattr(cli, "op_orth_attainment_real", broken)
    assert cli.main(["check", inst, "--route", "auto"]) == EXIT_DISAGREE


def test_check_vec_and_op_entries_share_keys(tmp_path):
    inst = write_instance(tmp_path / "i.json", **REF, x=[1.0, 1.0], y=[0.5, -1.0])
    keys = set()
    for mode in ("vec", "op"):
        out = tmp_path / f"{mode}.json"
        assert cli.main(["check", inst, "--mode", mode, "--json-out", str(out)]) == EXIT_OK
        keys |= {frozenset(v) - {"margin_lower"} for v in _read(out)["verdicts"]}
    assert len(keys) == 1


# ----------------------------- error exit codes --------------------------------


def test_unwritable_report_is_a_flag_error(tmp_path, capsys):
    inst = write_instance(tmp_path / "i.json", **REF)
    out = tmp_path / "missing" / "r.json"
    assert cli.main(["check", inst, "--json-out", str(out)]) == EXIT_PARSE
    assert "error: cannot write report" in capsys.readouterr().err


def test_parse_errors(tmp_path, capsys):
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

    top_list = tmp_path / "list.json"
    top_list.write_text(json.dumps([REF]))
    assert cli.main(["norm", str(top_list)]) == EXIT_PARSE

    malformed = {
        "a_vector": dict(REF, A=[1.0, 2.0]),
        "a_ragged": dict(REF, A=[[1.0, 0.0], [2.0]]),
        "a_scalar": dict(REF, A=1.0),
        "a_empty": dict(REF, A=[]),
        "a_not_square": dict(REF, A=[[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]]),
        "field_unknown": dict(REF, field="quaternion"),
        "t_wrong_size": dict(REF, T=[[1.0]]),
        "x_wrong_length": dict(REF, x=[1.0]),
        "tolerances_list": dict(REF, tolerances=[1.0]),
    }
    for name, fields in malformed.items():
        assert cli.main(["norm", write_instance(tmp_path / f"{name}.json", **fields)]) == EXIT_PARSE, name
        err = capsys.readouterr().err
        if name in ("a_vector", "a_ragged", "a_scalar", "a_empty"):
            assert "A must be a 2-D list of rows of equal length" in err, name
    x_scalar = write_instance(tmp_path / "x.json", **dict(REF, x=1.0))
    assert cli.main(["check", x_scalar, "--mode", "vec"]) == EXIT_PARSE
    assert "x must be a 1-D list of entries" in capsys.readouterr().err


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
        "tol_inf": ("norm", dict(REF, tolerances={"rank_tol": 1e400})),
    }
    for name, (command, fields) in cases.items():
        inst = write_instance(tmp_path / f"{name}.json", **fields)
        mode = ["--mode", "vec"] if "x" in fields else []
        assert cli.main([command, inst, *mode]) == EXIT_PARSE, name
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("n", [2, 64])
@pytest.mark.parametrize("field", ["real", "complex"])
def test_squared_norm_overflow_exits_3(tmp_path, capsys, n, field):
    """An instance whose T has a squared A-norm beyond the floating-point
    range (A = I, T = 1e160 diag(2, 1, ..., 1)) is a violated precondition:
    ``norm``, ``check`` and ``classify`` exit 3 with one line naming
    NonFiniteError. At 1e150 ``norm``, ``check`` and ``classify --side left``
    decide, and the check holds (S = diag(0, 1, ..., 1) vanishes on T's
    attaining vector). ``classify --side right`` is left out there: its
    witness's reverse check by the direct route stops verifying from about
    1e80 (ROADMAP item 17)."""

    def entry(value):
        return [value, 0.0] if field == "complex" else value

    def diagonal(values):
        return [[entry(values[i] if i == j else 0.0) for j in range(n)] for i in range(n)]

    commands = (["norm"], ["check"], ["classify", "--side", "right"], ["classify", "--side", "left"])
    for scale, code in ((1e160, EXIT_PRECONDITION), (1e150, EXIT_OK)):
        inst = write_instance(
            tmp_path / f"scale{scale:.0e}.json", field=field, epsilon=0.3, A=diagonal([1.0] * n),
            T=diagonal([2.0 * scale] + [scale] * (n - 1)), S=diagonal([0.0] + [1.0] * (n - 1)),
        )
        reports = []
        for i, command in enumerate(commands):
            if code == EXIT_OK and command[-1] == "right":
                continue
            out = tmp_path / f"report{scale:.0e}-{i}.json"
            assert cli.main([command[0], inst, *command[1:], "--json-out", str(out)]) == code, command
            err = capsys.readouterr().err
            if code == EXIT_PRECONDITION:
                assert err.startswith("error: NonFiniteError: ") and err.count("\n") == 1, err
                assert not out.exists()
            else:
                assert err == ""
                reports.append(_read(out))
    norm, check, left = reports
    assert norm["derived"]["norm_t"] == pytest.approx(2e150, rel=1e-14)
    assert check["routes_agree"] and all(v["holds"] for v in check["verdicts"])
    assert left["classification"]["kind"] == "not_left_symmetric"
    assert left["classification"]["witness_verified"]


@pytest.mark.parametrize(
    "fields",
    [
        {"T": [[True, 0.0], [0.0, 1.0]]},
        {"T": [["2", 0.0], [0.0, 1.0]]},
        {"field": "complex", "A": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, False]]]},
        {"epsilon": False},
        {"epsilon": "0.3"},
        {"epsilon": 10**400},
        {"tolerances": {"rank_tol": "1e-3"}},
        {"tolerances": {"rank_tol": True}},
        {"tolerances": {"rank_tol": None}},
        {"tolerances": {"rank_tol": 10**400}},
        {"schema": True},
        {"schema": 1.0},
    ],
    ids=["entry_bool", "entry_string", "complex_part_bool", "eps_bool", "eps_string",
         "eps_overflow", "tol_string", "tol_bool", "tol_null", "tol_overflow",
         "schema_bool", "schema_float"],
)
def test_non_numeric_instances_rejected(tmp_path, fields):
    """json true/false load as bool, an int subclass; they and strings are
    not numbers anywhere in an instance."""
    inst = write_instance(tmp_path / "i.json", **dict(REF, **fields))
    assert cli.main(["norm", inst]) == EXIT_PARSE


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


@pytest.mark.parametrize("value", ["1.5", "-0.1", "nan", "inf"])
@pytest.mark.parametrize("command", [["check"], ["classify", "--side", "right"]])
def test_out_of_range_epsilon_flag_is_a_parse_error(tmp_path, capsys, command, value):
    """An --epsilon outside [0, 1) exits 2, as the same value in the instance
    file does, and names the flag."""
    inst = write_instance(tmp_path / "i.json", **REF)
    assert cli.main([command[0], inst, *command[1:], f"--epsilon={value}"]) == EXIT_PARSE
    assert "--epsilon" in capsys.readouterr().err


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


EYE3 = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]


@pytest.mark.parametrize(
    "last, kind",
    [(1.0 - 8e-9, "right_symmetric"), (1.0 - 3e-8, "not_right_symmetric")],
    ids=["inside_cluster", "outside_cluster"],
)
def test_classify_right_near_isometry(tmp_path, last, kind):
    """The attainment cluster alone decides isometry: norm and classify agree
    with exit 0 where sigma_min / sigma_max is within CLUSTER_TOL (1e-8) of 1,
    and on either side of it."""
    fields = dict(field="real", A=EYE3, T=np.diag([1.0, 1.0, last]).tolist(), epsilon=0.3)
    inst = write_instance(tmp_path / "i.json", **fields)
    out = tmp_path / "r.json"
    assert cli.main(["norm", inst, "--json-out", str(out)]) == EXIT_OK
    derived = _read(out)["derived"]
    assert derived["isometry"] is (kind == "right_symmetric")
    assert derived["attainment_multiplicity"] == (3 if kind == "right_symmetric" else 2)
    assert cli.main(["classify", inst, "--side", "right", "--json-out", str(out)]) == EXIT_OK
    cls = _read(out)["classification"]
    assert cls["kind"] == kind
    assert cls.get("witness_verified", True) is True


@pytest.mark.parametrize(
    "name", ["isometry_tol", "orth_tol", "hermitian_tol", "cluster_tol", "verdict_margin_tol"]
)
def test_removed_tolerance_is_unknown(tmp_path, capsys, name):
    """rank_tol is the one tolerance an instance sets; the removed names,
    now constants or gone, are unknown fields, and rank_tol alongside them
    does not make them parse."""
    for overrides in ({name: 1e-8}, {"rank_tol": 1e-10, name: 1e-8}):
        inst = write_instance(tmp_path / "i.json", **dict(REF, tolerances=overrides))
        assert cli.main(["norm", inst]) == EXIT_PARSE
        assert name in capsys.readouterr().err


@pytest.mark.parametrize("overrides, rank", [(None, 2), ({"rank_tol": 1e-6}, 1)])
def test_rank_tol_override(tmp_path, overrides, rank):
    """An instance's rank_tol decides which eigenvalues of A count as zero:
    1e-8 is kept by the default 1e-10 and clipped by 1e-6."""
    fields = dict(field="real", A=[[1.0, 0.0], [0.0, 1e-8]], T=[[1.0, 0.0], [0.0, 1.0]])
    if overrides is not None:
        fields["tolerances"] = overrides
    inst, out = write_instance(tmp_path / "i.json", **fields), tmp_path / "r.json"
    assert cli.main(["norm", inst, "--json-out", str(out)]) == EXIT_OK
    derived = _read(out)["derived"]
    assert (derived["rank_a"], derived["null_dim"]) == (rank, 2 - rank)


@pytest.mark.parametrize("side, construction", [("right", "right_proof"), ("left", "left_case_ii")])
def test_classify_complex_non_isometry(tmp_path, side, construction):
    """Both sides classify a complex operator that is not an A-isometry, and
    its witness verifies both ways with the direct route."""
    inst = write_instance(
        tmp_path / "c.json",
        field="complex",
        A=[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]],
        T=[[[2.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.5, -0.5]]],
        epsilon=0.3,
    )
    out = tmp_path / "r.json"
    assert cli.main(["classify", inst, "--side", side, "--json-out", str(out)]) == EXIT_OK
    cls = _read(out)["classification"]
    assert cls["kind"] == f"not_{side}_symmetric"
    assert cls["witness_verified"] is True
    assert cls["construction"] == construction


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


@pytest.mark.parametrize("side", ["right", "left"])
def test_classify_rank_one_is_symmetric(tmp_path, side):
    """In a range of dimension 1 every T is an A-isometry and left
    symmetric; ``classify --side left`` used to exit 3 there."""
    inst = write_instance(
        tmp_path / "i.json", field="real", A=[[1.0, 0.0], [0.0, 0.0]], T=[[2.0, 0.0], [0.0, 3.0]], epsilon=0.3
    )
    out = tmp_path / "r.json"
    assert cli.main(["classify", inst, "--side", side, "--json-out", str(out)]) == EXIT_OK
    assert _read(out)["classification"]["kind"] == f"{side}_symmetric"


def test_classify_unverified_witness_is_property_failure(tmp_path, monkeypatch, capsys):
    """A witness that does not verify exits 1 and says so in both reports."""
    from semiortho import symmetry
    from semiortho.vectors import Method, OrthoVerdict

    def broken(a, t, s, eps):
        return OrthoVerdict(holds=False, margin=-1.0, method=Method.DIRECT_MINIMIZATION)

    monkeypatch.setattr(symmetry, "op_orth_direct", broken)
    inst = write_instance(tmp_path / "i.json", **REF)
    out = tmp_path / "r.json"
    assert cli.main(["classify", inst, "--side", "right", "--json-out", str(out)]) == EXIT_PROPERTY
    assert _read(out)["classification"]["witness_verified"] is False
    assert "witness verified: NO" in capsys.readouterr().out


def test_classify_left_reference(tmp_path):
    inst = write_instance(tmp_path / "i.json", **REF)
    out = tmp_path / "r.json"
    assert cli.main(["classify", inst, "--side", "left", "--json-out", str(out)]) == EXIT_OK
    cls = _read(out)["classification"]
    assert cls["kind"] == "not_left_symmetric"
    assert cls["witness_verified"] is True
    assert cls["parameters"]["eps1"] == pytest.approx((1 + 1 / 3) / 2)


@pytest.mark.parametrize("k", range(4, 13))
def test_classify_left_near_rank_one(tmp_path, k):
    """Valid operators T = U diag(1, 10^-k, 0, 0) V^T on A = I exit 0 with a
    verified witness. At 10^-8, two of these five used to exit 3: the left
    witness failed its own orthogonality check on rounding."""
    rng = np.random.default_rng(3)
    out = tmp_path / "r.json"
    for i in range(5):
        u, v = random_orthonormal(rng, 4), random_orthonormal(rng, 4)
        t = (u * np.array([1.0, 10.0**-k, 0.0, 0.0])) @ v.T
        inst = write_instance(tmp_path / f"i{i}.json", field="real", A=np.eye(4).tolist(),
                              T=t.tolist(), epsilon=float(rng.uniform(0.05, 0.9)))
        assert cli.main(["classify", inst, "--side", "left", "--json-out", str(out)]) == EXIT_OK
        cls = _read(out)["classification"]
        assert cls["kind"] == "not_left_symmetric" and cls["witness_verified"] is True


# ----------------------------- selftest -----------------------------------------


def test_selftest_cli_passes(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert cli.main(["selftest", "--seed", "3", "--trials", "15", "--json-out", str(out)]) == EXIT_OK
    report = _read(out)
    assert report["passed"] is True
    assert "SELFTEST PASS" in capsys.readouterr().out


@pytest.mark.parametrize("trials", ["-3", "0"])
def test_selftest_rejects_nonpositive_trials(trials, capsys):
    assert cli.main(["selftest", "--trials", trials]) == EXIT_PARSE
    assert "SELFTEST" not in capsys.readouterr().out


def test_selftest_rejects_negative_seed(capsys):
    """A negative seed is a flag error (exit 2), not a property failure."""
    assert cli.main(["selftest", "--seed", "-1", "--trials", "1"]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert "SELFTEST" not in captured.out
    assert "must be at least 0, got -1" in captured.err


def test_selftest_fault_injection(tmp_path, monkeypatch, capsys):
    def corrupted(rng, i):
        return {"detail": "injected fault"}

    monkeypatch.setitem(selftest_mod.SUITES, "vec_symmetry", (corrupted, None))
    out = tmp_path / "r.json"
    assert cli.main(["selftest", "--seed", "3", "--trials", "5", "--json-out", str(out)]) == EXIT_PROPERTY
    report = _read(out)
    assert report["passed"] is False
    bad = [s for s in report["suites"] if not s["passed"]]
    assert bad and bad[0]["failures"][0] == {"trial": 0, "detail": "injected fault"}
    assert "SELFTEST FAIL" in capsys.readouterr().out

    # a real suite's records: flipping the attainment route makes the real
    # routes disagree on every trial, of which the report keeps five
    attainment = selftest_mod.op_orth_attainment_real

    def flipped(*args):
        verdict = attainment(*args)
        return dataclasses.replace(verdict, holds=not verdict.holds)

    monkeypatch.setattr(selftest_mod, "op_orth_attainment_real", flipped)
    assert cli.main(["selftest", "--seed", "3", "--trials", "8", "--json-out", str(out)]) == EXIT_PROPERTY
    suites = {s["name"]: s for s in _read(out)["suites"]}
    assert not suites["op_route_equivalence_real"]["passed"]
    assert all(len(s["failures"]) <= 5 for s in suites.values())
    records = suites["op_route_equivalence_real"]["failures"]
    assert len(records) == 5
    for rec in records:
        assert set(rec) == {"trial", "detail", "eps", "direct", "attain"}
        assert isinstance(rec["trial"], int) and isinstance(rec["detail"], str)
        assert all(isinstance(rec[k], float) for k in ("eps", "direct", "attain"))


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


def _without_timing(path):
    """A report's bytes less its ``timing_s`` line, the one line that may differ."""
    return b"".join(
        line for line in path.read_bytes().splitlines(True) if not line.lstrip().startswith(b'"timing_s"')
    )


def test_report_determinism(tmp_path):
    """Two runs of a command write the same bytes apart from the timing_s
    line: norm, check --mode op over R and over C (whose theta witness
    writes x_theta and y_theta), check --mode vec and classify on both sides
    on one instance, and selftest at one seed."""
    a_mat, t, s = THETA_INSTANCES["m1"]
    complex_inst = {"field": "complex", "A": _pairs(a_mat), "T": _pairs(t), "S": _pairs(s), "epsilon": 0.25}
    commands = [
        (REF, ["norm"]),
        (REF, ["check", "--mode", "op"]),
        (complex_inst, ["check", "--mode", "op"]),
        (dict(REF, x=[1.0, 0.5], y=[0.3, -1.0]), ["check", "--mode", "vec"]),
        (REF, ["classify", "--side", "right"]),
        (REF, ["classify", "--side", "left"]),
        (None, ["selftest", "--seed", "42", "--trials", "3"]),
    ]
    for k, (fields, command) in enumerate(commands):
        if fields is not None:
            command = [*command, write_instance(tmp_path / f"i{k}.json", **fields)]
        outs = [tmp_path / f"r{k}{run}.json" for run in "ab"]
        for out in outs:
            assert cli.main([*command, "--json-out", str(out)]) == EXIT_OK
        assert outs[0].read_bytes().count(b'"timing_s"') == 1
        assert _without_timing(outs[0]) == _without_timing(outs[1])
    assert b'"x_theta"' in (tmp_path / "r2a.json").read_bytes()


def _encode_reference(value):
    """The recursive copy that canonical_json made before encoding, kept as
    the reference its bytes must match."""
    if isinstance(value, np.ndarray):
        return [_encode_reference(v) for v in value.tolist()]
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, (list, tuple)):
        return [_encode_reference(v) for v in value]
    if isinstance(value, dict):
        return {k: _encode_reference(v) for k, v in value.items()}
    return value


def test_canonical_json_matches_the_recursive_encoder(rng):
    real = rng.normal(size=(3, 4))
    cplx = real + 1j * rng.normal(size=(3, 4))
    from semiortho import null_basis, psd_decompose

    full_rank = psd_decompose(np.diag([1.0, 2.0]))
    values = {
        "real_1d": real[0],
        "real_2d": real,
        "real_transposed": real.T,
        "real_strided": real[::2, 1:],
        "complex_1d": cplx[1],
        "complex_2d": cplx,
        "complex_transposed": cplx.T,
        "null_basis": null_basis(full_rank),
        "null_basis_transposed": null_basis(full_rank).T,
        "complex_empty": np.zeros((3, 0), dtype=complex),
        "bools": np.array([True, False]),
        "negative_zero_array": np.array([-0.0, 0.0]),
        "complex": complex(1.5, -0.0),
        "numpy_complex": np.complex128(-2.0 + 0.25j),
        "bool_": np.bool_(True),
        "int64": np.int64(-7),
        "float64": np.float64(0.1),
        "negative_zero": -0.0,
        "tuple": (1, 2.5, np.int64(3), complex(0.0, 1.0)),
        "nested": {"b": {"c": cplx.T, "a": (np.bool_(False), None)}, "a": [np.float64(2.0), "s"]},
    }
    for key, value in values.items():
        assert cli.canonical_json(value) == json.dumps(
            _encode_reference(value), sort_keys=True, indent=2
        ), key
    assert cli.canonical_json(values) == json.dumps(_encode_reference(values), sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        cli.canonical_json({"x": object()})


def test_inputs_digest_is_the_sha256_of_the_sorted_indented_instance(tmp_path):
    import hashlib

    a_mat, t, s = THETA_INSTANCES["m1"]
    for k, fields in enumerate((REF, {"field": "complex", "A": _pairs(a_mat), "T": _pairs(t)})):
        inst = write_instance(tmp_path / f"i{k}.json", **fields)
        raw = json.loads((tmp_path / f"i{k}.json").read_text())
        expected = hashlib.sha256(json.dumps(raw, sort_keys=True, indent=2).encode("utf-8")).hexdigest()
        assert cli._digest(raw) == expected
        out = tmp_path / f"r{k}.json"
        assert cli.main(["norm", inst, "--json-out", str(out)]) == EXIT_OK
        assert _read(out)["inputs_digest"] == expected


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
