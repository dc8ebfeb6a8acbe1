"""Command-line front end: JSON instances in, JSON verdict reports out.

Commands::

    semiortho norm     INSTANCE            A-norm, rank, attainment, isometry
    semiortho check    INSTANCE [--mode vec|op] [--route ...] [--epsilon E]
    semiortho classify INSTANCE --side right|left
    semiortho selftest [--seed N] [--trials K]

Exit codes: 0 ok, 1 property failure, 2 parse error, 3 math precondition
violated, 4 route disagreement (the routes are provably equivalent, so this is an internal-defect alarm).

Instance files are JSON objects with a ``schema`` field (currently 1),
``field`` ("real" or "complex"), matrices ``A``/``T``/``S`` as row-major
nested arrays, vectors ``x``/``y``, ``epsilon`` in [0, 1), and optional
``tolerances`` overrides. Complex entries are written as two-element
[re, im] arrays. Reports mirror the same conventions and are byte-identical
for identical inputs and seeds, except for the ``timing_s`` field.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from typing import Any, Optional, Sequence

import numpy as np

from .core import PsdOperator, Tolerances, psd_decompose
from .errors import SemiorthoError
from .operators import bind_operator, is_a_isometry, norm_attainment_set, norm_is_zero
from .orthogonality import (
    OperatorOrthoVerdict,
    op_orth_attainment_real,
    op_orth_direct,
    op_orth_theta_sweep_complex,
)
from .selftest import run_selftest
from .symmetry import SymmetryKind, classify_left, classify_right
from .vectors import (
    OrthoVerdict,
    is_chmielinski_orthogonal_vec,
    is_eps_orthogonal,
    validate_epsilon,
)

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_DISAGREE = 4

SCHEMA_VERSION = 1


class InstanceError(Exception):
    """Malformed instance file (maps to exit code 2)."""


# ----------------------------- parsing --------------------------------------


def _parse_entry(value: Any, complex_field: bool) -> complex | float:
    if isinstance(value, (int, float)):
        parts = (value, 0)
    elif (
        complex_field
        and isinstance(value, (list, tuple))
        and len(value) == 2
        and all(isinstance(p, (int, float)) for p in value)
    ):
        parts = value
    else:
        raise InstanceError(f"bad scalar entry {value!r} for field "
                            f"{'complex' if complex_field else 'real'}")
    try:
        re, im = float(parts[0]), float(parts[1])
    except OverflowError:  # an integer literal beyond the float range
        re = im = math.inf
    # json reads NaN and Infinity tokens, and 1e400 as inf
    if not (math.isfinite(re) and math.isfinite(im)):
        raise InstanceError(f"non-finite entry {value!r}")
    return complex(re, im) if complex_field else re


def _parse_array(data: Any, complex_field: bool, ndim: int, name: str) -> np.ndarray:
    try:
        if ndim == 1:
            entries = [_parse_entry(v, complex_field) for v in data]
            return np.array(entries, dtype=np.complex128 if complex_field else np.float64)
        rows = [[_parse_entry(v, complex_field) for v in row] for row in data]
        arr = np.array(rows, dtype=np.complex128 if complex_field else np.float64)
        if arr.ndim != 2:
            raise InstanceError(f"{name} is not a matrix")
        return arr
    except (TypeError, ValueError) as exc:
        raise InstanceError(f"cannot parse {name}: {exc}") from exc


def load_instance(path: str) -> dict:
    """Parse and validate an instance file; raises InstanceError on any
    malformed content."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InstanceError(f"cannot read instance {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise InstanceError("instance file must contain a JSON object")
    schema = raw.get("schema", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise InstanceError(f"unsupported schema {schema}")
    field = raw.get("field", "real")
    if field not in ("real", "complex"):
        raise InstanceError(f"field must be 'real' or 'complex', got {field!r}")
    complex_field = field == "complex"
    if "A" not in raw:
        raise InstanceError("instance is missing the matrix A")
    out: dict[str, Any] = {"field": field, "raw": raw}
    out["A"] = _parse_array(raw["A"], complex_field, 2, "A")
    n = out["A"].shape[0]
    if out["A"].shape != (n, n):
        raise InstanceError(f"A must be square, got shape {out['A'].shape}")
    for key in ("T", "S"):
        out[key] = _parse_array(raw[key], complex_field, 2, key) if key in raw else None
        if out[key] is not None and out[key].shape != (n, n):
            raise InstanceError(f"{key} must match A's shape {(n, n)}, got {out[key].shape}")
    for key in ("x", "y"):
        out[key] = _parse_array(raw[key], complex_field, 1, key) if key in raw else None
        if out[key] is not None and out[key].shape != (n,):
            raise InstanceError(f"{key} must have length {n}, got {out[key].shape}")
    eps = raw.get("epsilon")
    if eps is not None:
        if not isinstance(eps, (int, float)) or not 0.0 <= float(eps) < 1.0:
            raise InstanceError(f"epsilon must be a number in [0, 1), got {eps!r}")
        eps = float(eps)
    out["epsilon"] = eps
    overrides = raw.get("tolerances", {})
    if not isinstance(overrides, dict):
        raise InstanceError("tolerances must be an object")
    known = set(Tolerances.__dataclass_fields__)
    unknown = set(overrides) - known
    if unknown:
        raise InstanceError(f"unknown tolerance fields: {sorted(unknown)}")
    try:
        out["tolerances"] = Tolerances(**{k: float(v) for k, v in overrides.items()})
    except (TypeError, ValueError) as exc:
        raise InstanceError(f"bad tolerances: {exc}") from exc
    return out


# ----------------------------- encoding -------------------------------------


def _encode(value: Any) -> Any:
    if isinstance(value, np.ndarray):
        return [_encode(v) for v in value.tolist()]
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    return value


def canonical_json(obj: Any) -> str:
    return json.dumps(_encode(obj), sort_keys=True, indent=2)


def _digest(raw: dict) -> str:
    return hashlib.sha256(canonical_json(raw).encode("utf-8")).hexdigest()


def _vec_verdict_dict(route: str, v: OrthoVerdict) -> dict:
    return {
        "route": route,
        "holds": v.holds,
        "margin": v.margin,
        "method": v.method.value,
        "boundary": v.boundary,
        "witness": None if v.witness is None else {"lam": _encode(complex(v.witness))},
    }


def _op_verdict_dict(route: str, v: OperatorOrthoVerdict) -> dict:
    witness: Optional[dict] = None
    if v.witness is not None:
        witness = {}
        if v.witness.lam is not None:
            witness["lam"] = _encode(complex(v.witness.lam))
        if v.witness.vector is not None:
            witness["vector"] = _encode(v.witness.vector)
        if v.witness.theta is not None:
            witness["theta"] = v.witness.theta
            witness["x_theta"] = _encode(v.witness.x_theta)
            witness["y_theta"] = _encode(v.witness.y_theta)
    entry = {
        "route": route,
        "holds": v.holds,
        "margin": v.margin,
        "method": v.method.value,
        "boundary": v.boundary,
        "assumptions": list(v.assumptions),
        "witness": witness,
    }
    if v.margin_lower is not None:
        entry["margin_lower"] = v.margin_lower
    return entry


def _base_report(command: str, instance: Optional[dict], args: dict) -> dict:
    report: dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "command": command,
        "args": args,
    }
    if instance is not None:
        report["field"] = instance["field"]
        report["inputs_digest"] = _digest(instance["raw"])
    return report


# ----------------------------- commands -------------------------------------


def _decompose(instance: dict) -> PsdOperator:
    return psd_decompose(instance["A"], instance["tolerances"])


def _need(instance: dict, key: str) -> np.ndarray:
    if instance[key] is None:
        raise InstanceError(f"instance is missing required field {key!r}")
    return instance[key]


def _epsilon(instance: dict, ns: argparse.Namespace) -> float:
    if getattr(ns, "epsilon", None) is not None:
        return validate_epsilon(ns.epsilon)
    if instance["epsilon"] is not None:
        return instance["epsilon"]
    return 0.0


def cmd_norm(ns: argparse.Namespace) -> tuple[int, dict]:
    instance = load_instance(ns.instance)
    a = _decompose(instance)
    t = bind_operator(a, _need(instance, "T"))
    att = norm_attainment_set(a, t)
    iso = is_a_isometry(a, t)
    report = _base_report("norm", instance, {"instance": ns.instance})
    report["derived"] = {
        "norm_t": att.norm,
        "rank_a": a.rank,
        "dim": a.dim,
        "null_dim": a.null_dim,
        "attainment_multiplicity": att.multiplicity,
        "attainment_basis": _encode(att.attain_basis.T),
        "null_basis": _encode(att.null_basis.T),
        "isometry": iso.ok,
        "isometry_deviation": iso.deviation,
    }
    print(
        f"||T||_A = {att.norm:.12g}  rank(A) = {a.rank}/{a.dim}  "
        f"null dim = {a.null_dim}  attainment multiplicity = {att.multiplicity}  "
        f"isometry = {'yes' if iso.ok else 'no'}"
    )
    return EXIT_OK, report


def _vec_routes(a, x, y, eps, route: str) -> list[tuple[str, OrthoVerdict]]:
    runs = []
    if route in ("inner", "auto"):
        runs.append(("inner", is_eps_orthogonal(a, x, y, eps)))
    if route in ("direct", "auto"):
        runs.append(("direct", is_chmielinski_orthogonal_vec(a, x, y, eps)))
    return runs


def _op_routes(a, t, s, eps, route: str, complex_field: bool) -> list[tuple[str, OperatorOrthoVerdict]]:
    runs = []
    t, s = bind_operator(a, t), bind_operator(a, s)
    zero_t = norm_is_zero(t)
    if route in ("direct", "auto"):
        runs.append(("direct", op_orth_direct(a, t, s, eps)))
    if route == "attain" or (route == "auto" and not complex_field and not zero_t):
        runs.append(("attain", op_orth_attainment_real(a, t, s, eps)))
    if route == "theta" or (route == "auto" and complex_field and not zero_t):
        runs.append(("theta", op_orth_theta_sweep_complex(a, t, s, eps)))
    return runs


def cmd_check(ns: argparse.Namespace) -> tuple[int, dict]:
    instance = load_instance(ns.instance)
    a = _decompose(instance)
    eps = _epsilon(instance, ns)
    complex_field = instance["field"] == "complex"
    report = _base_report(
        "check",
        instance,
        {"instance": ns.instance, "mode": ns.mode, "route": ns.route, "epsilon": eps},
    )

    if ns.mode == "vec":
        if ns.route in ("attain", "theta"):
            raise InstanceError(f"route {ns.route!r} applies to --mode op only")
        x, y = _need(instance, "x"), _need(instance, "y")
        runs = _vec_routes(a, x, y, eps, ns.route)
        report["verdicts"] = [_vec_verdict_dict(r, v) for r, v in runs]
    else:
        if ns.route == "inner":
            raise InstanceError("route 'inner' applies to --mode vec only")
        t, s = _need(instance, "T"), _need(instance, "S")
        runs = _op_routes(a, t, s, eps, ns.route, complex_field)
        report["verdicts"] = [_op_verdict_dict(r, v) for r, v in runs]

    verdicts = [v.holds for _, v in runs]
    agree = all(v == verdicts[0] for v in verdicts)
    report["routes_agree"] = agree
    for route, v in runs:
        print(f"route {route}: {'holds' if v.holds else 'fails'} (margin {v.margin:.6e})")
    if not agree:
        print("ROUTE DISAGREEMENT: proved-equivalent routes returned different verdicts")
        return EXIT_DISAGREE, report
    return EXIT_OK, report


def cmd_classify(ns: argparse.Namespace) -> tuple[int, dict]:
    instance = load_instance(ns.instance)
    a = _decompose(instance)
    t = bind_operator(a, _need(instance, "T"))
    eps = _epsilon(instance, ns)
    report = _base_report(
        "classify",
        instance,
        {"instance": ns.instance, "side": ns.side, "epsilon": eps},
    )
    sym = classify_right(a, t, eps) if ns.side == "right" else classify_left(a, t, eps)
    entry: dict[str, Any] = {
        "kind": sym.kind.value,
        "epsilon": sym.epsilon,
        "evidence": sym.evidence,
    }
    verified = True
    if sym.witness is not None:
        u = sym.witness
        if sym.kind is SymmetryKind.NOT_RIGHT_SYMMETRIC:
            fwd = op_orth_direct(a, u, t, eps)
            bwd = op_orth_direct(a, t, u, eps)
        else:
            fwd = op_orth_direct(a, t, u, eps)
            bwd = op_orth_direct(a, u, t, eps)
        verified = fwd.holds and not bwd.holds
        entry["witness"] = _encode(u.matrix)
        entry["witness_verified"] = verified
        entry["witness_margins"] = {"forward": fwd.margin, "reverse": bwd.margin}
        if sym.construction is not None:
            entry["construction"] = sym.construction.tag.value
            if sym.construction.params is not None:
                p = sym.construction.params
                entry["parameters"] = {
                    "eps1": p.eps1,
                    "t": p.t,
                    "a": p.a,
                    "b": p.b,
                    "alpha": p.alpha,
                    "beta": p.beta,
                }
    report["classification"] = entry
    print(f"{ns.side} classification: {sym.kind.value} (evidence {sym.evidence:.6e})")
    if sym.witness is not None:
        print(f"witness verified: {'yes' if verified else 'NO'}")
    if not verified:
        return EXIT_PROPERTY, report
    return EXIT_OK, report


def cmd_selftest(ns: argparse.Namespace) -> tuple[int, dict]:
    outcome = run_selftest(ns.seed, ns.trials)
    report = _base_report("selftest", None, {"seed": ns.seed, "trials": ns.trials})
    report["suites"] = [
        {
            "name": r.name,
            "trials": r.trials,
            "passed": r.passed,
            "failures": r.failures[:5],
        }
        for r in outcome.results
    ]
    report["passed"] = outcome.passed
    print(outcome.table())
    return (EXIT_OK if outcome.passed else EXIT_PROPERTY), report


# ----------------------------- entry point ----------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semiortho",
        description="Approximate orthogonality and symmetry in A-seminorm geometry",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_norm = sub.add_parser("norm", help="A-norm, rank, attainment set, isometry flag")
    p_norm.add_argument("instance")

    p_check = sub.add_parser("check", help="decide an orthogonality relation")
    p_check.add_argument("instance")
    p_check.add_argument("--mode", choices=("vec", "op"), default="op")
    p_check.add_argument(
        "--route", choices=("direct", "attain", "theta", "inner", "auto"), default="auto"
    )
    p_check.add_argument("--epsilon", type=float, default=None)

    p_cls = sub.add_parser("classify", help="right/left approximate symmetry")
    p_cls.add_argument("instance")
    p_cls.add_argument("--side", choices=("right", "left"), required=True)
    p_cls.add_argument("--epsilon", type=float, default=None)

    p_self = sub.add_parser("selftest", help="run the property suites")
    p_self.add_argument("--seed", type=int, default=42)
    p_self.add_argument("--trials", type=int, default=100)

    for p in (p_norm, p_check, p_cls, p_self):
        p.add_argument("--json-out", default=None, help="write the JSON report here")
    return parser


_COMMANDS = {
    "norm": cmd_norm,
    "check": cmd_check,
    "classify": cmd_classify,
    "selftest": cmd_selftest,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK

    start = time.perf_counter()
    try:
        code, report = _COMMANDS[ns.command](ns)
    except InstanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SemiorthoError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION

    report["timing_s"] = time.perf_counter() - start
    if ns.json_out:
        with open(ns.json_out, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(report))
            fh.write("\n")
    return code


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
