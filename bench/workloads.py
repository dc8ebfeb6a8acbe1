"""Seeded instance mixes and checked operations for the benchmark workloads.

A workload is a fixed list of slots (one instance plus the calls made on it)
that the worker cycles through, one operation at a time. The shape of the mix
(how many slots of each kind and size) is fixed; the seed only draws the
matrices and epsilons, so every seed costs about the same and the latency
percentiles land inside a size class rather than on the edge between two.

Every mix has at least ``MIN_SLOTS`` slots: the latency percentiles are
taken over the slots, one best time each, and p90 needs ten samples beyond it.

Every operation either completes or raises ``OpFailure`` with a reason; the
worker also counts ``SemiorthoError``, ``MemoryError`` and ``LinAlgError`` as
failed operations.

Known defects (ROADMAP items 3 and 4) are kept out of the timed mixes, because
the timed mixes must not fail. The workload they belong to measures them after
its timed loop with ``run_probes``: near-tie operators built with the ROADMAP
item-4 recipe on ``op-real`` and ``symmetry``; on ``op-complex``, pairs whose
epsilon lies just below the boundary, and one complex n = 256 direct decision
that needs about 5 GiB and must hit the memory cap.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

import semiortho as so
from semiortho import sampling as smp
from semiortho.selftest import EPS_POOL

WORKLOADS = ("op-real", "op-complex", "symmetry", "cli")

SYM_FAMILIES = ("generic", "multiplicity", "rank_one", "isometry", "zero_norm")
NEAR_TIE_PROBES = 200
NEAR_BOUNDARY_PROBES = 100
# A complex pair that fails by less than about 3e-4 in epsilon (the theta-sweep
# margin over ||T||_A ||S||_A) can make the direct route miss a shallow dip of
# g and disagree with the sweep. Timed op-complex pairs keep this clearance
# from the boundary; the near-boundary pairs are a probe of their own.
EPS_CLEARANCE = 1e-2
MIN_SLOTS = 100

# Mix shapes: (kind, n, slots per cycle). Kept in one table per workload so the
# percentile positions can be read off (p50 is the middle slot in time order,
# p90 the one nine tenths up): op-real p50 falls among the 120 n <= 4 of its
# 200 slots and p90 among the 70 n = 16 slots; op-complex p50 among the 45
# n = 4 of its 100 slots and p90 among the 19 n = 16 slots; symmetry p50 among
# the 80 n = 16 of its 200 slots, p90 among the 34 n = 64 slots. op-real and
# symmetry have 200 slots because the cost of their small slots varies with the
# instance (and, in symmetry, with the operator family): with 100, p50 moved by
# up to 8% from seed to seed.
OP_REAL_MIX = (
    ("generic", 2, 28), ("probe", 2, 16), ("shared", 2, 16),
    ("generic", 4, 28), ("probe", 4, 16), ("shared", 4, 16),
    ("generic", 16, 34), ("probe", 16, 18), ("shared", 16, 18),
    ("generic", 64, 4), ("probe", 64, 2), ("shared", 64, 2),
    ("generic", 256, 2),
)
# The complex direct route costs about three times as much when its phase
# polish finds g < 0 (about 1,100 eigensolves against 313). A pair that is not
# orthogonal always takes that path; an orthogonal one takes it or not as
# rounding falls. So from n = 4 up the mix holds only "fails" pairs (drawn
# until the theta sweep says the relation fails), and each seed costs the same.
OP_COMPLEX_MIX = (("generic", 2, 35), ("fails", 4, 45), ("fails", 16, 19), ("fails", 64, 1))
SYMMETRY_SIZES = ((4, 80), (16, 80), (64, 34), (256, 6))
# op-complex: the n = 64 slot takes about 3 s and the other 99 slots 10-130 ms
# each. A timed cycle runs the 99 twice and the n = 64 slot once, so the slots
# around p50 and p90 get twice the visits that whole passes would give them.
REPEATS = {"op-complex": (16, 2)}  # workload: (largest repeated n, passes per cycle)
CLI_SIZES = (2, 4, 16)
CLI_SETS = 3  # instance sets per size: 3 x 35 commands


class OpFailure(Exception):
    """An operation whose output the benchmark checked and found wrong."""


@dataclass
class Slot:
    """One instance of a workload and what is known about its answer."""

    kind: str
    n: int
    A: np.ndarray
    T: np.ndarray
    S: Optional[np.ndarray] = None
    eps: float = 0.0
    multiplicity: int = 0
    # cli only: the command line (without the interpreter) and checks
    argv: tuple[str, ...] = ()
    path: str = ""
    expect: dict = field(default_factory=dict)


def pick_eps(rng: np.random.Generator) -> float:
    """Half from the selftest pool, half uniform, as the selftest suites draw."""
    if rng.random() < 0.5:
        return float(rng.choice(EPS_POOL))
    return float(rng.uniform(0.0, 0.99))


def _deficient_rank(n: int) -> int:
    return n - max(1, n // 4)


def _op_real_slots(rng: np.random.Generator) -> list[Slot]:
    slots = []
    for kind, n, count in OP_REAL_MIX:
        for i in range(count):
            # every fourth instance of a cell has a rank-deficient A; the
            # probe construction needs rank >= 2, so n = 2 probes stay full
            rank = _deficient_rank(n) if i % 4 == 3 and not (kind == "probe" and n == 2) else n
            a = smp.random_psd(rng, n, rank=rank)
            eps = pick_eps(rng)
            if kind == "shared":
                t, s = smp.shared_attainment_pair(rng, a, multiplicity=1 + i % 2)
            else:
                t = smp.random_a_bounded(rng, a)
                s = smp.random_a_bounded(rng, a)
                if kind == "probe":
                    # S perp T holds by construction; decide S perp T
                    t, s = smp.eps_orthogonal_probe(rng, a, t, eps), t
            slots.append(Slot(kind, n, a.matrix, t, s, eps))
    return slots


def _op_complex_slots(rng: np.random.Generator, mix=OP_COMPLEX_MIX) -> list[Slot]:
    slots = []
    for kind, n, count in mix:
        for i in range(count):
            rank = _deficient_rank(n) if i % 4 == 3 else n
            a = smp.random_psd(rng, n, rank=rank, complex_field=True)
            while True:
                t = smp.random_a_bounded(rng, a)
                s = smp.random_a_bounded(rng, a)
                eps = pick_eps(rng)
                scale = so.operator_norm_a(a, t) * so.operator_norm_a(a, s)
                margin = so.op_orth_theta_sweep_complex(a, t, s, eps).margin / scale
                if abs(margin) >= EPS_CLEARANCE and (kind != "fails" or margin < 0.0):
                    break
            slots.append(Slot(kind, n, a.matrix, t, s, eps))
    return slots


def _symmetry_slot(rng: np.random.Generator, family: str, n: int, i: int) -> Slot:
    full = family != "zero_norm" and (i // len(SYM_FAMILIES)) % 2 == 0
    a = smp.random_psd(rng, n, rank=n if full else _deficient_rank(n))
    m = 0
    if family == "generic":
        t = smp.random_a_bounded(rng, a)
    elif family == "multiplicity":
        m = 2 + i % 2
        t = smp.operator_with_multiplicity(rng, a, m)
    elif family == "rank_one":
        t = smp.rank_one_operator(rng, a)
    elif family == "isometry":
        t = smp.random_a_isometry(rng, a)
    else:
        t = smp.zero_a_norm_operator(rng, a)
    return Slot(family, n, a.matrix, t, eps=pick_eps(rng), multiplicity=m)


def _symmetry_slots(rng: np.random.Generator) -> list[Slot]:
    return [
        _symmetry_slot(rng, SYM_FAMILIES[i % len(SYM_FAMILIES)], n, i)
        for n, count in SYMMETRY_SIZES
        for i in range(count)
    ]


def _encode(m: np.ndarray) -> list:
    if np.iscomplexobj(m):
        return np.stack([m.real, m.imag], axis=-1).tolist()
    return m.tolist()


def _write_instance(path: Path, complex_field: bool, a: np.ndarray, t, s, eps, x=None, y=None) -> str:
    doc = {"schema": 1, "field": "complex" if complex_field else "real", "A": _encode(a), "epsilon": eps}
    for key, value in (("T", t), ("S", s), ("x", x), ("y", y)):
        if value is not None:
            doc[key] = _encode(value)
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _cli_slots(rng: np.random.Generator, workdir: Path) -> list[Slot]:
    """Instance files for the CLI, and the commands run on each of them.

    ``CLI_SETS`` times per size: a generic real pair (every command), a probe
    pair whose check must hold, an A-isometry (right symmetric, isometry flag
    set), a zero A-norm operator (left symmetric; needs rank(A) >= 2 and a
    null space, so n >= 4), and a generic complex pair (norm and both checks).
    """
    slots = []

    def add(kind, n, a, t, s, eps, commands, complex_field=False, x=None, y=None, **expect):
        path = _write_instance(
            workdir / f"{kind}-{'c' if complex_field else 'r'}{n}-{len(slots)}.json",
            complex_field, a.matrix, t, s, eps, x, y,
        )
        for command in commands:
            slots.append(Slot(kind, n, a.matrix, t, s, eps, argv=command, path=path, expect=expect))

    norm, check_op, check_vec = ("norm",), ("check", "--mode", "op"), ("check", "--mode", "vec")
    right, left = ("classify", "--side", "right"), ("classify", "--side", "left")
    for n in (n for _ in range(CLI_SETS) for n in CLI_SIZES):
        a = smp.random_psd(rng, n)
        t, s = smp.random_a_bounded(rng, a), smp.random_a_bounded(rng, a)
        x, y = smp.random_vector(rng, n), smp.random_vector(rng, n)
        add("generic", n, a, t, s, pick_eps(rng), (norm, check_op, check_vec, right, left),
            x=x, y=y, norm=so.operator_norm_a(a, t))

        eps = pick_eps(rng)
        add("probe", n, a, smp.eps_orthogonal_probe(rng, a, t, eps), t, eps, (check_op,), holds=True)

        iso = smp.random_a_isometry(rng, a)
        add("isometry", n, a, iso, None, pick_eps(rng), (right, norm),
            verdict="right_symmetric", isometry=True, norm=so.operator_norm_a(a, iso))

        if n >= 4:
            a_def = smp.random_psd(rng, n, rank=_deficient_rank(n))
            add("zero_norm", n, a_def, smp.zero_a_norm_operator(rng, a_def), None, pick_eps(rng),
                (left,), verdict="left_symmetric")

        a_c = smp.random_psd(rng, n, complex_field=True)
        t_c, s_c = smp.random_a_bounded(rng, a_c), smp.random_a_bounded(rng, a_c)
        x_c, y_c = smp.random_vector(rng, n, True), smp.random_vector(rng, n, True)
        add("generic", n, a_c, t_c, s_c, pick_eps(rng), (norm, check_op, check_vec),
            complex_field=True, x=x_c, y=y_c, norm=so.operator_norm_a(a_c, t_c))
    return slots


def build(workload: str, seed: int, workdir: Path) -> list[Slot]:
    """The workload's slots for one cycle, drawn from the seed alone."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "op-real":
        slots = _op_real_slots(rng)
    elif workload == "op-complex":
        slots = _op_complex_slots(rng)
    elif workload == "symmetry":
        slots = _symmetry_slots(rng)
    else:
        workdir.mkdir(parents=True, exist_ok=True)
        slots = _cli_slots(rng, workdir)
    assert len(slots) >= MIN_SLOTS, f"{workload}: {len(slots)} slots, p90 needs {MIN_SLOTS}"
    return slots


def segments(workload: str, slots: list[Slot]) -> list[list[int]]:
    """One timed cycle as runs of slot indices: every slot once, and the
    slots that ``REPEATS`` names once per pass."""
    if workload not in REPEATS:
        return [list(range(len(slots)))]
    top_n, passes = REPEATS[workload]
    light = [i for i, slot in enumerate(slots) if slot.n <= top_n]
    heavy = [i for i, slot in enumerate(slots) if slot.n > top_n]
    return [light] * (passes - 1) + [light + heavy]


# ----------------------------- library operations ---------------------------


def op_real(slot: Slot) -> None:
    """The calls of ``check --mode op --route auto`` on a real pair, plus the
    pointwise route where the attainment sets are shared."""
    a = so.psd_decompose(slot.A)
    direct = so.op_orth_direct(a, slot.T, slot.S, slot.eps)
    attain = so.op_orth_attainment_real(a, slot.T, slot.S, slot.eps)
    if direct.holds != attain.holds:
        raise OpFailure("route disagreement: direct vs attainment")
    if slot.kind == "probe" and not direct.holds:
        raise OpFailure("known verdict wrong: probe pair must hold")
    if slot.kind == "shared":
        if not so.attainment_subset(a, slot.T, slot.S):
            raise OpFailure("known verdict wrong: shared attainment pair must be a subset")
        if so.op_orth_pointwise(a, slot.T, slot.S, slot.eps).holds != attain.holds:
            raise OpFailure("route disagreement: pointwise vs attainment")


def op_complex(slot: Slot) -> None:
    a = so.psd_decompose(slot.A)
    direct = so.op_orth_direct(a, slot.T, slot.S, slot.eps)
    sweep = so.op_orth_theta_sweep_complex(a, slot.T, slot.S, slot.eps)
    if direct.holds != sweep.holds:
        raise OpFailure("route disagreement: direct vs theta sweep")
    if slot.kind == "fails" and direct.holds:
        raise OpFailure("known verdict wrong: fails pair must not hold")


def op_symmetry(slot: Slot) -> None:
    """The library calls of ``classify --side right|left`` and ``norm``."""
    a = so.psd_decompose(slot.A)
    right = so.classify_right(a, slot.T, slot.eps)
    left = so.classify_left(a, slot.T, slot.eps)
    att = so.norm_attainment_set(a, slot.T)
    iso = so.is_a_isometry(a, slot.T)
    kind = so.SymmetryKind
    isometric = slot.kind in ("isometry", "zero_norm")
    if isometric != (right.kind is kind.RIGHT_SYMMETRIC) or isometric != iso.ok:
        raise OpFailure(f"known verdict wrong: {slot.kind} right symmetry / isometry flag")
    if not isometric and right.witness is None:
        raise OpFailure("right classification without a witness")
    if (slot.kind == "zero_norm") != (left.kind is kind.LEFT_SYMMETRIC):
        raise OpFailure(f"known verdict wrong: {slot.kind} left symmetry")
    if slot.kind != "zero_norm" and left.witness is None:
        raise OpFailure("left classification without a witness")
    expected_m = {"multiplicity": slot.multiplicity, "rank_one": 1, "isometry": a.rank}.get(slot.kind)
    if expected_m is not None and att.multiplicity != expected_m:
        raise OpFailure(f"known verdict wrong: {slot.kind} attainment multiplicity")


LIBRARY_OPS = {"op-real": op_real, "op-complex": op_complex, "symmetry": op_symmetry}


# ----------------------------- CLI operations -------------------------------


@dataclass
class ChildRun:
    seconds: float
    rss_kib: int
    code: int


def run_child(argv: list[str]) -> ChildRun:
    """Run one child process to completion; time it and read its own peak RSS."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    # reaped here, for the rusage; tell Popen so it does not wait again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(seconds, usage.ru_maxrss, proc.returncode)


def cli_argv(slot: Slot, report: Path, launcher: Optional[list[str]] = None) -> list[str]:
    head = launcher if launcher is not None else [sys.executable, "-m", "semiortho.cli"]
    return [*head, *slot.argv, slot.path, "--json-out", str(report)]


def check_cli(slot: Slot, code: int, report: Path) -> None:
    """Check one CLI report against what is known about its instance.

    A child that dies on an uncaught exception exits 1, like a failed witness
    check, but writes no report; so verdicts come from the report alone.
    """
    if code == 4:
        raise OpFailure("route disagreement (exit 4)")
    if not report.is_file():
        raise OpFailure(f"no report (exit {code})")
    doc = json.loads(report.read_text(encoding="utf-8"))
    exp = slot.expect
    if slot.argv[0] == "norm":
        derived = doc["derived"]
        if abs(derived["norm_t"] - exp["norm"]) > 1e-9 * max(1.0, exp["norm"]):
            raise OpFailure("norm differs from the library value")
        if exp.get("isometry") and not derived["isometry"]:
            raise OpFailure("known verdict wrong: A-isometry not flagged")
    elif slot.argv[0] == "check":
        if not doc["routes_agree"]:
            raise OpFailure("route disagreement (routes_agree false)")
        if exp.get("holds") and not all(v["holds"] for v in doc["verdicts"]):
            raise OpFailure("known verdict wrong: probe pair must hold")
    else:
        entry = doc["classification"]
        if "witness" in entry and not entry["witness_verified"]:
            raise OpFailure("witness_verified false")
        if "verdict" in exp and entry["kind"] != exp["verdict"]:
            raise OpFailure(f"known verdict wrong: expected {exp['verdict']}")
    if code != 0:
        raise OpFailure(f"exit code {code}")


# ----------------------------- known-defect probes ----------------------------


def near_tie_slot(rng: np.random.Generator) -> Slot:
    """ROADMAP item-4 recipe: n = 4, full-rank A, the top two singular values
    of T~ a log-uniform gap in [1e-12, 1e-4] apart, random S."""
    a = smp.random_psd(rng, 4)
    gap = 10.0 ** rng.uniform(-12.0, -4.0)
    left, right = smp.random_orthonormal(rng, 4), smp.random_orthonormal(rng, 4)
    t = smp.lift_operator(rng, a, (left * np.array([1.0, 1.0 - gap, 0.5, 0.2])[None, :]) @ right.T)
    s = smp.random_a_bounded(rng, a)
    return Slot("near_tie", 4, a.matrix, t, s, float(rng.uniform(0.05, 0.9)))


def near_boundary_slot(rng: np.random.Generator) -> Slot:
    """n = 4 complex pair whose epsilon lies below the boundary by a
    log-uniform 1e-6 to 1e-3 of ||T||_A ||S||_A: the relation fails, barely."""
    while True:
        a = smp.random_psd(rng, 4, complex_field=True)
        t, s = smp.random_a_bounded(rng, a), smp.random_a_bounded(rng, a)
        scale = so.operator_norm_a(a, t) * so.operator_norm_a(a, s)
        # the sweep margin is eps * scale minus a distance that does not depend on eps
        boundary = -so.op_orth_theta_sweep_complex(a, t, s, 0.0).margin / scale
        eps = boundary - 10.0 ** rng.uniform(-6.0, -3.0)
        if 0.0 <= eps < 1.0:
            return Slot("near_boundary", 4, a.matrix, t, s, float(eps))


def probe_slots(workload: str, seed: int) -> dict[str, list[tuple[Slot, object]]]:
    """The workload's known-defect probes: instances paired with the operation."""
    rng = np.random.default_rng([seed, len(WORKLOADS)])
    if workload == "op-real":
        return {"near_tie_routes": [(near_tie_slot(rng), op_real) for _ in range(NEAR_TIE_PROBES)]}
    if workload == "symmetry":
        return {"near_tie_symmetry": [(near_tie_slot(rng), op_symmetry) for _ in range(NEAR_TIE_PROBES)]}
    if workload == "op-complex":
        big = _op_complex_slots(rng, mix=(("generic", 256, 1),))
        return {
            "near_boundary_complex": [(near_boundary_slot(rng), op_complex) for _ in range(NEAR_BOUNDARY_PROBES)],
            "complex_n256_direct": [(s, op_complex) for s in big],
        }
    return {}


FAILURES = (OpFailure, so.SemiorthoError, MemoryError, np.linalg.LinAlgError)


def failure_reason(exc: BaseException) -> str:
    if isinstance(exc, OpFailure):
        return str(exc)
    return type(exc).__name__


def run_probes(probes: dict[str, list[tuple[Slot, object]]]) -> dict:
    """Attempted and failed counts, by reason, of each known-defect probe."""
    out = {}
    for name, items in probes.items():
        reasons: dict[str, int] = {}
        for slot, op in items:
            try:
                op(slot)
            except FAILURES as exc:
                reason = failure_reason(exc)
                reasons[reason] = reasons.get(reason, 0) + 1
        out[name] = {"attempted": len(items), "failed": sum(reasons.values()), "reasons": reasons}
    return out
