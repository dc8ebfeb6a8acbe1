"""One workload in one process: set up, warm up, run, report one JSON line.

Started by ``run.py``. The process refuses to run unless the BLAS thread
variables are pinned to 1, and caps its own address space so that a decision
too large for the box fails with ``MemoryError`` instead of waking the OOM
killer. It prints ``READY <setup seconds>`` once its inputs exist and then,
unless ``--setup-only``, its result as one JSON line.

Untraced (``--trace 0``): one warm-up pass, then whole cycles of the mix until
``--seconds`` have passed and at least ``MIN_CYCLES`` cycles ran. Each slot
reports the median of its visits' scaled times (see below). Then the peak RSS
is read, and last the workload's own known-defect probes run.

The process runs on one CPU at a time and moves to another CPU it may use
between the segments of a cycle and from one cycle to the next, so each slot
is timed on every CPU in turn (see ``Loop``). Timed visits run in blocks of
about ``BLOCK_S`` seconds with a fixed reference kernel timed before and after
each block on the same CPU; each visit's time is scaled to the reference
kernel's nominal speed (see ``Reference``).

Traced (``--trace 1``): warm-up, half the time untraced and half traced, then
one traced pass over "coverage" slots of the other workloads, then one pass
with ``tracemalloc`` on for the memory peaks, then one ``semiortho selftest``
process (its wall time and per-suite times). The benchmark's result format
asks a traced run of any workload for every per-layer metric; the coverage
pass fills the cells that the workload's own mix does not reach. A cell the
own mix reaches always takes its value from the own mix.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Complex n = 64 decisions peak near 1 GiB of address space; the complex
# n = 256 direct route asks for one ~5 GiB batch and must fail here.
ADDRESS_SPACE_CAP = 3 << 30
# Every slot is visited at least this often in a timed run; a slot's time is
# the median of its visits.
MIN_CYCLES = 2
# The CPUs the worker may use, in the order cycles visit them.
CPUS = sorted(os.sched_getaffinity(0))
# Timed visits run in blocks of about this many seconds; the reference kernel
# is timed between blocks.
BLOCK_S = 0.1
SELFTEST_ARGS = ("selftest", "--seed", "42", "--trials", "100")
# Slots of another workload run once, traced, to fill the cells the own mix
# does not reach: keys as ``Workload.key`` gives them.
COVERAGE = {
    "op-real": {("shared", 4), ("shared", 16), ("shared", 64), ("generic", 256)},
    "op-complex": {("fails", 4), ("fails", 16), ("fails", 64)},
    "symmetry": {("generic", 4), ("generic", 16), ("generic", 64), ("generic", 256)},
    "cli": {("generic", 4, ("norm",)), ("generic", 4, ("check", "--mode", "vec"))},
}
SIZES = (4, 16, 64, 256)


def environment(seed: int, commit: str) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {var: os.environ.get(var) for var in PIN_VARS},
        "nproc": os.cpu_count(),
        "cpus": CPUS,
        "address_space_cap_gib": ADDRESS_SPACE_CAP / 2**30,
        "commit": commit,
        "seed": seed,
    }


class Reference:
    """A fixed numpy kernel that measures how fast the host runs right now.

    On a shared host the same code runs up to about 1.9 times slower for
    seconds to minutes at a time, on both vCPUs, and a slow phase can cover a
    whole run. The kernel (40 ``eigvalsh`` calls on a fixed batch of 8
    Hermitian 6 x 6 matrices: numpy call overhead plus a small LAPACK solve,
    like the library's own operations) slows down with the host and does not
    depend on the library, so a library change cannot move it. Measured next
    to the library's visits, its time ``t_ref`` turns a visit's wall time
    ``t`` into ``t * REFERENCE_S / t_ref``: the time on a host that runs the
    kernel in ``REFERENCE_S``, about its fastest time on the 2-vCPU VM the
    benchmark was built on. The timed loop calls it between blocks of visits;
    its own time is not part of any visit.
    """

    REFERENCE_S = 1.2e-3
    CALLS = 2  # kernel calls per measurement, at the least
    SHARE = 0.02  # after a long block, measure for this share of its time
    MAX_CALLS = 50

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        m = rng.standard_normal((8, 6, 6)) + 1j * rng.standard_normal((8, 6, 6))
        self.batch = m + m.conj().transpose(0, 2, 1)
        self.eigvalsh = np.linalg.eigvalsh  # bound here, so tracing never counts it
        self.samples: list[float] = []
        self.measure()  # warm-up, not kept
        self.samples.clear()

    def measure(self, after_s: float = 0.0) -> list[float]:
        """Seconds of each kernel call of one measurement: ``CALLS`` calls, or
        more after a block of ``after_s`` seconds, so that a long visit's
        host speed is not read off two calls."""
        calls = min(self.MAX_CALLS, max(self.CALLS, round(self.SHARE * after_s / self.REFERENCE_S)))
        out = []
        for _ in range(calls):
            start = time.perf_counter()
            for _ in range(40):
                self.eigvalsh(self.batch)
            out.append(time.perf_counter() - start)
        self.samples += out
        return out


class Loop:
    """Closed loop: whole cycles over the slots, one operation at a time.

    ``times`` and ``wall`` keep, per slot, the scaled and the wall times of
    its completed visits. With a ``Reference``, the visits of a segment run in
    blocks of about ``BLOCK_S`` seconds, the reference is measured between
    blocks, and a visit's time is scaled by ``REFERENCE_S`` over the median
    kernel time of the two measurements around its block; without one, scaled
    times are wall times. A cycle is a list of segments, runs of slot indices
    (by default one segment of every slot; see ``workloads.segments``).
    Segment j of cycle k runs pinned to CPU ``CPUS[(k + j) % len(CPUS)]``, so
    every slot is timed on every CPU.
    """

    def __init__(self, run_op, reference: "Reference | None" = None) -> None:
        self.run_op = run_op  # slot -> (seconds, failure reason or None)
        self.reference = reference
        self.times: dict[int, list[float]] = {}
        self.wall: dict[int, list[float]] = {}
        self.completed = 0
        self.reasons: Counter[str] = Counter()
        self.attempted = 0
        self.cycles = 0
        self.elapsed = 0.0

    def run(self, slots, min_seconds: float, min_cycles: int, segments=None) -> "Loop":
        segments = segments or [range(len(slots))]
        start = time.perf_counter()
        while True:
            for j, segment in enumerate(segments):
                os.sched_setaffinity(0, {CPUS[(self.cycles + j) % len(CPUS)]})
                self._segment(slots, list(segment))
            self.cycles += 1
            self.elapsed = time.perf_counter() - start
            if self.elapsed >= min_seconds and self.cycles >= min_cycles:
                return self

    def _segment(self, slots, indices: list[int]) -> None:
        before = self.reference.measure() if self.reference else None
        pos = 0
        while pos < len(indices):
            block_start, visits = time.perf_counter(), []
            while pos < len(indices) and time.perf_counter() - block_start < BLOCK_S:
                i = indices[pos]
                pos += 1
                seconds, reason = self.run_op(slots[i])
                self.attempted += 1
                if reason is None:
                    self.completed += 1
                    visits.append((i, seconds))
                else:
                    self.reasons[reason] += 1
            scale = 1.0
            if self.reference:
                after = self.reference.measure(time.perf_counter() - block_start)
                scale = Reference.REFERENCE_S / statistics.median(before + after)
                before = after
            for i, seconds in visits:
                self.times.setdefault(i, []).append(seconds * scale)
                self.wall.setdefault(i, []).append(seconds)

    @property
    def failed(self) -> int:
        return sum(self.reasons.values())

    @property
    def ops_per_s(self) -> float:
        """Completed operations per second of loop wall time."""
        return self.completed / self.elapsed


class Workload:
    """The slots of one workload and how one operation on a slot runs."""

    def __init__(self, name: str, seed: int, workdir: Path) -> None:
        # numpy and semiortho load only after main() checked the pins and set the cap
        import workloads as wl

        self.wl = wl
        self.name = name
        self.workdir = workdir / name
        self.slots = wl.build(name, seed, self.workdir)
        self.is_cli = name == "cli"
        self.max_rss_kib = 0
        self.child_stats = None  # trace data of the CLI children, when traced

    def key(self, slot):
        return (slot.kind, slot.n, slot.argv) if self.is_cli else (slot.kind, slot.n)

    def first_of_each(self, key, wanted=None) -> list:
        """The first slot for each value of ``key`` (only those in ``wanted``)."""
        seen, out = set(), []
        for slot in self.slots:
            k = key(slot)
            if k not in seen and (wanted is None or k in wanted):
                seen.add(k)
                out.append(slot)
        return out

    def run_op(self, slot):
        if self.is_cli:
            return self._run_cli(slot)
        start = time.perf_counter()
        try:
            self.wl.LIBRARY_OPS[self.name](slot)
            reason = None
        except self.wl.FAILURES as exc:
            reason = self.wl.failure_reason(exc)
        return time.perf_counter() - start, reason

    def _run_cli(self, slot):
        import tracing

        report = self.workdir / "report.json"
        stats_path = self.workdir / "stats.json"
        report.unlink(missing_ok=True)
        stats_path.unlink(missing_ok=True)
        launcher = None
        if self.child_stats is not None:
            launcher = [sys.executable, str(BENCH / "cli_child.py"), str(stats_path)]
        run = self.wl.run_child(self.wl.cli_argv(slot, report, launcher))
        self.max_rss_kib = max(self.max_rss_kib, run.rss_kib)
        try:
            if self.child_stats is not None:
                if not stats_path.is_file():
                    raise self.wl.OpFailure(f"traced child wrote no stats (exit {run.code})")
                tracing.merge(self.child_stats, json.loads(stats_path.read_text(encoding="utf-8")))
            self.wl.check_cli(slot, run.code, report)
            reason = None
        except self.wl.OpFailure as exc:
            reason = str(exc)
        return run.seconds, reason


def warm_up(work: Workload) -> dict:
    """One untimed pass over the first slot of each kind and size (each
    command, for the CLI), so imports, .pyc files and BLAS set-up are done."""
    key = (lambda slot: slot.argv) if work.is_cli else work.key
    return Loop(work.run_op).run(work.first_of_each(key), 0.0, 1).reasons


def untraced(work: Workload, seed: int, seconds: float) -> dict:
    wl = work.wl
    warm = warm_up(work)
    reference = Reference()
    loop = Loop(work.run_op, reference).run(work.slots, seconds, MIN_CYCLES, wl.segments(work.name, work.slots))
    # read before the probes, so that a probe never counts as the workload's memory
    rss_kib = work.max_rss_kib if work.is_cli else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "attempted": loop.attempted,
        "failed": loop.failed,
        "reasons": loop.reasons,
        "warmup_reasons": warm,
        "slots": len(work.slots),
        "cycles": loop.cycles,
        "elapsed_s": loop.elapsed,
        "slot_s": [statistics.median(v) for v in loop.times.values()],
        "slot_wall_s": [statistics.median(v) for v in loop.wall.values()],
        "reference_s": reference.samples,
        "rss_kib": rss_kib,
        "probes": wl.run_probes(wl.probe_slots(work.name, seed)),
    }


# ----------------------------- traced run -----------------------------------


def per_layer_spec() -> list[tuple[str, str, str, tuple]]:
    """(name, unit, better, source) of every per-layer metric, in order."""
    from semiortho.selftest import SUITES

    spec = []

    def timed(layer, sizes, field=""):
        middle = f".{field}" if field else ""
        for n in sizes:
            spec.append((f"{layer}{middle}.ms.n{n}", "ms", "lower", ("ms", layer, field, n)))

    def eig(layer, field=""):
        middle = f".{field}" if field else ""
        spec.append((f"{layer}{middle}.eigsolves_per_call", "count", "lower", ("eig", layer, field)))

    direct, theta = "orthogonality.op_orth_direct", "orthogonality.op_orth_theta_sweep_complex"
    timed("core.psd_decompose", SIZES)
    timed("operators.bind_operator", SIZES)
    spec.append(("operators.bind_operator.calls_per_op", "count", "lower", ("per_op", "operators.bind_operator")))
    timed("operators.norm_attainment_set", SIZES)
    timed("operators.is_a_isometry", SIZES)
    timed(direct, SIZES, "real")
    timed(direct, SIZES[:3], "complex")
    eig(direct, "real")
    eig(direct, "complex")
    for field in ("real", "complex"):
        for n in SIZES[:3]:
            spec.append((f"{direct}.{field}.peak_mib.n{n}", "MiB", "lower", ("peak", direct, field, n)))
    for layer in ("op_orth_attainment_real", "attainment_subset", "op_orth_pointwise"):
        timed(f"orthogonality.{layer}", SIZES[:3])
    timed(theta, SIZES[:3])
    eig(theta)
    for layer in ("classify_right", "classify_left", "right_witness", "left_witness"):
        timed(f"symmetry.{layer}", SIZES)
    eig("symmetry.classify_right")
    eig("symmetry.classify_left")
    for layer in ("vectors.is_eps_orthogonal", "vectors.is_chmielinski_orthogonal_vec"):
        spec.append((f"{layer}.us", "us", "lower", ("us", layer)))
    spec.append(("cli.import.ms", "ms", "lower", ("import",)))
    for layer in ("cli.load_instance", "cli.canonical_json", "cli.main"):
        spec.append((f"{layer}.ms", "ms", "lower", ("ms", layer, "", None)))
    spec.append(("selftest.wall_s", "s", "lower", ("suite", "wall")))
    for suite in SUITES:
        spec.append((f"selftest.{suite}.s", "s", "lower", ("suite", suite)))
    for name in ("eigh", "eigvalsh", "svd", "qr"):
        spec.append((f"numpy.linalg.{name}.calls_per_op", "count", "lower", ("linalg", name)))
    spec.append(("bench.ops_per_s.untraced", "1/s", "higher", ("rate", "untraced")))
    spec.append(("bench.ops_per_s.traced", "1/s", "higher", ("rate", "traced")))
    return spec


def layer_metrics(own: dict, cov: dict, peaks: dict, ops: int, rates: dict, suites: dict) -> dict:
    """Per-layer metric values: from the own mix where it reaches a cell,
    else from the coverage pass; memory peaks from the peak pass."""

    def cells(layer, field, n, sources=(own, cov)):
        for stats in sources:
            found = []
            for key, cell in stats["cells"].items():
                l, f, size = key.split("|")
                if l == layer and f == field and (n is None or int(size) == n):
                    found.append(cell)
            if found:
                return found
        raise KeyError(f"no traced calls of {layer} {field} n={n}")

    def median_self_ns(found):
        return statistics.median(ns for cell in found for ns in cell[1])

    metrics = {}
    for name, unit, _, src in per_layer_spec():
        kind = src[0]
        if kind == "ms":
            value = median_self_ns(cells(*src[1:])) / 1e6
        elif kind == "us":
            value = median_self_ns(cells(src[1], "", None)) / 1e3
        elif kind == "eig":
            found = cells(src[1], src[2], None)
            value = sum(c[2] for c in found) / sum(c[0] for c in found)
        elif kind == "peak":
            value = max(c[3] for c in cells(*src[1:], sources=(peaks,))) / 2**20
        elif kind == "per_op":
            value = sum(c[0] for k, c in own["cells"].items() if k.startswith(src[1] + "|")) / ops
        elif kind == "linalg":
            value = own["linalg"][src[1]] / ops
        elif kind == "import":
            value = statistics.median(own["import_ns"] or cov["import_ns"]) / 1e6
        elif kind == "suite":
            value = suites[src[1]]
        else:
            value = rates[src[1]]
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def traced(work: Workload, seed: int, seconds: float) -> dict:
    import tracemalloc

    import tracing

    wl = work.wl
    others = [Workload(name, seed, work.workdir.parent) for name in wl.WORKLOADS if name != work.name]
    coverage = [(other, other.first_of_each(other.key, COVERAGE[other.name])) for other in others]
    # memory peaks come from a pass of their own: tracemalloc slows every
    # allocation, so it stays off while layer times are taken
    peak_pass = [(w, slots) for w, slots in [(work, work.first_of_each(work.key)), *coverage] if not w.is_cli]
    warm = warm_up(work)
    for other, slots in coverage:
        Loop(other.run_op).run(slots, 0.0, 1)
    plain = Loop(work.run_op).run(work.slots, seconds / 2, 1)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        if work.is_cli:
            work.child_stats = tracing.empty_stats()
        loop = Loop(work.run_op).run(work.slots, seconds / 2, 1)
        own = tracer.reset()
        if work.is_cli:
            tracing.merge(own, work.child_stats)
        side_reasons: Counter[str] = Counter()
        for other, slots in coverage:
            if other.is_cli:
                other.child_stats = tracing.empty_stats()
            side_reasons += Loop(other.run_op).run(slots, 0.0, 1).reasons
        cov = tracer.reset()
        for other, _ in coverage:
            if other.child_stats is not None:
                tracing.merge(cov, other.child_stats)
        tracemalloc.start()
        for w, slots in peak_pass:
            Loop(w.run_op).run(slots, 0.0, 1)
        peaks = tracer.reset()
    finally:
        tracemalloc.stop()
        tracer.uninstall()

    stats_path = work.workdir.parent / "selftest-stats.json"
    run = wl.run_child([sys.executable, str(BENCH / "cli_child.py"), str(stats_path), *SELFTEST_ARGS])
    if not stats_path.is_file():
        raise RuntimeError(f"selftest child wrote no stats (exit {run.code})")
    suites = json.loads(stats_path.read_text(encoding="utf-8"))["suites"]
    suites["wall"] = run.seconds
    rates = {"untraced": plain.ops_per_s, "traced": loop.ops_per_s}
    return {
        "attempted": plain.attempted + loop.attempted,
        "failed": plain.failed + loop.failed,
        "reasons": plain.reasons + loop.reasons,
        "warmup_reasons": warm,
        "coverage_reasons": side_reasons,
        "selftest_passed": run.code == 0,
        "probes": {},
        "metrics": layer_metrics(own, cov, peaks, loop.attempted, rates, suites),
    }


# ----------------------------- entry point ----------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--commit", default="unknown")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    unpinned = [var for var in PIN_VARS if os.environ.get(var) != "1"]
    if unpinned:
        print(f"refusing to time: {', '.join(unpinned)} not pinned to 1", file=sys.stderr)
        return 2
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))

    import semiortho

    if Path(semiortho.__file__).resolve().parent != ROOT / "src" / "semiortho":
        print(f"semiortho imported from {semiortho.__file__}, not from this checkout", file=sys.stderr)
        return 2

    workdir = BENCH / "_work" / f"{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        work = Workload(args.workload, args.seed, workdir)
        print("READY", time.monotonic() - args.spawned_at, flush=True)
        if args.setup_only:
            return 0
        run = traced if args.trace else untraced
        result = run(work, args.seed, args.seconds)
        result["env"] = environment(args.seed, args.commit)
        print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
