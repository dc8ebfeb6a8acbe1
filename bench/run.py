"""semiortho benchmark: four seeded closed-loop workloads, end to end and per layer.

Usage (from the root of a checkout):

    python3 bench/run.py --workload op-real --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 0

Each workload runs in a worker process of its own (``bench/worker.py``) with
OpenBLAS/OpenMP/MKL pinned to one thread and ``src/`` on ``PYTHONPATH``; the
benchmark installs nothing and refuses to run without ``src/semiortho``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run. Human-readable lines come first; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import Reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("op-real", "op-complex", "symmetry", "cli")
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Set-up is measured in fresh processes: this many before the timed worker and
# as many after it, plus the timed worker's own. Their median is reported,
# scaled by the timed worker's median reference-kernel time (see
# ``worker.Reference``).
SETUP_SAMPLES_EACH_SIDE = 3
WORKER_TIMEOUT_S = 170.0


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def spawn(args, extra: list[str], deadline: float) -> tuple[float, dict | None]:
    """Run one worker to completion; return its set-up seconds and result."""
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--commit", args.commit, *extra,
    ]
    proc = subprocess.Popen(
        [*argv, "--spawned-at", repr(time.monotonic())],
        env=env, stdout=subprocess.PIPE, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and any CLI child it started
        proc.communicate()
        shutil.rmtree(BENCH / "_work" / str(proc.pid), ignore_errors=True)
        raise SystemExit(f"worker for {args.workload} timed out")
    if proc.returncode != 0:
        raise SystemExit(f"worker for {args.workload} exited with code {proc.returncode}")
    lines = out.decode().splitlines()
    setup = float(lines[0].split()[1])
    return setup, json.loads(lines[1]) if len(lines) > 1 else None


def setup_samples(args, deadline: float) -> list[float]:
    """Set-up seconds of fresh processes, started on each CPU in turn."""
    cpus = sorted(os.sched_getaffinity(0))
    samples = []
    for i in range(SETUP_SAMPLES_EACH_SIDE):
        os.sched_setaffinity(0, {cpus[i % len(cpus)]})  # the child inherits it
        try:
            samples.append(spawn(args, ["--setup-only"], deadline)[0])
        finally:
            os.sched_setaffinity(0, cpus)
    return samples


def end_to_end(args, deadline: float) -> tuple[dict, dict]:
    setups = setup_samples(args, deadline)
    setup, result = spawn(args, [], deadline)
    setups += [setup, *setup_samples(args, deadline)]
    host_scale = Reference.REFERENCE_S / statistics.median(result["reference_s"])
    metrics = {
        "setup_s": (statistics.median(setups) * host_scale, "s"),
        **mix_metrics(result["slot_s"]),
        "peak_rss_mib": (result["rss_kib"] / 1024, "MiB"),
    }
    result["setup_samples_s"] = setups
    result["wall_metrics"] = mix_metrics(result["slot_wall_s"])
    return result, {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()}


def mix_metrics(slot_s: list[float]) -> dict:
    """Rate and latency percentiles from one time per slot, the median of its visits."""
    slot_ms = [s * 1e3 for s in slot_s]
    return {
        "ops_per_s": (len(slot_ms) / (sum(slot_ms) / 1e3), "1/s"),
        "latency_p50_ms": (statistics.median(slot_ms), "ms"),
        "latency_p90_ms": (statistics.quantiles(slot_ms, n=10, method="inclusive")[8], "ms"),
    }


def per_layer(args, deadline: float) -> tuple[dict, dict]:
    _, result = spawn(args, [], deadline)
    return result, result.pop("metrics")


def describe(reasons: dict) -> str:
    return "; ".join(f"{reason}: {count}" for reason, count in sorted(reasons.items())) or "none"


def report(args, result: dict, metrics: dict) -> None:
    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"# env {json.dumps(result['env'], sort_keys=True)}")
    print(f"# operations attempted {result['attempted']}, failed {result['failed']}: "
          f"{describe(result['reasons'])}")
    if "cycles" in result:
        print(f"# {result['slots']} slots, {result['cycles']} cycles in {result['elapsed_s']:.1f} s; "
              f"set-up samples {', '.join(f'{s:.4f}' for s in result['setup_samples_s'])} s (wall)")
        ref_ms = sorted(s * 1e3 for s in result["reference_s"])
        print(f"# reference kernel {len(ref_ms)} times: fastest {ref_ms[0]:.3f} ms, "
              f"median {statistics.median(ref_ms):.3f} ms, slowest {ref_ms[-1]:.3f} ms")
        print("# unscaled wall times: " + ", ".join(
            f"{name} {value:.6g} {unit}" for name, (value, unit) in result["wall_metrics"].items()))
    for name in ("warmup_reasons", "coverage_reasons"):
        if result.get(name):
            print(f"# {name.split('_')[0]} failures: {describe(result[name])}")
    if "selftest_passed" in result:
        print(f"# selftest --seed 42 --trials 100 passed: {result['selftest_passed']}")
    for name, probe in result["probes"].items():
        print(f"# known defect probe {name}: {probe['failed']}/{probe['attempted']} failed "
              f"({describe(probe['reasons'])})")
    for name, metric in metrics.items():
        print(f"{name:58s} {metric['value']:14.6g} {metric['unit']}")


def correct(result: dict) -> bool:
    return (
        result["failed"] == 0
        and not result["warmup_reasons"]
        and not result.get("coverage_reasons")
        and result.get("selftest_passed", True)
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "semiortho" / "__init__.py").is_file():
        print(f"error: no semiortho sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    args.commit = commit()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        args.workload = name
        deadline = time.monotonic() + WORKER_TIMEOUT_S
        result, metrics = (per_layer if args.trace else end_to_end)(args, deadline)
        report(args, result, metrics)
        print(json.dumps({
            "correct": correct(result),
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
