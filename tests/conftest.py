from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"

# Powers of ten that the rescaling scans multiply A, an operator or a vector by.
SCAN_POWERS = (-30, -13, -6, 6, 13, 24, 30)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture
def eigh_calls(monkeypatch) -> list:
    """Record np.linalg.eigh calls: the list grows by the shape of the
    argument per call, so ``len`` counts the eigensolves."""
    calls = []
    eigh = np.linalg.eigh

    def counting(*args, **kwargs):
        calls.append(np.shape(args[0] if args else kwargs["a"]))
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


def write_instance(path, **fields) -> str:
    """Write an instance JSON file and return its path as str."""
    payload = {"schema": 1}
    payload.update(fields)
    path.write_text(json.dumps(payload))
    return str(path)


def load_bench(name: str, monkeypatch):
    """Import the benchmark module ``bench/<name>.py`` for one test, writing
    no bytecode into ``bench/``."""
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def zero_subgradient_pairs(monkeypatch, tmp_path) -> dict:
    """Two seed-41 benchmark pairs, as ``bench/workloads.Slot``s keyed by
    field, on which the direct route's search meets a query with a zero
    subgradient once T is scaled up by 10^3 (ROADMAP item 11): ``op-real``
    slot 1 (generic, n = 2) and ``op-complex`` slot 0 (n = 2)."""
    workloads = load_bench("workloads", monkeypatch)
    real = workloads.build("op-real", 41, tmp_path)[1]
    complex_ = workloads.build("op-complex", 41, tmp_path)[0]
    assert (real.kind, real.n, round(real.eps, 5)) == ("generic", 2, 0.17167)
    assert (complex_.n, round(complex_.eps, 4)) == (2, 0.3454)
    return {"real": real, "complex": complex_}
