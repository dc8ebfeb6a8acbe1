"""The benchmark's traced symmetry run needs a span for every symmetry and
operators layer at every size: the library must keep calling its public
functions, with the PsdOperator first, so that the tracer sees them."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec.loader.exec_module(module)
    return module


def test_traced_symmetry_covers_every_layer(monkeypatch):
    tracing = _load("tracing", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    rng = np.random.default_rng(4)
    slots = [workloads._symmetry_slot(rng, family, 4, i) for i, family in enumerate(workloads.SYM_FAMILIES)]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for slot in slots:
            workloads.op_symmetry(slot)
    finally:
        tracer.uninstall()
    cells = tracer.stats["cells"]
    layers = [name for name in tracing.LAYERS if name.startswith(("symmetry.", "operators."))]
    assert len(layers) == 7
    missing = [name for name in layers if f"{name}||4" not in cells]
    assert not missing, f"no traced calls at n = 4 of {missing}"
