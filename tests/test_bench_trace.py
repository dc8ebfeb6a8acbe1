"""The benchmark's traced runs need a span for every layer they report at
every size: the library must keep its public functions under the names the
tracer patches and keep calling them, with the PsdOperator first, so that the
tracer sees them."""

from __future__ import annotations

import numpy as np

from conftest import load_bench


def test_traced_symmetry_covers_every_layer(monkeypatch):
    tracing = load_bench("tracing", monkeypatch)
    workloads = load_bench("workloads", monkeypatch)
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


def test_traced_deciders_cover_every_layer(monkeypatch):
    tracing = load_bench("tracing", monkeypatch)
    workloads = load_bench("workloads", monkeypatch)
    so, smp = workloads.so, workloads.smp
    rng = np.random.default_rng(4)
    a = smp.random_psd(rng, 4)
    t, s = smp.shared_attainment_pair(rng, a)
    real = workloads.Slot("shared", 4, a.matrix, t, s, 0.3)
    (complex_,) = workloads._op_complex_slots(rng, mix=(("fails", 4, 1),))
    x, y = smp.random_vector(rng, 4), smp.random_vector(rng, 4)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workloads.op_real(real)
        workloads.op_complex(complex_)
        so.is_eps_orthogonal(a, x, y, 0.3)
        so.is_chmielinski_orthogonal_vec(a, x, y, 0.3)
    finally:
        tracer.uninstall()
    cells = tracer.stats["cells"]
    layers = [name for name in tracing.LAYERS if name.startswith(("orthogonality.", "vectors."))]
    assert len(layers) == 7
    keys = [
        f"{name}|{field}|4"
        for name in layers
        for field in (("real", "complex") if name in tracing.FIELD_SPLIT else ("",))
    ]
    missing = [key for key in keys if key not in cells]
    assert not missing, f"no traced calls of {missing}"
