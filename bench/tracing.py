"""Layer spans and eigensolve counters around semiortho's public functions.

``Tracer.install`` replaces each traced function in every ``semiortho``
module that holds it, so calls from one module into another are seen too,
and wraps ``numpy.linalg.{eigh,eigvalsh,svd,qr}`` to count calls. Nothing in
the library changes; ``uninstall`` puts the originals back.

Per call it records the layer's self time (its duration minus the time spent
in traced calls it made), the eigensolves (``eigh`` plus ``eigvalsh`` calls)
made inside it, children included, and for ``op_orth_direct`` the peak of
memory allocated during the call as ``tracemalloc`` sees it (when tracing
memory is on). Calls are grouped by layer, field and ambient dimension n.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc

import numpy as np

LAYERS = {
    "core.psd_decompose": ("semiortho.core", "psd_decompose"),
    "operators.bind_operator": ("semiortho.operators", "bind_operator"),
    "operators.norm_attainment_set": ("semiortho.operators", "norm_attainment_set"),
    "operators.is_a_isometry": ("semiortho.operators", "is_a_isometry"),
    "orthogonality.op_orth_direct": ("semiortho.orthogonality", "op_orth_direct"),
    "orthogonality.op_orth_attainment_real": ("semiortho.orthogonality", "op_orth_attainment_real"),
    "orthogonality.attainment_subset": ("semiortho.orthogonality", "attainment_subset"),
    "orthogonality.op_orth_pointwise": ("semiortho.orthogonality", "op_orth_pointwise"),
    "orthogonality.op_orth_theta_sweep_complex": ("semiortho.orthogonality", "op_orth_theta_sweep_complex"),
    "symmetry.classify_right": ("semiortho.symmetry", "classify_right"),
    "symmetry.classify_left": ("semiortho.symmetry", "classify_left"),
    "symmetry.right_witness": ("semiortho.symmetry", "right_witness"),
    "symmetry.left_witness": ("semiortho.symmetry", "left_witness"),
    "vectors.is_eps_orthogonal": ("semiortho.vectors", "is_eps_orthogonal"),
    "vectors.is_chmielinski_orthogonal_vec": ("semiortho.vectors", "is_chmielinski_orthogonal_vec"),
    "cli.load_instance": ("semiortho.cli", "load_instance"),
    "cli.canonical_json": ("semiortho.cli", "canonical_json"),
    "cli.main": ("semiortho.cli", "main"),
}
# the direct route is timed per field: the real and complex searches differ
FIELD_SPLIT = {"orthogonality.op_orth_direct"}
PEAK_LAYERS = {"orthogonality.op_orth_direct"}
LINALG = ("eigh", "eigvalsh", "svd", "qr")
EIGSOLVERS = {"eigh", "eigvalsh"}


def empty_stats() -> dict:
    """Accumulated trace data; plain JSON so child processes can ship it.

    ``cells`` maps "layer|field|n" to [calls, self-time ns per call,
    eigensolves, peak bytes]; ``linalg`` counts numpy.linalg calls;
    ``import_ns`` holds ``import semiortho.cli`` times of CLI children.
    """
    return {"cells": {}, "linalg": {name: 0 for name in LINALG}, "import_ns": []}


def merge(dst: dict, src: dict) -> dict:
    for key, (calls, self_ns, eig, peak) in src["cells"].items():
        cell = dst["cells"].setdefault(key, [0, [], 0, 0])
        cell[0] += calls
        cell[1].extend(self_ns)
        cell[2] += eig
        cell[3] = max(cell[3], peak)
    for name, count in src["linalg"].items():
        dst["linalg"][name] = dst["linalg"].get(name, 0) + count
    dst["import_ns"].extend(src["import_ns"])
    return dst


def _size(args: tuple) -> int:
    if not args:
        return 0
    first = args[0]
    if hasattr(first, "dim"):
        return int(first.dim)
    shape = getattr(first, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 0


def _field(args: tuple) -> str:
    if getattr(args[0], "is_complex", False) or any(np.iscomplexobj(x) for x in args[1:3]):
        return "complex"
    return "real"


class Tracer:
    def __init__(self) -> None:
        self.stats = empty_stats()
        self._stack: list[list[int]] = []  # [start ns, child ns, eigensolves]
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> dict:
        """Return the data gathered so far and start afresh."""
        stats, self.stats = self.stats, empty_stats()
        return stats

    def _span(self, layer: str, fn):
        split = layer in FIELD_SPLIT
        peak = layer in PEAK_LAYERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = f"{layer}|{_field(args) if split else ''}|{_size(args)}"
            measure = peak and tracemalloc.is_tracing()
            if measure:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            frame = [time.perf_counter_ns(), 0, 0]
            self._stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter_ns() - frame[0]
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += duration
                cell = self.stats["cells"].setdefault(key, [0, [], 0, 0])
                cell[0] += 1
                cell[1].append(duration - frame[1])
                cell[2] += frame[2]
                if measure:
                    cell[3] = max(cell[3], tracemalloc.get_traced_memory()[1] - base)

        return traced

    def _counted(self, name: str, fn):
        eig = name in EIGSOLVERS

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.stats["linalg"][name] += 1
            if eig:
                for frame in self._stack:
                    frame[2] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, modules, original, replacement) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patched.append((module, attr, original))

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "semiortho" or name.startswith("semiortho."))]
        for layer, (module_name, attr) in LAYERS.items():
            if module_name in sys.modules:
                original = getattr(sys.modules[module_name], attr)
                self._patch(modules, original, self._span(layer, original))
        linalg_modules = [np.linalg] + ([np.linalg._linalg] if hasattr(np.linalg, "_linalg") else [])
        for name in LINALG:
            original = getattr(np.linalg, name)
            self._patch(linalg_modules, original, self._counted(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
