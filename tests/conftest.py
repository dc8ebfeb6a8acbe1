from __future__ import annotations

import json

import numpy as np
import pytest

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
