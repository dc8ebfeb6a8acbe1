from __future__ import annotations

import json

import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture
def eigh_calls(monkeypatch) -> list:
    """Count np.linalg.eigh calls: the list grows by one per call."""
    calls = []
    eigh = np.linalg.eigh

    def counting(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


def write_instance(path, **fields) -> str:
    """Write an instance JSON file and return its path as str."""
    payload = {"schema": 1}
    payload.update(fields)
    path.write_text(json.dumps(payload))
    return str(path)
