"""The self-test registry: suite names, order, caps and pinned draws."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from semiortho.selftest import SUITES, run_trials

# name -> (cap, first 16 hex digits of the SHA-256 of the suite's final
# generator state after 7 trials on default_rng([42, index])). Seven trials
# reach every i % 3 branch and every EPS_POOL index. A new suite is appended
# here and in SUITES; a changed digest means `selftest --seed` no longer
# replays the instances it drew before.
PINNED = {
    "core_spectral": (None, "5ebb1325bdff19cb"),
    "vec_symmetry": (None, "74e75980ab55e4c1"),
    "vec_homogeneity": (None, "cfa9b6afcb8c2d62"),
    "vec_route_equivalence": (None, "258c970e97f01ef9"),
    "vec_characterization": (None, "b39f6a7d69503148"),
    "vec_cone_dichotomy": (60, "d4e6ae8605971a8d"),
    "vec_degeneracy": (None, "9d4786132d1f6919"),
    "vec_directional_derivative": (None, "be4396c642cfa4d0"),
    "op_tilde_reduction": (None, "a95e708b8f39b54d"),
    "op_attainment_certificate": (60, "1b2a44f90ef2040e"),
    "op_route_equivalence_real": (150, "9ee66b97c3864a67"),
    "op_route_equivalence_complex": (80, "582b81c8ceac7fe9"),
    "op_homogeneity": (None, "1d445832aa9d06cb"),
    "op_eps_monotonicity": (None, "be7871e6047a58f7"),
    "op_zero_degeneracy": (None, "ea223fcf6d1acd8f"),
    "op_subset_reverse": (100, "21d78347820e7b6b"),
    "sym_right_witness": (60, "a9229828c5284553"),
    "sym_right_isometry": (40, "654f6a8feaf8b32c"),
    "sym_left_witness": (100, "f7a6eb28b7c08cf8"),
    "left_parameter_grid": (1, "faac8da3c4b096b7"),
    "op_route_equivalence_complex_multiplicity": (80, "9a45fb452d1bda67"),
    "sym_right_witness_complex": (60, "ff354f5382107467"),
    "sym_right_isometry_complex": (40, "49027278e1e0446d"),
    "sym_left_witness_complex": (100, "be313edcadc67052"),
}


def test_registry_names_order_and_caps():
    assert list(SUITES) == list(PINNED)
    assert {name: cap for name, (_, cap) in SUITES.items()} == {name: cap for name, (cap, _) in PINNED.items()}


@pytest.mark.parametrize("index,name", list(enumerate(PINNED)))
def test_suite_draws_are_pinned(index, name):
    fn, _ = SUITES[name]
    rng = np.random.default_rng([42, index])
    assert run_trials(fn, rng, 7) == []
    state = json.dumps(rng.bit_generator.state, sort_keys=True).encode()
    assert hashlib.sha256(state).hexdigest()[:16] == PINNED[name][1]


def test_run_trials_tags_each_record_with_its_trial():
    def trial(rng, i):
        rng.random()
        return {"detail": "odd", "value": float(i)} if i % 2 else None

    rng = np.random.default_rng(0)
    assert run_trials(trial, rng, 5) == [
        {"trial": 1, "detail": "odd", "value": 1.0},
        {"trial": 3, "detail": "odd", "value": 3.0},
    ]
    # every trial ran, on the one generator, in order
    replay = np.random.default_rng(0)
    replay.random(5)
    assert rng.random() == replay.random()
