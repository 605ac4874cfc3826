"""The benchmark's pinned outputs hold at the current code.

``perfbench/run.py`` refuses a run whose outputs differ from
``perfbench/pins.json`` (rejection counts, analyze bytes, power grid
hashes); these tests find such a change in seconds instead of a benchmark
run of minutes.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_workloads():
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_pinned_outputs(name, tmp_path):
    got = workloads.make(name, workloads.DEFAULT_SEED, tmp_path).pinned_outputs()
    assert got == workloads.load_pins()[name]
