"""The benchmark's traced run wraps package functions by module and name.

A refactor that renames or stops calling one of them makes
``perfbench/run.py --trace 1`` fail; these tests catch that in about a
second instead of a benchmark run of minutes.
"""

import importlib.util
from pathlib import Path

import pytest

from rmwtest import cli

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))  # layers.py imports tracer.py
    spec = importlib.util.spec_from_file_location("perfbench_layers", ROOT / "perfbench" / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_resolves(layers):
    missing = [
        f"{module.__name__}.{attr}"
        for targets in layers.spans().values()
        for module, attr in targets
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []


def test_every_traced_span_records_calls(layers, tmp_path):
    # calls go through the module attribute, as the benchmark's own calls do
    with layers.layer_tracer() as tracer:
        assert cli.main([
            "analyze", "--data", str(ROOT / "data" / "example_trial.csv"),
            "--out", str(tmp_path / "result.json"),
        ]) == 0
        assert cli.main([
            "power", "--scenario", "high_delayed", "--methods", "paper6",
            "--reps", "100", "--out", str(tmp_path / "power.csv"),
        ]) == 0
    assert layers.missing_spans([tracer]) == []
