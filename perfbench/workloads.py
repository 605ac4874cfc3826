"""The benchmark's workloads, and how each checks the program's outputs.

A workload is a sequence of operations k = 0, 1, 2, ...; the inputs of
operation k depend only on the run's seed and k, so a second pass over the
same k must reproduce the first pass's outputs exactly. Each workload
imports the parts of the package it uses when it is made, so that a fresh
interpreter that makes one and warms it up pays the workload's set-up cost.

Checks, in addition to the per-operation ones:
- ``pinned_outputs``: outputs of the default seed, which every run computes
  again and compares with pins.json, written by make_pins.py at the commit
  that added the benchmark;
- ``tallies``: rejection counts, which ``run.py`` pools over the run and
  ``band_failures`` holds against reference rates from 10,000 replicates
  per scenario.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import math
import random
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "data" / "example_trial.csv"
PINS = Path(__file__).with_name("pins.json")

WORKLOADS = ("power_high", "power_low", "analyze", "power_grid")
DEFAULT_SEED = 0
# replicates per estimate_power call: calls long enough (~0.15 s and ~0.3 s)
# that a brief stall of the shared machine moves the p95 latency little
POWER_REPS = 400
WARM_UP_REPS = 100  # the fewest estimate_power accepts
GRID_REPS = 200  # replicates per scenario per grid call: one 100-replicate block per worker
GRID_WORKERS = 2
SPEEDUP_REPS = 800  # replicates of the single-scenario speedup check: four blocks per worker
ANALYZE_TESTS = ("rmw", "max(lr,mw(0.5);k1=0.6,alpha=0.025)", "max(lr,fh(0,0.5))")
PINNED_POWER_OPS = 2
BAND_SIGMAS = 6.0


def op_seed(seed, k):
    """Master seed of operation k; operations of one run never share replicates."""
    return seed * 1_000_000 + k


@functools.cache
def load_pins():
    return json.loads(PINS.read_text())


class _Files:
    """Fresh output paths under the run's work directory."""

    def __init__(self, work):
        self.work = Path(work)
        self._n = 0

    def fresh(self, suffix):
        self._n += 1
        return self.work / f"out{self._n}{suffix}"

    @staticmethod
    def take(*paths):
        """Contents of the paths (None where missing), which are then removed."""
        texts = [p.read_text() if p.exists() else None for p in paths]
        for p in paths:
            p.unlink(missing_ok=True)
        return texts


class Power:
    """``estimate_power`` on one scenario with the six paper methods, workers=1."""

    workers = 1

    def __init__(self, name, scenario, seed, work):
        from rmwtest import harness
        from rmwtest.simulator import get_scenario

        self.name = name
        self.seed = seed
        self.harness = harness
        self.scenario = get_scenario(scenario)
        self.methods = harness.paper_methods()
        self.datasets_per_op = POWER_REPS

    def warm_up(self):
        self.harness.estimate_power(self.scenario, self.methods, WARM_UP_REPS, op_seed(self.seed, 0))

    def run(self, k, seed=None):
        s = op_seed(self.seed if seed is None else seed, k)
        start = time.perf_counter()
        oc = self.harness.estimate_power(self.scenario, self.methods, POWER_REPS, s)
        elapsed = time.perf_counter() - start
        counts = tuple(round(oc.rates[m.label] * POWER_REPS) for m in self.methods)
        return elapsed, (counts, oc.degenerate)

    def check(self, out):
        _, degenerate = out
        return f"{degenerate} degenerate replicates" if degenerate else None

    def tallies(self, out):
        counts, _ = out
        return {
            (self.scenario.name, m.label): (c, POWER_REPS)
            for m, c in zip(self.methods, counts)
        }

    def pinned_outputs(self):
        """Rejection counts of the default seed's first operations."""
        return [list(self.run(k, seed=DEFAULT_SEED)[1][0]) for k in range(PINNED_POWER_OPS)]

    def speedup_w2(self):
        return _speedup(self.harness, self.scenario, self.methods, self.seed)


class Analyze:
    """``rmwtest analyze`` on the example trial, cycling through three tests.

    The seed shuffles the CSV's data rows; the risk table, and so the result
    bytes, do not depend on row order, so every call is checked against the
    pinned bytes for its test.
    """

    workers = 1
    datasets_per_op = 1

    def __init__(self, name, seed, work):
        from rmwtest import cli

        self.name = name
        self.seed = seed
        self.cli = cli
        self.files = _Files(work)
        header, *rows = DATA.read_text().splitlines(keepends=True)
        random.Random(seed).shuffle(rows)
        self.data = self.files.work / "trial.csv"
        self.data.write_text(header + "".join(rows))

    def warm_up(self):
        self.run(0)

    def run(self, k):
        return self._call(self.data, ANALYZE_TESTS[(self.seed + k) % len(ANALYZE_TESTS)])

    def _call(self, data, test):
        out = self.files.fresh(".json")
        argv = ["analyze", "--data", str(data), "--test", test, "--out", str(out)]
        start = time.perf_counter()
        code = self.cli.main(argv)
        elapsed = time.perf_counter() - start
        text, manifest = self.files.take(out, Path(f"{out}.manifest.json"))
        return elapsed, (code, test, text, manifest is not None)

    def check(self, out):
        code, test, text, has_manifest = out
        if code != 0 or not has_manifest:
            return f"analyze --test {test!r}: exit code {code}, manifest written: {has_manifest}"
        if text != load_pins()[self.name][test]:
            return f"analyze --test {test!r}: result differs from the pinned bytes:\n{text}"
        return None

    def tallies(self, out):
        return {}

    def pinned_outputs(self):
        """Result bytes of each test on the example trial as shipped."""
        return {test: self._call(DATA, test)[1][2] for test in ANALYZE_TESTS}

    def speedup_w2(self):
        from rmwtest import harness
        from rmwtest.simulator import get_scenario

        return _speedup(harness, get_scenario("high_delayed"), harness.paper_methods(), self.seed)


class Grid:
    """``rmwtest power --scenario all --methods paper6`` with two workers,
    writing the CSV, the JSON report and the manifest."""

    workers = GRID_WORKERS

    def __init__(self, name, seed, work):
        from rmwtest import cli
        from rmwtest.simulator import BUILTIN_SCENARIOS

        self.name = name
        self.seed = seed
        self.cli = cli
        self.files = _Files(work)
        self.datasets_per_op = GRID_REPS * len(BUILTIN_SCENARIOS)

    def warm_up(self):
        self._call("high_delayed", WARM_UP_REPS, op_seed(self.seed, 0), GRID_WORKERS)

    def run(self, k, seed=None, workers=GRID_WORKERS):
        s = op_seed(self.seed if seed is None else seed, k)
        return self._call("all", GRID_REPS, s, workers)

    def _call(self, scenarios, reps, seed, workers):
        out, report = self.files.fresh(".csv"), self.files.fresh(".json")
        argv = [
            "power", "--scenario", scenarios, "--methods", "paper6", "--reps", str(reps),
            "--seed", str(seed), "--workers", str(workers), "--out", str(out), "--json", str(report),
        ]
        start = time.perf_counter()
        code = self.cli.main(argv)
        elapsed = time.perf_counter() - start
        table, nested, manifest = self.files.take(out, report, Path(f"{out}.manifest.json"))
        return elapsed, (code, table, nested, manifest is not None)

    def check(self, out):
        code, table, nested, has_manifest = out
        if code != 0 or table is None or nested is None or not has_manifest:
            return f"power grid: exit code {code}, manifest written: {has_manifest}"
        degenerate = {s["name"]: s["degenerate"] for s in json.loads(nested)["scenarios"]}
        if any(degenerate.values()):
            return f"power grid: degenerate replicates {degenerate}"
        if self.tallies(out) != _report_tallies(nested):
            return "power grid: the CSV and the JSON report disagree"
        return None

    def tallies(self, out):
        table = out[1]
        rows = csv.DictReader(io.StringIO(table))
        return {
            (r["scenario"], r["method"]): (
                round(float(r["rejection_rate"]) * int(r["replicates"])), int(r["replicates"])
            )
            for r in rows
        }

    def pinned_outputs(self):
        """Hashes of the CSV and JSON report of the default seed's first operation."""
        _, (_, table, nested, _) = self.run(0, seed=DEFAULT_SEED)
        return {
            "csv_sha256": hashlib.sha256((table or "").encode()).hexdigest(),
            "json_sha256": hashlib.sha256((nested or "").encode()).hexdigest(),
        }


def _report_tallies(nested):
    return {
        (s["name"], label): (round(r["rejection_rate"] * s["replicates"]), s["replicates"])
        for s in json.loads(nested)["scenarios"]
        for label, r in s["results"].items()
    }


def _speedup(harness, scenario, methods, seed):
    """Wall time of one estimate_power call at workers=1 over the same call at 2."""
    seconds = []
    for workers in (1, GRID_WORKERS):
        start = time.perf_counter()
        harness.estimate_power(scenario, methods, SPEEDUP_REPS, op_seed(seed, 0), workers=workers)
        seconds.append(time.perf_counter() - start)
    return seconds[0] / seconds[1]


def band_failures(tallies):
    """Pooled rejection rates further than BAND_SIGMAS standard errors from the reference.

    The reference rates come from 10,000 replicates per scenario under a seed
    no workload uses; the standard error combines both sample sizes, with
    the rate floored at 0.001 so near-zero rates keep a nonzero band.
    """
    reference = load_pins()["reference"]
    n_ref = reference["replicates"]
    failures = []
    for (scenario, label), (hits, n) in sorted(tallies.items()):
        p_ref = reference["rejections"][scenario][label] / n_ref
        p_floor = min(max(p_ref, 1e-3), 1.0 - 1e-3)
        se = math.sqrt(p_floor * (1.0 - p_floor) * (1.0 / n + 1.0 / n_ref))
        if abs(hits / n - p_ref) > BAND_SIGMAS * se:
            failures.append(
                f"{scenario}/{label}: rate {hits / n:.4f} over {n} replicates, "
                f"reference {p_ref:.4f}"
            )
    return failures


def make(name, seed, work):
    if name == "power_high":
        return Power(name, "high_delayed", seed, work)
    if name == "power_low":
        return Power(name, "low_delayed", seed, work)
    if name == "analyze":
        return Analyze(name, seed, work)
    if name == "power_grid":
        return Grid(name, seed, work)
    raise ValueError(f"unknown workload {name!r}")

