"""Tests for the Monte Carlo power harness and assurance aggregation."""

import json
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmwtest.combo import ComboSpec, combo_pvalue, run_combo_test
from rmwtest.dataset import build_risk_table
from rmwtest.errors import DataError
import rmwtest.harness as harness_module
from rmwtest.harness import (
    AssuranceSpec,
    MethodSpec,
    OperatingCharacteristics,
    _RunPlan,
    _decision_block,
    _replicate_row,
    assurance,
    estimate_power,
    paper_methods,
    read_power_csv,
    write_power_csv,
    write_power_json,
)
from rmwtest.simulator import (
    BUILTIN_SCENARIOS,
    PiecewiseHazard,
    Scenario,
    scenario_hash,
    simulate_trial,
)
from rmwtest.weights import WeightSpec

LR = WeightSpec.constant()
MW = WeightSpec.modest(0.5)

# Small, event-rich trial so each replicate is cheap.
MINI = Scenario(
    "mini", 100, 24.0, 6.0,
    PiecewiseHazard(knots=(), rates=(0.0462,)),
    PiecewiseHazard(knots=(6.0,), rates=(0.0462, 0.0289)),
)


class TestPaperMethods:
    def test_six_labels(self):
        labels = [m.label for m in paper_methods()]
        assert labels == ["LR", "MW", "rMW(k1=0.5)", "rMW(k1=0.6)", "FH", "MaxCombo"]

    def test_structure(self):
        by_label = {m.label: m.combo for m in paper_methods()}
        for label in ("LR", "MW", "FH"):
            assert by_label[label].k2 == 0.0
            assert by_label[label].w1 == by_label[label].w2
        assert by_label["rMW(k1=0.5)"].k1 == 0.5
        assert by_label["rMW(k1=0.6)"].k1 == 0.6
        assert by_label["rMW(k1=0.6)"].k2 == pytest.approx(0.4)
        assert all(c.alpha == 0.025 for c in by_label.values())

    def test_empty_label_rejected(self):
        with pytest.raises(ValueError):
            MethodSpec("", ComboSpec(LR, MW))


class TestEstimatePower:
    def test_needs_enough_replicates(self):
        with pytest.raises(ValueError):
            estimate_power(MINI, paper_methods(), replicates=99, seed=0)

    def test_workers_positive(self):
        with pytest.raises(ValueError):
            estimate_power(MINI, paper_methods(), replicates=100, seed=0, workers=0)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected_before_any_block(self, monkeypatch, seed):
        def no_blocks(*args):
            raise AssertionError("a block ran")

        monkeypatch.setattr(harness_module, "_decision_block", no_blocks)
        with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
            estimate_power(MINI, paper_methods(), replicates=100, seed=seed)

    def test_duplicate_labels_rejected(self):
        methods = [
            MethodSpec("same", ComboSpec(LR, LR, k1=1.0)),
            MethodSpec("same", ComboSpec(MW, MW, k1=1.0)),
        ]
        with pytest.raises(ValueError, match="unique"):
            estimate_power(MINI, methods, replicates=100, seed=0)

    def test_result_fields(self):
        oc = estimate_power(MINI, paper_methods(), replicates=150, seed=11)
        assert oc.scenario == "mini"
        assert oc.replicates == 150 and oc.seed == 11
        assert set(oc.rates) == {m.label for m in paper_methods()}
        for label, rate in oc.rates.items():
            assert 0.0 <= rate <= 1.0
            assert oc.standard_error(label) == pytest.approx(
                math.sqrt(rate * (1 - rate) / 150)
            )

    def test_full_alpha_on_first_component_reduces_to_single_test(self):
        """A combo that puts all its alpha on component 1 must make exactly
        the per-replicate decisions of that component alone."""
        methods = [
            MethodSpec("LR", ComboSpec(LR, LR, k1=1.0)),
            MethodSpec("combo-as-lr", ComboSpec(LR, MW, k1=1.0)),
        ]
        rows, degenerate = _decision_block(MINI, _RunPlan(methods), seed=5, start=0, stop=150)
        assert not degenerate
        assert np.array_equal(rows[:, 0], rows[:, 1])

    @pytest.mark.parametrize("scenario", ["high_equal", "high_delayed"])
    def test_replicate_row_matches_run_combo_test(self, scenario):
        """The harness and analyze reach the same decision on every method."""
        methods = paper_methods()
        plan = _RunPlan(methods)
        for rep in range(40):
            time, event, arm = simulate_trial(BUILTIN_SCENARIOS[scenario], 4, rep)
            table = build_risk_table(time, event, arm)
            want = [run_combo_test(m.combo, table).reject for m in methods]
            assert _replicate_row(plan, time, event, arm).tolist() == want

    @settings(max_examples=20, deadline=None)
    @given(scenario=st.sampled_from(["high_equal", "high_delayed"]), rep=st.integers(0, 10**6))
    def test_replicate_row_agrees_with_p_values(self, scenario, rep):
        """Each harness decision is combo_pvalue(...) <= alpha: exactly when p
        is at most alpha, and up to the p-value's bisection tolerance when it
        rejects (as in test_combo's test_p_and_reject_agree)."""
        methods = paper_methods()
        time, event, arm = simulate_trial(BUILTIN_SCENARIOS[scenario], 8, rep)
        row = _replicate_row(_RunPlan(methods), time, event, arm)
        table = build_risk_table(time, event, arm)
        for method, reject in zip(methods, row):
            res = run_combo_test(method.combo, table)
            p = combo_pvalue(method.combo, res.z1, res.z2, res.correlation)
            if p <= method.combo.alpha:
                assert reject
            if reject:
                assert p <= method.combo.alpha + 1e-10

    def test_replicate_decisions_independent_of_blocking(self):
        plan = _RunPlan(paper_methods()[:3])
        whole, _ = _decision_block(MINI, plan, seed=9, start=0, stop=120)
        first, _ = _decision_block(MINI, plan, seed=9, start=0, stop=70)
        rest, _ = _decision_block(MINI, plan, seed=9, start=70, stop=120)
        assert np.array_equal(whole, np.vstack([first, rest]))

    def test_one_run_plan_per_call(self, monkeypatch):
        """Every block of an estimate_power call shares the plan it builds."""
        built = []

        class CountingPlan(_RunPlan):
            def __init__(self, methods):
                built.append(methods)
                super().__init__(methods)

        monkeypatch.setattr(harness_module, "_RunPlan", CountingPlan)
        estimate_power(MINI, paper_methods(), replicates=300, seed=3)  # three blocks
        assert len(built) == 1

    def test_worker_count_does_not_change_rates(self):
        serial = estimate_power(MINI, paper_methods(), replicates=200, seed=3)
        pooled = estimate_power(MINI, paper_methods(), replicates=200, seed=3, workers=2)
        assert serial.rates == pooled.rates
        assert serial.degenerate == pooled.degenerate

    @pytest.mark.parametrize("replicates, workers, pool", [
        (100, 5000, None), (199, 2, None), (200, 5000, 2), (350, 2, 2), (500, 3, 3),
    ])
    def test_starts_no_more_workers_than_blocks(self, monkeypatch, replicates, workers, pool):
        """A pool starts all its workers at once: it gets one per block at most,
        and one block runs without a pool."""
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                assert pool is not None, "one block started a pool"
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        methods = paper_methods()[:1]
        serial = estimate_power(MINI, methods, replicates, seed=3)
        monkeypatch.setattr(harness_module, "ProcessPoolExecutor", RecordingPool)
        capped = estimate_power(MINI, methods, replicates, seed=3, workers=workers)
        assert sizes == ([] if pool is None else [pool])
        assert capped == serial

    @pytest.mark.parametrize("replicates", [100, 300])
    def test_runs_its_blocks_on_the_callers_pool(self, monkeypatch, replicates):
        """A given pool runs every block, even a lone one; the call builds no
        pool of its own and leaves the caller's open."""
        tasks = []

        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("estimate_power built a pool of its own")

        class CallersPool:
            def map(self, fn, *iterables):
                items = list(zip(*iterables))
                tasks.extend(items)
                return map(fn, *zip(*items))

        methods = paper_methods()[:1]
        serial = estimate_power(MINI, methods, replicates, seed=3)
        monkeypatch.setattr(harness_module, "ProcessPoolExecutor", NoPool)
        pooled = estimate_power(MINI, methods, replicates, seed=3, workers=2, pool=CallersPool())
        assert [(a, b) for _, _, _, a, b in tasks] == (
            [(0, 100)] if replicates == 100 else [(0, 100), (100, 200), (200, 300)]
        )
        assert pooled == serial

    def test_degenerate_replicates_count_as_non_rejection(self, caplog):
        h = PiecewiseHazard(knots=(), rates=(1e-12,))
        idle = Scenario("idle", 20, 24.0, 6.0, h, h)
        with caplog.at_level(logging.WARNING, logger="rmwtest.harness"):
            oc = estimate_power(idle, paper_methods(), replicates=100, seed=0)
        assert oc.degenerate == 100
        assert all(rate == 0.0 for rate in oc.rates.values())
        assert any("non-rejection" in r.message for r in caplog.records)

    def test_one_warning_per_reason(self, caplog):
        h = PiecewiseHazard(knots=(), rates=(1e-12,))
        idle = Scenario("idle", 20, 24.0, 6.0, h, h)
        with caplog.at_level(logging.WARNING, logger="rmwtest.harness"):
            estimate_power(idle, paper_methods(), replicates=300, seed=0, workers=2)
        assert [r.getMessage() for r in caplog.records] == [
            "300 of 300 replicates of scenario idle degenerate (no events), the first is "
            "replicate 0; counted as non-rejections"
        ]

    def test_intermediate_split_lands_between_components(self):
        """With common random numbers the 0.6/0.4 split should track between
        the all-alpha-on-LR and equal-split runs up to Monte Carlo noise."""
        oc = estimate_power(MINI, paper_methods(), replicates=400, seed=21)
        lo = min(oc.rates["LR"], oc.rates["rMW(k1=0.5)"])
        hi = max(oc.rates["LR"], oc.rates["rMW(k1=0.5)"])
        slack = 2 * oc.standard_error("rMW(k1=0.6)")
        assert lo - slack <= oc.rates["rMW(k1=0.6)"] <= hi + slack


class TestAssurance:
    def test_prior_validation(self):
        with pytest.raises(ValueError):
            AssuranceSpec({})
        with pytest.raises(ValueError, match="sum to 1"):
            AssuranceSpec({"a": 0.5, "b": 0.6})
        with pytest.raises(ValueError):
            AssuranceSpec({"a": -0.5, "b": 1.5})

    def test_weighted_average(self):
        ocs = {
            "a": OperatingCharacteristics("a", 1000, 0, {"LR": 0.8}),
            "b": OperatingCharacteristics("b", 1000, 0, {"LR": 0.2}),
        }
        spec = AssuranceSpec({"a": 0.75, "b": 0.25})
        assert assurance(ocs, spec, "LR") == pytest.approx(0.65)

    def test_point_mass_recovers_rate(self):
        ocs = {"a": OperatingCharacteristics("a", 1000, 0, {"LR": 0.8123})}
        assert assurance(ocs, AssuranceSpec({"a": 1.0}), "LR") == 0.8123

    def test_missing_scenario_or_method(self):
        ocs = {"a": OperatingCharacteristics("a", 1000, 0, {"LR": 0.8})}
        with pytest.raises(ValueError, match="missing scenario"):
            assurance(ocs, AssuranceSpec({"zzz": 1.0}), "LR")
        with pytest.raises(ValueError, match="missing from"):
            assurance(ocs, AssuranceSpec({"a": 1.0}), "MW")


class TestPowerIo:
    def _sample_ocs(self):
        return [
            OperatingCharacteristics(
                "high_delayed", 10000, 0, {"LR": 0.7903, "MW": 0.8812}
            ),
            OperatingCharacteristics("high_equal", 10000, 0, {"LR": 1 / 3, "MW": 0.025}),
        ]

    def test_csv_round_trip_is_exact(self, tmp_path):
        path = tmp_path / "power.csv"
        ocs = self._sample_ocs()
        write_power_csv(path, ocs)
        back = read_power_csv(path)
        assert set(back) == {"high_delayed", "high_equal"}
        for oc in ocs:
            got = back[oc.scenario]
            assert got.rates == dict(oc.rates)  # repr round-trips floats exactly
            assert got.replicates == oc.replicates and got.seed == oc.seed

    def test_read_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("scenario,method,oops\n")
        with pytest.raises(DataError, match=":1:"):
            read_power_csv(path)

    def test_read_rejects_malformed_rate(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_power_csv(path, self._sample_ocs())
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace("0.7903", "not-a-number")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=":2: malformed"):
            read_power_csv(path)

    def test_read_rejects_rate_outside_unit_interval(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "scenario,method,rejection_rate,mc_standard_error,replicates,seed\n"
            "s,LR,1.5,0.0,1000,0\n"
        )
        with pytest.raises(DataError, match="outside"):
            read_power_csv(path)

    def test_read_rejects_duplicate_method(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "scenario,method,rejection_rate,mc_standard_error,replicates,seed\n"
            "s,LR,0.5,0.0,1000,0\n"
            "s,LR,0.6,0.0,1000,0\n"
        )
        with pytest.raises(DataError, match=":3: duplicate"):
            read_power_csv(path)

    def test_read_rejects_header_only_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_power_csv(path, [])
        with pytest.raises(DataError, match="no rows"):
            read_power_csv(path)

    @pytest.mark.parametrize("reps", [0, -1])
    def test_read_rejects_nonpositive_replicates(self, tmp_path, reps):
        path = tmp_path / "bad.csv"
        path.write_text(
            "scenario,method,rejection_rate,mc_standard_error,replicates,seed\n"
            f"s,LR,0.5,0.0,1000,0\ns,MW,0.5,0.0,{reps},0\n"
        )
        with pytest.raises(DataError, match=f":3: replicates must be >= 1, got {reps}"):
            read_power_csv(path)

    def test_read_rejects_scenarios_with_different_methods(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_power_csv(path, [
            OperatingCharacteristics("s", 1000, 0, {"LR": 0.5, "MW": 0.5}),
            OperatingCharacteristics("t", 1000, 0, {"LR": 0.5}),
            OperatingCharacteristics("u", 1000, 0, {"LR": 0.5, "MW": 0.5, "FH": 0.5}),
        ])
        with pytest.raises(DataError, match="scenario 's' has no row for method 'FH'"):
            read_power_csv(path)
        write_power_csv(path, self._sample_ocs()[:1] + [
            OperatingCharacteristics("high_equal", 1000, 0, {"LR": 0.5}),
        ])
        with pytest.raises(DataError, match="scenario 'high_equal' has no row for method 'MW'"):
            read_power_csv(path)

    @pytest.mark.parametrize("reps,seed", [(200, 0), (1000, 7), (200, 7)])
    def test_read_rejects_conflicting_replicates_or_seed(self, tmp_path, reps, seed):
        path = tmp_path / "bad.csv"
        header = "scenario,method,rejection_rate,mc_standard_error,replicates,seed\n"
        # another scenario may have its own replicates and seed
        path.write_text(header + "s,LR,0.5,0.0,1000,0\nt,LR,0.5,0.0,200,7\n")
        other = read_power_csv(path)["t"]
        assert (other.replicates, other.seed) == (200, 7)
        path.write_text(header + f"s,LR,0.5,0.0,1000,0\ns,MW,0.6,0.0,{reps},{seed}\n")
        with pytest.raises(DataError, match=":3: replicates"):
            read_power_csv(path)

    def test_read_rejects_short_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "scenario,method,rejection_rate,mc_standard_error,replicates,seed\n"
            "s,LR,0.5\n"
        )
        with pytest.raises(DataError, match=":2: expected 6 fields"):
            read_power_csv(path)

    def test_json_layout(self, tmp_path):
        path = tmp_path / "power.json"
        methods = paper_methods()[:2]
        hashes = {"high_delayed": scenario_hash(MINI), "high_equal": "00" * 32}
        write_power_json(path, self._sample_ocs(), methods, hashes)
        payload = json.loads(path.read_text())
        assert [m["label"] for m in payload["methods"]] == ["LR", "MW"]
        assert payload["methods"][0]["w1"] == "constant"
        block = payload["scenarios"][0]
        assert block["name"] == "high_delayed"
        assert block["hash"] == hashes["high_delayed"]
        assert block["results"]["MW"]["rejection_rate"] == 0.8812
        assert block["results"]["MW"]["mc_standard_error"] == pytest.approx(
            math.sqrt(0.8812 * (1 - 0.8812) / 10000)
        )
