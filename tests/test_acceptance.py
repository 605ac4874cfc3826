"""Acceptance gate: every shipped claim, checked at its stated tolerance.

Each criterion owns one test (plus marked companions) and prints one
ACCEPTANCE line with the measured numbers on success; run with ``-v`` (node
results) or ``-s`` (printed lines) to see the gate. Two critical-value
anchor figures are mutually inconsistent with their stated correlation of
0.97 and are therefore strict xfails here — the companion test shows the
full anchor triple is self-consistent at correlation 0.976 and pins the
correct values at 0.97. Everything else is green.

The full Table-reproduction run (10 scenarios x 6 methods x 10,000
replicates) uses up to two worker processes and takes a minute or two; the
quick 2,000-replicate mode and all other criteria finish in seconds.
"""

import itertools
import math
import os
from types import SimpleNamespace

import numpy as np
import pytest

from rmwtest.combo import (
    ComboSpec,
    bvn_upper,
    critical_values,
    evaluate,
    one_sided_p,
    run_combo_test,
)
from rmwtest.dataset import build_risk_table, read_survival_csv, risk_arrays
from rmwtest.errors import NumericalError
from rmwtest.harness import (
    AssuranceSpec,
    _RunPlan,
    _replicate_row,
    assurance,
    estimate_power,
    paper_methods,
)
from rmwtest.cli import main
from rmwtest.simulator import (
    BUILTIN_SCENARIOS,
    PiecewiseHazard,
    Scenario,
    simulate_trial,
)
from rmwtest.weights import WeightSpec
from scipy.special import ndtr

from oracles import (
    asymptotic_power,
    bvn_upper_oracle,
    constant_weight,
    correlation_oracle,
    fleming_harrington_weight,
    modest_weight,
    random_dataset,
    weighted_logrank_oracle,
)

LR = WeightSpec.constant()
MW = WeightSpec.modest(0.5)
FH = WeightSpec.fleming_harrington(0.0, 0.5)

EQUAL_SPLIT = ComboSpec(LR, MW, k1=0.5, alpha=0.025)
SPLIT_60_40 = ComboSpec(LR, MW, k1=0.6, alpha=0.025)

# Benchmark rejection rates: 10 scenarios x 6 methods at 10,000 replicates.
BENCHMARK = {
    "high_delayed":     {"LR": 0.79, "MW": 0.88, "rMW(k1=0.5)": 0.87, "rMW(k1=0.6)": 0.85, "FH": 0.92, "MaxCombo": 0.90},
    "high_ph":          {"LR": 0.77, "MW": 0.75, "rMW(k1=0.5)": 0.76, "rMW(k1=0.6)": 0.77, "FH": 0.72, "MaxCombo": 0.75},
    "high_diminishing": {"LR": 0.75, "MW": 0.57, "rMW(k1=0.5)": 0.72, "rMW(k1=0.6)": 0.74, "FH": 0.46, "MaxCombo": 0.71},
    "high_equal":       {"LR": 0.024, "MW": 0.024, "rMW(k1=0.5)": 0.024, "rMW(k1=0.6)": 0.025, "FH": 0.025, "MaxCombo": 0.025},
    "high_early_harm":  {"LR": 0.007, "MW": 0.021, "rMW(k1=0.5)": 0.015, "rMW(k1=0.6)": 0.012, "FH": 0.056, "MaxCombo": 0.044},
    "low_delayed":      {"LR": 0.79, "MW": 0.80, "rMW(k1=0.5)": 0.80, "rMW(k1=0.6)": 0.79, "FH": 0.86, "MaxCombo": 0.84},
    "low_ph":           {"LR": 0.79, "MW": 0.79, "rMW(k1=0.5)": 0.79, "rMW(k1=0.6)": 0.79, "FH": 0.74, "MaxCombo": 0.78},
    "low_diminishing":  {"LR": 0.79, "MW": 0.73, "rMW(k1=0.5)": 0.79, "rMW(k1=0.6)": 0.79, "FH": 0.14, "MaxCombo": 0.76},
    "low_equal":        {"LR": 0.024, "MW": 0.024, "rMW(k1=0.5)": 0.024, "rMW(k1=0.6)": 0.024, "FH": 0.024, "MaxCombo": 0.025},
    "low_early_harm":   {"LR": 0.009, "MW": 0.013, "rMW(k1=0.5)": 0.01, "rMW(k1=0.6)": 0.009, "FH": 0.154, "MaxCombo": 0.127},
}
# rows measuring wrongful rejection in favor of the experimental arm
TYPE_I_SCENARIOS = {"high_equal", "high_early_harm", "low_equal", "low_early_harm"}

FULL_SEED = 0
FULL_REPS = 10_000


def _announce(text: str) -> None:
    print(f"ACCEPTANCE {text}", flush=True)


@pytest.fixture(scope="session")
def full_grid():
    """Operating characteristics of all six methods on all ten scenarios.

    Criterion 8 holds the counts equal for any worker count, so two workers
    only save time."""
    methods = paper_methods()
    workers = min(2, os.cpu_count() or 1)
    return {
        name: estimate_power(BUILTIN_SCENARIOS[name], methods, FULL_REPS, FULL_SEED, workers=workers)
        for name in BENCHMARK
    }


class TestCriterion1CriticalValueAnchors:
    def test_attainable_anchors(self):
        _, t1, _ = critical_values(SPLIT_60_40, 0.97)
        c94, _, _ = critical_values(EQUAL_SPLIT, 0.94)
        assert abs(t1 - 1.99) <= 0.005
        assert abs(c94 - 2.08) <= 0.005
        _announce(
            "criterion 1 (critical-value anchors, attainable set): PASS — "
            f"t1@0.97={t1:.4f} (1.99±0.005), c@0.94={c94:.4f} (2.08±0.005)"
        )

    @pytest.mark.xfail(
        strict=True,
        reason="anchor figure 2.04 is unattainable at correlation 0.97: the "
        "defining equation P(max > c) = 0.025 gives c = 2.0485 there (checked "
        "against an independent quadrature oracle); the anchor triple is "
        "self-consistent at correlation 0.976 instead — see the companion test",
    )
    def test_anchor_c_equal_split_at_097(self):
        c, _, _ = critical_values(EQUAL_SPLIT, 0.97)
        assert abs(c - 2.04) <= 0.005

    @pytest.mark.xfail(
        strict=True,
        reason="anchor figure 2.13 is unattainable at correlation 0.97: the "
        "defining equation gives threshold2 = 2.1384 there; the anchor triple "
        "is self-consistent at correlation 0.976 instead — see the companion test",
    )
    def test_anchor_t2_60_40_split_at_097(self):
        _, _, t2 = critical_values(SPLIT_60_40, 0.97)
        assert abs(t2 - 2.13) <= 0.005

    def test_anchor_triple_self_consistent_at_0976(self):
        """The three printed figures hold simultaneously at correlation 0.976,
        and the exact solutions at 0.97 are pinned so any drift is caught."""
        c, _, _ = critical_values(EQUAL_SPLIT, 0.976)
        _, t1, t2 = critical_values(SPLIT_60_40, 0.976)
        assert abs(c - 2.04) <= 0.005
        assert abs(t1 - 1.99) <= 0.005
        assert abs(t2 - 2.13) <= 0.005
        c97, _, _ = critical_values(EQUAL_SPLIT, 0.97)
        _, _, t2_97 = critical_values(SPLIT_60_40, 0.97)
        assert c97 == pytest.approx(2.0485, abs=5e-4)
        assert t2_97 == pytest.approx(2.1384, abs=5e-4)
        _announce(
            "criterion 1 (companion): PASS — at correlation 0.976 the anchor "
            f"triple holds (c={c:.4f}, t1={t1:.4f}, t2={t2:.4f}); exact values "
            f"at 0.97 pinned (c={c97:.4f}, t2={t2_97:.4f})"
        )


class TestCriterion2TableReproduction:
    def _check(self, grid, tol_power, tol_type1):
        worst = 0.0
        misses = []
        for name, row in BENCHMARK.items():
            tol = tol_type1 if name in TYPE_I_SCENARIOS else tol_power
            for label, want in row.items():
                got = grid[name].rates[label]
                dev = abs(got - want)
                worst = max(worst, dev / tol)
                if dev > tol:
                    misses.append(f"{name}/{label}: got {got:.4f}, want {want}±{tol}")
        assert not misses, "; ".join(misses)
        return worst

    def test_full_mode(self, full_grid):
        worst = self._check(full_grid, tol_power=0.015, tol_type1=0.006)
        _announce(
            "criterion 2 (benchmark table, 10,000 replicates): PASS — 60/60 "
            f"entries within tolerance (power ±0.015, type I ±0.006); worst "
            f"deviation {worst:.0%} of tolerance"
        )

    def test_quick_mode(self):
        methods = paper_methods()
        grid = {
            name: estimate_power(BUILTIN_SCENARIOS[name], methods, 2000, FULL_SEED)
            for name in BENCHMARK
        }
        worst = self._check(grid, tol_power=0.03, tol_type1=0.03)
        _announce(
            "criterion 2 (quick mode, 2,000 replicates): PASS — 60/60 entries "
            f"within ±0.03; worst deviation {worst:.0%} of tolerance"
        )

    def test_asymptotic_mode(self):
        """The large-sample limit of every cell, with no Monte Carlo error,
        lies within the full mode's tolerances: a kernel, weight or
        critical-value regression shows here in well under a second."""
        methods = paper_methods()
        grid = {
            name: SimpleNamespace(rates=asymptotic_power(BUILTIN_SCENARIOS[name], methods))
            for name in BENCHMARK
        }
        worst = self._check(grid, tol_power=0.015, tol_type1=0.006)
        _announce(
            "criterion 2 (asymptotic, no simulation): PASS — 60/60 entries "
            f"within tolerance (power ±0.015, type I ±0.006); worst deviation "
            f"{worst:.0%} of tolerance"
        )


class TestCriterion3AssuranceAnchors:
    def test_high_rate_uniform_prior(self, full_grid):
        prior = AssuranceSpec(
            {"high_delayed": 1 / 3, "high_ph": 1 / 3, "high_diminishing": 1 / 3}
        )
        got = {m.label: assurance(full_grid, prior, m.label) for m in paper_methods()}
        bands = {
            "rMW(k1=0.5)": (0.765, 0.805),
            "rMW(k1=0.6)": (0.765, 0.805),
            "LR": (0.755, 0.785),
            "MW": (0.715, 0.745),
            "FH": (0.685, 0.715),
        }
        for label, (lo, hi) in bands.items():
            assert lo <= got[label] <= hi, f"{label}: {got[label]:.4f} not in [{lo}, {hi}]"
        _announce(
            "criterion 3 (assurance, uniform prior on high-rate effects): PASS — "
            + ", ".join(f"{lbl}={got[lbl]:.4f}" for lbl in bands)
        )


class TestCriterion4OracleEquivalence:
    def test_statistic_and_correlation_match_oracles(self):
        rng = np.random.default_rng(123)
        mw_oracle = modest_weight(0.5)
        fh_oracle = fleming_harrington_weight(0.0, 0.5)
        worst_z = worst_rho = 0.0
        done = 0
        while done < 1000:
            time, event, arm = random_dataset(rng)
            _, var_o, z_o = weighted_logrank_oracle(time, event, arm, constant_weight)
            if var_o <= 0.0:
                continue  # statistic undefined; the library refuses these too
            table = build_risk_table(time, event, arm)
            worst_z = max(worst_z, abs(run_combo_test(ComboSpec(LR, LR, k1=1.0), table).z1 - z_o))
            for spec, oracle_fn in ((MW, mw_oracle), (FH, fh_oracle)):
                try:
                    rho = evaluate((LR, spec), [(0, 1)], risk_arrays(time, event, arm))[1][(0, 1)]
                except NumericalError:
                    continue
                rho_o = correlation_oracle(time, event, arm, constant_weight, oracle_fn)
                worst_rho = max(worst_rho, abs(rho - rho_o))
            done += 1
        assert worst_z <= 1e-12
        assert worst_rho <= 1e-12
        _announce(
            "criterion 4 (oracle equivalence, 1,000 random datasets): PASS — "
            f"max |z - oracle| = {worst_z:.2e}, max |corr - oracle| = {worst_rho:.2e}"
        )


class TestCriterion5NumericalKernel:
    AB = (-2.0, -0.5, 0.0, 1.0, 2.5)

    def test_kernel_against_quadrature_and_closed_forms(self):
        worst_quad = 0.0
        for a, b, rho in itertools.product(self.AB, self.AB, (-0.99, 0.0, 0.5, 0.94, 0.99)):
            worst_quad = max(worst_quad, abs(bvn_upper(a, b, rho) - bvn_upper_oracle(a, b, rho)))
        assert worst_quad <= 1e-8

        worst_closed = 0.0
        for a, b in itertools.product(self.AB, self.AB):
            independent = ndtr(-a) * ndtr(-b)
            comonotone = ndtr(-max(a, b))
            worst_closed = max(
                worst_closed,
                abs(bvn_upper(a, b, 0.0) - independent),
                abs(bvn_upper(a, b, 1.0) - comonotone),
            )
        assert worst_closed <= 1e-10
        _announce(
            "criterion 5 (bivariate-normal kernel): PASS — 125-point quadrature "
            f"grid max err {worst_quad:.2e} (tol 1e-8); closed forms at "
            f"correlation 0/1 max err {worst_closed:.2e} (tol 1e-10)"
        )


class TestCriterion6PermutationCalibration:
    def test_rmw_size_under_label_permutation(self):
        h = PiecewiseHazard(knots=(), rates=(0.0462,))
        scenario = Scenario("perm_equal", 500, 24.0, 12.0, h, h)
        time, event, arm = simulate_trial(scenario, seed=2026)
        plan = _RunPlan([paper_methods()[2]])  # rMW(k1=0.5)
        rng = np.random.default_rng(7)
        n_perm = 5000
        hits = sum(
            bool(_replicate_row(plan, time, event, rng.permutation(arm))[0])
            for _ in range(n_perm)
        )
        frac = hits / n_perm
        bound = 0.025 + 3 * math.sqrt(0.025 * 0.975 / n_perm)
        assert frac <= bound
        _announce(
            "criterion 6 (permutation-null calibration): PASS — rejection "
            f"fraction {frac:.4f} <= {bound:.4f} over {n_perm} label permutations "
            f"(N=500, {int(event.sum())} events)"
        )


POPLAR_PATH = os.environ.get(
    "RMWTEST_POPLAR_CSV",
    os.path.join(os.path.dirname(__file__), "..", "data", "poplar.csv"),
)


class TestCriterion7BenchmarkTrialPvalues:
    @pytest.mark.skipif(
        not os.path.exists(POPLAR_PATH),
        reason="conditional criterion: supply the trial dataset as data/poplar.csv "
        "or via RMWTEST_POPLAR_CSV (see data/README.md for the format)",
    )
    def test_poplar_pvalues(self):
        table = build_risk_table(*read_survival_csv(POPLAR_PATH))
        expected = {
            "LR": 0.0028, "MW": 0.0009, "FH": 0.0006,
            "rMW(k1=0.5)": 0.0012, "rMW(k1=0.6)": 0.0015, "MaxCombo": 0.0009,
        }
        got = {}
        for m in paper_methods():
            if m.combo.k2 == 0.0:
                got[m.label] = one_sided_p(run_combo_test(m.combo, table).z1)
            else:
                got[m.label] = run_combo_test(m.combo, table).p_value
        for label, want in expected.items():
            assert got[label] == pytest.approx(want, abs=3e-4), label
        _announce(
            "criterion 7 (benchmark trial p-values): PASS — "
            + ", ".join(f"{lbl}={got[lbl]:.4f}" for lbl in expected)
        )


class TestCriterion8Determinism:
    def test_worker_count_never_changes_csv_bytes(self, tmp_path):
        outs = []
        for workers in ("1", "3"):
            out = tmp_path / f"power-w{workers}.csv"
            code = main([
                "power", "--scenario", "high_equal", "--methods", "paper6",
                "--reps", "300", "--seed", "17", "--workers", workers,
                "--out", str(out),
            ])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        _announce(
            "criterion 8 (determinism): PASS — power CSVs byte-identical for "
            f"worker counts 1 and 3 ({len(outs[0])} bytes)"
        )
