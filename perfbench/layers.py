"""Which package functions make up each layer, and the per-layer metrics.

Layers are the package's modules. Times marked ``_us`` are per dataset the
layer's path processed: per simulated replicate on the harness path, per
analyzed dataset on the analyze path. Times marked ``_ms`` are per
``analyze`` call (dataset, combo) or per CLI call (cli).
"""

from __future__ import annotations

from tracer import Tracer

# (metric, unit, better) in the order BENCHMARK.json lists them
PER_LAYER = (
    ("simulator.trial_us", "us", "lower"),
    ("dataset.risk_table_us", "us", "lower"),
    ("dataset.event_times", "count", "lower"),
    ("dataset.read_csv_ms", "ms", "lower"),
    ("dataset.build_table_ms", "ms", "lower"),
    ("weights.eval_us", "us", "lower"),
    ("wlrt.statistic_us", "us", "lower"),
    ("combo.decide_us", "us", "lower"),
    ("combo.kernel_us", "us", "lower"),
    ("combo.kernel_calls_per_rep", "count", "lower"),
    ("combo.critical_values_ms", "ms", "lower"),
    ("combo.pvalue_ms", "ms", "lower"),
    ("combo.kernel_calls_per_call", "count", "lower"),
    ("harness.self_us", "us", "lower"),
    ("harness.scenario_s", "s", "lower"),
    ("harness.speedup_w2", "ratio", "higher"),
    ("harness.degenerate", "count", "lower"),
    ("cli.self_ms", "ms", "lower"),
    ("cli.write_ms", "ms", "lower"),
    ("cli.replace_existing_ms", "ms", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
)

ESTIMATE = "harness.estimate_power"


def spans():
    """Span name -> the (module, attribute) pairs its callers look up."""
    from rmwtest import cli, combo, dataset, harness

    return {
        "cli.main": [(cli, "main")],
        "cli.write": [(cli, "_write_atomic"), (cli, "_write_file_atomic")],
        "dataset.read_csv": [(cli, "read_survival_csv")],
        # row table plus its conversion back to columns inside run_combo_test
        "dataset.build_table": [(cli, "build_risk_table"), (combo, "rows_to_arrays")],
        "dataset.risk_table": [(harness, "risk_arrays"), (dataset, "risk_arrays")],
        "simulator.trial": [(harness, "_trial_arrays")],
        "weights.eval": [(harness, "weights_from_km_left"), (combo, "weights_from_km_left")],
        "wlrt.statistic": [
            (harness, "moment_arrays"), (harness, "statistic_from_arrays"),
            (combo, "moment_arrays"), (combo, "statistic_from_arrays"),
        ],
        "combo.test": [(cli, "run_combo_test")],
        "combo.decide": [(harness, "combo_reject")],
        "combo.critical_values": [(combo, "critical_values")],
        "combo.pvalue": [(combo, "combo_pvalue")],
        "combo.kernel": [(combo, "bvn_upper")],
        ESTIMATE: [(harness, "estimate_power"), (cli, "estimate_power")],
    }


def layer_tracer():
    """Tracer over every layer; counts risk-table rows and degenerate replicates."""
    return Tracer(
        spans(),
        measures={"dataset.risk_table": len, ESTIMATE: lambda oc: oc.degenerate},
    )


def scenario_tracer():
    """Tracer over estimate_power calls only, cheap enough for a pool run."""
    from rmwtest import cli

    return Tracer({ESTIMATE: [(cli, "estimate_power")]})


def missing_spans(tracers):
    """Span names no pass of the traced run called, e.g. after a rename."""
    called = {name for tr in tracers for name in tr.names()}
    return sorted(set(spans()) - called)


def _reps(tr):
    return tr.calls("simulator.trial")


def _tests(tr):
    return tr.calls("combo.test")


def layer_metrics(tracers, speedup_w2, replace_existing_ms, overhead_frac, scenario=None):
    """Per-layer metric values from the traced passes, the workload's own first.

    Each metric comes from the first pass that called its path; call
    ``missing_spans`` first so that every path has one. ``scenario`` times
    estimate_power calls when the harness pass is not the one to time them.
    """

    def pick(count):
        return next((tr, count(tr)) for tr in tracers if count(tr))

    own = tracers[0]
    datasets = _reps(own) + _tests(own)
    harness, reps = pick(_reps)
    analyze, tests = pick(_tests)
    cli, cli_calls = pick(lambda tr: tr.calls("cli.main"))
    scenario = scenario or harness
    kernel_per_call = analyze.calls("combo.kernel", "combo.critical_values") + analyze.calls(
        "combo.kernel", "combo.pvalue"
    )
    return {
        "simulator.trial_us": harness.total("simulator.trial") / reps * 1e6,
        "dataset.risk_table_us": own.total("dataset.risk_table") / datasets * 1e6,
        "dataset.event_times": own.counts["dataset.risk_table"] / own.calls("dataset.risk_table"),
        "dataset.read_csv_ms": analyze.total("dataset.read_csv") / tests * 1e3,
        "dataset.build_table_ms": analyze.total("dataset.build_table") / tests * 1e3,
        "weights.eval_us": own.total("weights.eval") / datasets * 1e6,
        "wlrt.statistic_us": own.total("wlrt.statistic") / datasets * 1e6,
        "combo.decide_us": harness.total("combo.decide") / reps * 1e6,
        "combo.kernel_us": own.total("combo.kernel") / datasets * 1e6,
        "combo.kernel_calls_per_rep": harness.calls("combo.kernel", "combo.decide") / reps,
        "combo.critical_values_ms": analyze.total("combo.critical_values") / tests * 1e3,
        "combo.pvalue_ms": analyze.total("combo.pvalue") / tests * 1e3,
        "combo.kernel_calls_per_call": kernel_per_call / tests,
        "harness.self_us": harness.self_time(ESTIMATE) / reps * 1e6,
        "harness.scenario_s": scenario.total(ESTIMATE) / scenario.calls(ESTIMATE),
        "harness.speedup_w2": speedup_w2,
        "harness.degenerate": harness.counts[ESTIMATE],
        "cli.self_ms": cli.self_time("cli.main") / cli_calls * 1e3,
        "cli.write_ms": cli.total("cli.write") / cli_calls * 1e3,
        "cli.replace_existing_ms": replace_existing_ms,
        "trace.overhead_frac": overhead_frac,
    }


def self_time_table(tr, untraced_seconds):
    """Lines of per-span self time and its share of the same operations untraced."""
    datasets = _reps(tr) + _tests(tr)
    lines = [f"{'span':24} {'calls':>8} {'self_s':>9} {'self_us/dataset':>16} {'share':>7}"]
    shares = 0.0
    for name in sorted(tr.names(), key=tr.self_time, reverse=True):
        own = tr.self_time(name)
        shares += own / untraced_seconds
        lines.append(
            f"{name:24} {tr.calls(name):8d} {own:9.4f} {own / datasets * 1e6:16.2f} "
            f"{own / untraced_seconds:7.1%}"
        )
    lines.append(f"{'all spans':24} {'':8} {'':9} {'':16} {shares:7.1%}")
    return lines
