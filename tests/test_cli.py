"""Tests for the command-line interface: method grammar, subcommands,
exit codes, manifests, and byte-level determinism of outputs."""

import argparse
import contextlib
import errno
import io
import json
import multiprocessing
import os
import re
import stat
import subprocess
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rmwtest.cli as cli_module
import rmwtest.harness as harness_module
from rmwtest.cli import _KEYWORDS, _WEIGHT_FAMILIES, _build_parser, main, parse_method_grammar
from rmwtest.dataset import read_survival_csv
from rmwtest.errors import GrammarError, NumericalError
from rmwtest.harness import (
    OperatingCharacteristics,
    read_power_csv,
    write_power_csv,
)
from rmwtest.simulator import (
    BUILTIN_SCENARIOS,
    PiecewiseHazard,
    Scenario,
    simulate_trial,
    write_scenario,
)
from rmwtest.weights import WeightSpec

ROOT = Path(__file__).resolve().parents[1]
EXAMPLE_TRIAL = ROOT / "data" / "example_trial.csv"
POWER_HEADER = "scenario,method,rejection_rate,mc_standard_error,replicates,seed\n"


def example_trial_with_first_time(text):
    """The example trial CSV with the time of its first subject replaced by ``text``."""
    header, first, *rest = EXAMPLE_TRIAL.read_text().splitlines(keepends=True)
    return header + text + first[first.index(","):] + "".join(rest)


def scenario_json(drop=None, **fields):
    """high_ph as JSON, with fields replaced and one field dropped."""
    d = {**asdict(BUILTIN_SCENARIOS["high_ph"]), **fields}
    d.pop(drop, None)
    return json.dumps(d)


class TestMethodGrammar:
    def test_single_test_shorthand(self):
        (m,) = parse_method_grammar("lr")
        assert m.label == "lr"
        assert m.combo.w1 == m.combo.w2 == WeightSpec.constant()
        assert (m.combo.k1, m.combo.k2, m.combo.alpha) == (1.0, 0.0, 0.025)

    def test_combo_defaults(self):
        (m,) = parse_method_grammar("max(lr, mw(0.5))")
        assert m.combo.w1 == WeightSpec.constant()
        assert m.combo.w2 == WeightSpec.modest(0.5)
        assert (m.combo.k1, m.combo.k2, m.combo.alpha) == (0.5, 0.5, 0.025)

    def test_combo_with_parameters(self):
        (m,) = parse_method_grammar("max(lr, mw(0.5); k1=0.6, alpha=0.05)")
        assert m.combo.k1 == 0.6
        assert m.combo.k2 == pytest.approx(0.4)
        assert m.combo.alpha == 0.05

    def test_nested_commas_split_at_top_level_only(self):
        (m,) = parse_method_grammar("max(fh(0, 0.5), mw(0.5))")
        assert m.combo.w1 == WeightSpec.fleming_harrington(0.0, 0.5)

    def test_paper6_expands(self):
        methods = parse_method_grammar("paper6")
        assert [m.label for m in methods] == [
            "LR", "MW", "rMW(k1=0.5)", "rMW(k1=0.6)", "FH", "MaxCombo",
        ]

    @pytest.mark.parametrize("text", ["rmw", " RMW "])
    def test_rmw_keyword_is_the_lr_mw_combo(self, text):
        (m,) = parse_method_grammar(text)
        assert m.label == text.strip()
        assert m.combo == parse_method_grammar("max(lr,mw(0.5))")[0].combo

    def test_keywords_match_help_and_readme(self):
        """Every keyword the grammar expands is named where users look, and
        no word is named as a keyword that the grammar does not expand."""

        def bare_words(spans):
            return {w for w in spans if re.fullmatch(r"[a-z][a-z0-9]*", w)} - set(_WEIGHT_FAMILIES)

        subparsers = next(
            a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        for command, dest in (("analyze", "test"), ("power", "methods")):
            (action,) = [a for a in subparsers.choices[command]._actions if a.dest == dest]
            assert bare_words(re.findall(r"'([^']*)'", action.help)) == set(_KEYWORDS), command
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        table = readme.split("## Method grammar", 1)[1].split("\n## ", 1)[0]
        forms = [row.split("|")[1] for row in table.splitlines() if row.startswith("| `")]
        assert bare_words(re.findall(r"`([^`]*)`", "".join(forms))) == set(_KEYWORDS)

    def test_label_preserves_input_text(self):
        text = "max(lr, mw(0.5); k1=0.6)"
        (m,) = parse_method_grammar(text)
        assert m.label == text

    def test_arity_error_with_offset(self):
        with pytest.raises(GrammarError, match="offset 4: max takes exactly 2"):
            parse_method_grammar("max(lr)")

    def test_unknown_parameter(self):
        with pytest.raises(GrammarError, match="unknown parameter 'k3'"):
            parse_method_grammar("max(lr,mw(0.5);k3=1)")

    def test_duplicate_parameter(self):
        with pytest.raises(GrammarError, match="duplicate parameter 'k1'"):
            parse_method_grammar("max(lr,mw(0.5);k1=0.5,k1=0.6)")

    def test_component_error_offset_is_absolute(self):
        # 'zzz' starts at byte 4 of the whole method string
        with pytest.raises(GrammarError, match="offset 4"):
            parse_method_grammar("max(zzz, mw(0.5))")

    def test_semantic_error_reported_as_grammar(self):
        with pytest.raises(GrammarError, match="k1"):
            parse_method_grammar("max(lr, mw(0.5); k1=2)")

    def test_missing_close_paren(self):
        with pytest.raises(GrammarError, match="offset"):
            parse_method_grammar("max(lr, mw(0.5)")

    def test_named_weight_parameters_inside_combo(self):
        (m,) = parse_method_grammar("max(lr,fh(rho=0,gamma=0.5))")
        assert m.combo.w2 == WeightSpec.fleming_harrington(0.0, 0.5)
        with pytest.raises(GrammarError, match="offset 10: parameter 1 of fh is 'rho'"):
            parse_method_grammar("max(lr,fh(gamma=0.5,rho=0))")


@pytest.fixture
def trial_csv(tmp_path):
    """A simulated dataset on disk, written through the CLI itself."""
    path = tmp_path / "trial.csv"
    assert main([
        "simulate", "--scenario", "high_delayed", "--seed", "2",
        "--out", str(path),
    ]) == 0
    return path


class TestAnalyze:
    def test_default_test_to_stdout(self, trial_csv, capsys):
        assert main(["analyze", "--data", str(trial_csv)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "z1", "z2", "correlation", "c", "threshold1", "threshold2",
            "reject", "p_value",
        }
        assert payload["threshold1"] == payload["threshold2"] == payload["c"]
        assert isinstance(payload["reject"], bool)

    def test_single_test_has_null_second_threshold(self, trial_csv, capsys):
        assert main(["analyze", "--data", str(trial_csv), "--test", "lr"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["threshold2"] is None
        assert payload["c"] == 1.0

    def test_out_file_and_manifest(self, trial_csv, tmp_path):
        out = tmp_path / "result.json"
        assert main([
            "analyze", "--data", str(trial_csv), "--test", "max(lr,fh(0,0.5))",
            "--out", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        assert "timestamp" not in json.dumps(payload)  # results carry no clock
        manifest = json.loads((tmp_path / "result.json.manifest.json").read_text())
        assert manifest["subcommand"] == "analyze"
        assert manifest["config"]["test"] == "max(lr,fh(0,0.5))"
        assert manifest["outputs"] == [str(out)]
        assert "timestamp_utc" in manifest

    def test_rmw_is_shorthand_for_lr_mw_combo(self, trial_csv, tmp_path):
        out = tmp_path / "result.json"
        for alpha in ([], ["--alpha", "0.05"]):
            outs = []
            for test in ("rmw", "max(lr,mw(0.5))"):
                assert main([
                    "analyze", "--data", str(trial_csv), "--test", test, *alpha,
                    "--out", str(out),
                ]) == 0
                outs.append(out.read_bytes())
            assert outs[0] == outs[1]

    def test_grammar_error_exits_2(self, trial_csv, capsys):
        assert main(["analyze", "--data", str(trial_csv), "--test", "max(lr)"]) == 2
        assert "offset" in capsys.readouterr().err

    def test_missing_data_file_exits_3(self, tmp_path, capsys):
        assert main(["analyze", "--data", str(tmp_path / "absent.csv")]) == 3

    def test_bad_header_exits_3_with_or_without_byte_order_mark(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        for bom in (b"", b"\xef\xbb\xbf"):
            path.write_bytes(bom + b"time,status,arm\n1.0,1,0\n2.0,0,1\n")
            assert main(["analyze", "--data", str(path)]) == 3

    def test_nan_time_exits_3(self, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        path.write_text("time,event,arm\n1.0,1,0\nnan,0,1\n2.0,1,1\n")
        assert main(["analyze", "--data", str(path)]) == 3
        assert ":3: time must be finite" in capsys.readouterr().err

    def test_zero_variance_data_exits_4(self, tmp_path, capsys):
        # every subject dies at the same instant: the statistic has no spread
        path = tmp_path / "flat.csv"
        path.write_text("time,event,arm\n5,1,0\n5,1,0\n5,1,1\n5,1,1\n")
        assert main(["analyze", "--data", str(path)]) == 4
        assert "error" in capsys.readouterr().err

    def test_fh_with_a_single_event_time_exits_4(self, tmp_path, capsys):
        # KM is 1 at the only event time, so every fh(0, gamma > 0) weight is 0
        path = tmp_path / "tied.csv"
        path.write_text("time,event,arm\n1,1,0\n1,1,0\n1,1,0\n1,1,1\n2,0,1\n2,0,1\n")
        assert main(["analyze", "--data", str(path), "--test", "lr"]) == 0
        capsys.readouterr()
        for test in ("fh(0,0.5)", "max(lr,fh(0,0.5))"):
            assert main(["analyze", "--data", str(path), "--test", test]) == 4
            assert "degenerate variance" in capsys.readouterr().err

    @pytest.mark.parametrize("tied", [True, False], ids=["tied", "example-trial"])
    def test_k1_one_prints_the_bytes_of_its_w1_test(self, tmp_path, capsys, tied):
        """A k1 = 1 test reads w1 alone: fh's zero variance on the tied data
        does not stop it, and its z2 and correlation are lr's own."""
        path = EXAMPLE_TRIAL
        if tied:
            path = tmp_path / "tied.csv"
            path.write_text("time,event,arm\n1,1,0\n1,1,0\n1,1,0\n1,1,1\n2,0,1\n2,0,1\n")
        outs = []
        for test in ("lr", "max(lr,fh(0,0.5);k1=1)"):
            assert main(["analyze", "--data", str(path), "--test", test]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_equal_weight_combo_reads_its_weight_once(self, capsys):
        """fh(0,400) has a positive variance whose square underflows on the
        example trial. Alone or as max(w,w) it reads w once, with correlation
        1; the two differ only in their critical values, since an equal split
        bisects c where a single test takes ndtri(1 - alpha)."""
        outs = []
        for test in ("fh(0,400)", "max(fh(0,400),fh(0,400))"):
            assert main(["analyze", "--data", str(EXAMPLE_TRIAL), "--test", test]) == 0
            outs.append(json.loads(capsys.readouterr().out))
        single, combo = outs
        assert single["z2"] == single["z1"] and single["correlation"] == 1.0
        for payload in outs:
            del payload["c"], payload["threshold1"], payload["threshold2"]
        assert combo == single

    @pytest.mark.parametrize("test, correlation", [
        ("fh(0,370)", 1.0),
        # the product of the two variances underflows; the product of their roots does not
        ("max(fh(0,370),fh(0,380))", 0.9999998689559185),
    ])
    def test_heavy_fh_correlation(self, capsys, test, correlation):
        assert main(["analyze", "--data", str(EXAMPLE_TRIAL), "--test", test]) == 0
        assert json.loads(capsys.readouterr().out)["correlation"] == correlation

    def test_near_one_k1_on_a_harmful_trial_clamps_the_pvalue(self, tmp_path, capsys):
        """With the arms swapped no level rejects, and the p-value bisection
        never reaches a level where w2's quantile is infinite."""
        header, *rows = EXAMPLE_TRIAL.read_text().splitlines()
        path = tmp_path / "flipped.csv"
        path.write_text("\n".join([header, *(r[:-1] + str(1 - int(r[-1])) for r in rows)]) + "\n")
        test = "max(lr,mw(0.5);k1=0.99999)"
        assert main(["analyze", "--data", str(path), "--test", test]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["p_value"] == 0.5 and payload["reject"] is False

    def test_paper6_is_not_a_single_test(self, trial_csv, capsys):
        assert main(["analyze", "--data", str(trial_csv), "--test", "paper6"]) == 2

    def test_misplaced_named_parameter_exits_2(self, capsys):
        # fh(gamma=0.5,rho=0) would otherwise run the early-weighted FH(0.5, 0)
        test = "fh(gamma=0.5,rho=0)"
        assert main(["analyze", "--data", str(EXAMPLE_TRIAL), "--test", test]) == 2
        assert "offset 3: parameter 1 of fh is 'rho', got 'gamma'" in capsys.readouterr().err

    @pytest.mark.parametrize("test, alpha", [
        ("rmw", "1e-25"),
        ("max(lr,mw(0.5);k1=0.6)", "1e-20"),
        ("max(lr,mw(0.5);k1=0.9999999999999999)", "0.025"),
        ("lr", "1e-20"),
    ])
    def test_alpha_share_without_a_finite_quantile_exits_2(self, capsys, test, alpha):
        argv = ["analyze", "--data", str(EXAMPLE_TRIAL), "--test", test, "--alpha", alpha]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"alpha={float(alpha)}" in err and "k1=" in err

    @pytest.mark.parametrize("test", ["rmw", "max(lr,mw(0.5);k1=0.6)", "lr"])
    def test_tiny_alpha_gives_finite_thresholds(self, capsys, test):
        argv = ["analyze", "--data", str(EXAMPLE_TRIAL), "--test", test, "--alpha", "1e-10"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)  # Infinity is not JSON
        assert payload["threshold1"] > 6.0 and payload["reject"] is False
        assert payload["threshold2"] is None if test == "lr" else payload["threshold2"] > 6.0

    # stdout of the parent of the one-statistic-core fold, beside the three
    # tests that perfbench/pins.json holds
    @pytest.mark.parametrize("test, payload", [
        ("lr", {
            "z1": 2.187329446956057, "z2": 2.187329446956057, "correlation": 1.0, "c": 1.0,
            "threshold1": 1.959963984540054, "threshold2": None, "reject": True,
            "p_value": 0.01435924127501366,
        }),
        ("mw(0.5)", {
            "z1": 2.369893433678865, "z2": 2.369893433678865, "correlation": 1.0, "c": 1.0,
            "threshold1": 1.959963984540054, "threshold2": None, "reject": True,
            "p_value": 0.008896606468129384,
        }),
        ("fh(0,0.5)", {
            "z1": 2.550983438907574, "z2": 2.550983438907574, "correlation": 1.0, "c": 1.0,
            "threshold1": 1.959963984540054, "threshold2": None, "reject": True,
            "p_value": 0.005370971502409552,
        }),
        ("max(lr,mw(0.5);k1=0.75,alpha=0.05)", {
            "z1": 2.187329446956057, "z2": 2.369893433678865, "correlation": 0.9767717774555686,
            "c": 0.9245766202917594, "threshold1": 1.6461757035916051,
            "threshold2": 2.0723485586017127, "reject": True, "p_value": 0.014445991721975356,
        }),
        ("max(mw(0.5),fh(0,0.5);k1=0.9)", {
            "z1": 2.369893433678865, "z2": 2.550983438907574, "correlation": 0.9871062635242107,
            "c": 0.977706646510228, "threshold1": 1.959963991224119,
            "threshold2": 2.7444555722883957, "reject": True, "p_value": 0.00889660831406213,
        }),
    ])
    def test_example_trial_bytes_are_pinned(self, capsys, test, payload):
        assert main(["analyze", "--data", str(EXAMPLE_TRIAL), "--test", test]) == 0
        assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"

    def test_calls_share_one_parser(self, capsys):
        """A usage error or --help between two calls leaves the next call's result
        unchanged, and neither builds a second parser."""
        argv = ["analyze", "--data", str(EXAMPLE_TRIAL)]
        _build_parser.cache_clear()
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main([*argv, "--test", "lr", "--alpha", "0.05"]) == 0
        assert main([*argv, "--alpha", "0.0_5"]) == 2
        assert main(["analyze", "--help"]) == 0
        assert main(["--help"]) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert _build_parser.cache_info().misses == 1

    def test_runtime_needs_no_root_finder_module(self):
        code = (
            "import sys; from rmwtest import cli; "
            f"assert cli.main(['analyze', '--data', {str(EXAMPLE_TRIAL)!r}, "
            "'--test', 'max(lr,mw(0.5);k1=0.6)']) == 0; "
            "print('scipy.optimize' in sys.modules)"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"


class TestSimulate:
    def test_requires_exactly_one_source(self, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        assert main(["simulate", "--out", out]) == 2
        assert main([
            "simulate", "--scenario", "high_ph", "--scenario-file", "s.json",
            "--out", out,
        ]) == 2

    def test_all_is_more_than_one_scenario(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["simulate", "--scenario", "all", "--out", str(out)]) == 2
        assert "simulate needs exactly one scenario, got 10" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_scenario_exits_2_and_names_choices(self, tmp_path, capsys):
        code = main(["simulate", "--scenario", "nope", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "high_delayed" in capsys.readouterr().err

    def test_deterministic_output_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--scenario", "high_equal", "--seed", "4", "--replicate", "7"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        assert lines[0] == "time,event,arm"
        assert len(lines) == 1 + BUILTIN_SCENARIOS["high_equal"].n_total

    def test_reproduces_shipped_example_trial(self, tmp_path):
        """data/example_trial.csv is high_delayed at seed 1, byte for byte, and
        reading it back gives the simulator's columns with the same dtypes."""
        out = tmp_path / "trial.csv"
        assert main([
            "simulate", "--scenario", "high_delayed", "--seed", "1", "--out", str(out),
        ]) == 0
        assert out.read_bytes() == EXAMPLE_TRIAL.read_bytes()
        got = read_survival_csv(EXAMPLE_TRIAL)
        want = simulate_trial(BUILTIN_SCENARIOS["high_delayed"], 1)
        for col, ref in zip(got, want, strict=True):
            assert col.dtype == ref.dtype
            assert np.array_equal(col, ref)

    @pytest.mark.parametrize("text,field", [
        pytest.param('{"name": "x",', None, id="bad-json"),
        pytest.param(scenario_json(drop="n_total"), "'n_total'", id="missing"),
        pytest.param(scenario_json(n_total=1000.7), "'n_total'", id="fractional"),
        pytest.param(scenario_json(n_total="1_000"), "'n_total'", id="string"),
        pytest.param(scenario_json(n_total=True), "'n_total'", id="bool"),
        pytest.param(scenario_json(n_total=999), "n_total", id="odd"),
        pytest.param(scenario_json(arm0=[0.0462]), "'arm0'", id="arm-not-object"),
        pytest.param(
            scenario_json(arm1={"knots": [], "rates": ["0.0_462"]}), "'arm1.rates'", id="string-rate",
        ),
        pytest.param(scenario_json(name="a:b"), "scenario name", id="name-with-colon"),
        pytest.param(scenario_json(name="my trial"), "scenario name", id="name-with-space"),
    ])
    def test_bad_scenario_file_exits_3(self, tmp_path, capsys, text, field):
        spath = tmp_path / "scenario.json"
        spath.write_text(text)
        out = tmp_path / "trial.csv"
        assert main(["simulate", "--scenario-file", str(spath), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"error: {spath}: " in err
        assert field is None or field in err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [
        ("--seed", "-1"), ("--seed", str(2**64)), ("--replicate", "-3"), ("--replicate", str(2**64)),
    ])
    def test_seed_or_replicate_outside_64_bits_exits_2(self, tmp_path, capsys, flag, value):
        """Masking to 64 bits would alias -1 onto 2**64 - 1 and 2**64 onto 0."""
        out = tmp_path / "trial.csv"
        assert main(["simulate", "--scenario", "high_ph", flag, value, "--out", str(out)]) == 2
        assert "[0, 2**64)" in capsys.readouterr().err
        assert not out.exists()

    def test_largest_seed_and_replicate_are_valid(self, tmp_path):
        largest = str(2**64 - 1)
        out = tmp_path / "trial.csv"
        assert main([
            "simulate", "--scenario", "high_ph", "--seed", largest, "--replicate", largest,
            "--out", str(out),
        ]) == 0

    def test_scenario_file_and_manifest_hash(self, tmp_path):
        h = PiecewiseHazard(knots=(), rates=(0.05,))
        scenario = Scenario("custom", 40, 12.0, 3.0, h, h)
        spath = tmp_path / "scenario.json"
        write_scenario(spath, scenario)
        out = tmp_path / "trial.csv"
        assert main([
            "simulate", "--scenario-file", str(spath), "--out", str(out),
        ]) == 0
        assert len(out.read_text().splitlines()) == 41
        manifest = json.loads((tmp_path / "trial.csv.manifest.json").read_text())
        assert "custom" in manifest["scenario_hash"]


class TestPower:
    def test_small_run_round_trips(self, tmp_path):
        out = tmp_path / "power.csv"
        jout = tmp_path / "power.json"
        code = main([
            "power", "--scenario", "high_equal", "--methods", "lr",
            "--methods", "mw(0.5)", "--reps", "100", "--seed", "5",
            "--out", str(out), "--json", str(jout),
        ])
        assert code == 0
        ocs = read_power_csv(out)
        assert set(ocs) == {"high_equal"}
        assert set(ocs["high_equal"].rates) == {"lr", "mw(0.5)"}
        payload = json.loads(jout.read_text())
        assert [m["label"] for m in payload["methods"]] == ["lr", "mw(0.5)"]
        assert payload["scenarios"][0]["hash"]
        manifest = json.loads((tmp_path / "power.csv.manifest.json").read_text())
        assert manifest["outputs"] == [str(out), str(jout)]
        assert manifest["config"]["reps"] == 100

    def test_heavy_fh_pair_decides(self, tmp_path):
        """Variances whose product underflows still give a correlation, so
        no replicate is lost to it."""
        out, jout = tmp_path / "power.csv", tmp_path / "power.json"
        assert main([
            "power", "--scenario", "high_delayed", "--methods", "max(fh(0,400),fh(0,420))",
            "--reps", "100", "--out", str(out), "--json", str(jout),
        ]) == 0
        assert json.loads(jout.read_text())["scenarios"][0]["degenerate"] == 0

    def test_rmw_runs_its_expansion(self, tmp_path):
        out = tmp_path / "power.csv"
        assert main([
            "power", "--scenario", "high_delayed", "--methods", "rmw",
            "--methods", "max(lr,mw(0.5))", "--reps", "200", "--out", str(out),
        ]) == 0
        rates = read_power_csv(out)["high_delayed"].rates
        assert list(rates) == ["rmw", "max(lr,mw(0.5))"]
        assert rates["rmw"] == rates["max(lr,mw(0.5))"]

    def test_scenario_name_round_trips_into_assurance(self, tmp_path, capsys):
        """Any name a scenario file may carry is a word the prior grammar reads."""
        spath, out = tmp_path / "s.json", tmp_path / "p.csv"
        spath.write_text(scenario_json(name="my-trial"))
        assert main([
            "power", "--scenario-file", str(spath), "--methods", "lr", "--reps", "100",
            "--out", str(out),
        ]) == 0
        assert main(["assurance", "--in", str(out), "--prior", "my-trial:1.0"]) == 0
        assert json.loads(capsys.readouterr().out)["prior"] == {"my-trial": 1.0}

    def test_worker_count_leaves_bytes_unchanged(self, tmp_path):
        # two blocks, so that two workers start a pool
        h = PiecewiseHazard(knots=(), rates=(0.08,))
        scenario = Scenario("mini", 60, 12.0, 3.0, h, PiecewiseHazard((), (0.05,)))
        spath = tmp_path / "mini.json"
        write_scenario(spath, scenario)
        outs = []
        for workers in ("1", "2"):
            out = tmp_path / f"power-{workers}.csv"
            assert main([
                "power", "--scenario-file", str(spath), "--methods", "paper6",
                "--reps", "200", "--seed", "9", "--workers", workers,
                "--out", str(out),
            ]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("flag,workers", [([], 1), (["--workers", "2"], 2)])
    def test_manifest_records_the_worker_count(self, tmp_path, flag, workers):
        out = tmp_path / "power.csv"
        assert main([
            "power", "--scenario", "high_equal", "--methods", "lr",
            "--reps", "100", *flag, "--out", str(out),
        ]) == 0
        manifest = json.loads((tmp_path / "power.csv.manifest.json").read_text())
        assert manifest["config"]["workers"] == workers

    @pytest.mark.parametrize("workers,reps,pool_workers", [
        ("1", "200", 0),
        ("2", "100", 0),  # one block: no pool
        ("2", "200", 2),
    ])
    def test_manifest_records_the_pool_size(
        self, tmp_path, monkeypatch, workers, reps, pool_workers
    ):
        """Worker processes the run started; the pool is gone before the
        outputs are written."""
        children_at_write = []
        write_csv = cli_module.write_power_csv

        def write(path, ocs):
            children_at_write.append(multiprocessing.active_children())
            write_csv(path, ocs)

        monkeypatch.setattr(cli_module, "write_power_csv", write)
        out = tmp_path / "power.csv"
        assert main([
            "power", "--scenario", "high_equal", "--methods", "lr",
            "--reps", reps, "--workers", workers, "--out", str(out),
        ]) == 0
        assert children_at_write == [[]]
        manifest = json.loads((tmp_path / "power.csv.manifest.json").read_text())
        assert manifest["pool_workers"] == pool_workers

    def test_manifest_records_each_scenarios_wall_time(self, tmp_path):
        out, report = tmp_path / "p.csv", tmp_path / "p.json"
        assert main([
            "power", "--scenario", "low_ph,high_ph", "--methods", "lr", "--reps", "100",
            "--out", str(out), "--json", str(report),
        ]) == 0
        seconds = json.loads((tmp_path / "p.csv.manifest.json").read_text())["scenario_seconds"]
        assert list(seconds) == ["low_ph", "high_ph"]
        assert all(isinstance(s, float) and s > 0.0 for s in seconds.values())
        # the results themselves carry no times
        assert "seconds" not in out.read_text() + report.read_text()

    def test_degenerate_replicates_are_grouped_and_recorded(self, tmp_path):
        """One stderr line per reason, and the manifest's counts are the
        report's; a scenario with none records 0."""
        spath, out, report = tmp_path / "tiny.json", tmp_path / "p.csv", tmp_path / "p.json"
        rate = {"knots": [], "rates": [0.1]}
        spath.write_text(scenario_json(
            name="tiny", n_total=2, study_length=1.0, recruit_duration=1.0, arm0=rate, arm1=rate,
        ))
        argv = ["power", "--scenario-file", str(spath), "--methods", "lr", "--reps", "100",
                "--out", str(out), "--json", str(report)]
        code = f"import sys; from rmwtest import cli; sys.exit(cli.main({argv!r}))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 2, lines
        pattern = (r"(\d+) of 100 replicates of scenario tiny degenerate \((no events|degenerate variance)\), "
                   r"the first is replicate \d+; counted as non-rejections")
        matches = [re.fullmatch(pattern, line) for line in lines]
        assert all(matches), lines
        assert [m[2] for m in matches] == ["no events", "degenerate variance"]
        manifest = json.loads((tmp_path / "p.csv.manifest.json").read_text())
        assert manifest["degenerate"] == {"tiny": 90} == {"tiny": sum(int(m[1]) for m in matches)}
        assert {s["name"]: s["degenerate"] for s in json.loads(report.read_text())["scenarios"]} == {"tiny": 90}
        assert main([
            "power", "--scenario", "high_ph", "--methods", "lr", "--reps", "100", "--out", str(out),
        ]) == 0
        assert json.loads((tmp_path / "p.csv.manifest.json").read_text())["degenerate"] == {"high_ph": 0}

    @pytest.mark.parametrize("scenario,reps,workers,pools", [
        pytest.param("all", "200", "2", [2], id="one-pool"),
        pytest.param("all", "200", "1", [], id="one-worker"),
        pytest.param("high_ph", "199", "2", [], id="one-block"),
        pytest.param("all", "200", "5000", [2], id="capped-at-blocks"),
        pytest.param("all", "300", "5000", [3], id="capped-at-one-scenarios-blocks"),
    ])
    def test_one_pool_per_run(self, tmp_path, monkeypatch, scenario, reps, workers, pools):
        """The run builds at most one pool, for all its scenarios, with no more
        workers than one scenario has blocks, as scenarios run one after
        another; a stub records it and starts nothing."""
        def run(workers):
            out, report = tmp_path / f"p{workers}.csv", tmp_path / f"p{workers}.json"
            assert main([
                "power", "--scenario", scenario, "--methods", "lr", "--reps", reps, "--seed", "4",
                "--workers", workers, "--out", str(out), "--json", str(report),
            ]) == 0
            manifest = json.loads(Path(f"{out}.manifest.json").read_text())
            return out.read_bytes(), report.read_bytes(), manifest["pool_workers"]

        serial = run("1")
        sizes, pools_in_use = [], []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        real_estimate = cli_module.estimate_power

        def recording_estimate(*args, pool=None, **kwargs):
            pools_in_use.append(pool)
            return real_estimate(*args, pool=pool, **kwargs)

        monkeypatch.setattr(harness_module, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli_module, "estimate_power", recording_estimate)
        *result, pool_workers = run(workers)
        assert sizes == pools
        assert pool_workers == (pools[0] if pools else 0)
        # one estimate_power call per scenario, all on the run's one pool
        n_scenarios = len(BUILTIN_SCENARIOS) if scenario == "all" else 1
        assert len(pools_in_use) == n_scenarios
        assert len({id(pool) for pool in pools_in_use}) == 1
        assert (pools_in_use[0] is None) == (not pools)
        assert result == list(serial[:2])

    def test_pool_is_shut_down_when_a_scenario_fails(self, tmp_path, monkeypatch, capsys):
        """A real pool of two: the second scenario's failure still leaves no
        worker process behind and no output."""
        pools = []
        real_estimate = cli_module.estimate_power

        def second_fails(*args, pool=None, **kwargs):
            pools.append(pool)
            if len(pools) == 2:
                raise NumericalError("the second scenario failed")
            return real_estimate(*args, pool=pool, **kwargs)

        monkeypatch.setattr(cli_module, "estimate_power", second_fails)
        assert main([
            "power", "--scenario", "high_ph,low_ph", "--methods", "lr", "--reps", "200",
            "--workers", "2", "--out", str(tmp_path / "p.csv"),
        ]) == 4
        assert "the second scenario failed" in capsys.readouterr().err
        assert pools[0] is pools[1] is not None
        assert multiprocessing.active_children() == []
        assert list(tmp_path.iterdir()) == []

    def test_no_scenarios_exits_2(self, tmp_path, capsys):
        assert main(["power", "--methods", "lr", "--out", str(tmp_path / "p.csv")]) == 2
        assert "no scenarios" in capsys.readouterr().err

    @pytest.mark.parametrize("values,names", [
        pytest.param([" all"], list(BUILTIN_SCENARIOS), id="all"),
        pytest.param(["high_ph", "low_ph"], ["high_ph", "low_ph"], id="repeated"),
        pytest.param([" high_ph , low_ph "], ["high_ph", "low_ph"], id="list"),
    ])
    def test_scenario_values(self, tmp_path, values, names):
        """Each --scenario is 'all' or names separated by ','; every value counts."""
        out = tmp_path / "p.csv"
        argv = [arg for value in values for arg in ("--scenario", value)]
        assert main(["power", *argv, "--methods", "lr", "--reps", "100", "--out", str(out)]) == 0
        assert list(read_power_csv(out)) == names
        manifest = json.loads((tmp_path / "p.csv.manifest.json").read_text())
        assert manifest["config"]["scenario"] == values

    @pytest.mark.parametrize("value,offset,got", [
        ("high_ph,,", 8, "','"), ("high_ph,", 8, "end of input"), ("", 0, "end of input"),
    ])
    def test_empty_scenario_name_exits_2(self, tmp_path, capsys, value, offset, got):
        out = tmp_path / "p.csv"
        argv = ["power", "--scenario", value, "--methods", "lr", "--reps", "100", "--out", str(out)]
        assert main(argv) == 2
        assert f"offset {offset}: expected a scenario name, got {got}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("missing", ["out", "json"])
    def test_missing_output_directory_exits_3_before_the_run(
        self, tmp_path, monkeypatch, capsys, missing
    ):
        def no_run(*args, **kwargs):
            raise AssertionError("estimate_power ran")

        monkeypatch.setattr(cli_module, "estimate_power", no_run)
        paths = {"out": tmp_path / "p.csv", "json": tmp_path / "p.json"}
        paths[missing] = tmp_path / "missing" / paths[missing].name
        assert main([
            "power", "--scenario", "high_ph", "--methods", "lr", "--reps", "100",
            "--out", str(paths["out"]), "--json", str(paths["json"]),
        ]) == 3
        assert f"{paths[missing]}: no such directory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("json_name", ["p.csv", "p.csv.manifest.json"])
    def test_outputs_naming_one_file_exit_2_before_the_run(
        self, tmp_path, monkeypatch, capsys, json_name
    ):
        """A --json that is the CSV or its manifest would overwrite it."""
        def no_run(*args, **kwargs):
            raise AssertionError("estimate_power ran")

        monkeypatch.setattr(cli_module, "estimate_power", no_run)
        assert main([
            "power", "--scenario", "high_ph", "--methods", "lr", "--reps", "100",
            "--out", str(tmp_path / "p.csv"), "--json", str(tmp_path / json_name),
        ]) == 2
        assert "must be different files" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_failed_writer_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        """The CSV, the JSON report and the manifest land together or not at all."""
        def broken(path, *args):
            Path(path).write_text("partial")
            raise OSError("disk full")

        monkeypatch.setattr(cli_module, "write_power_json", broken)
        assert main([
            "power", "--scenario", "high_ph", "--methods", "lr", "--reps", "100",
            "--out", str(tmp_path / "p.csv"), "--json", str(tmp_path / "p.json"),
        ]) == 3
        assert "disk full" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("sources", [
        ["--scenario", "high_ph,high_ph"],
        ["--scenario-file", "{spath}", "--scenario-file", "{spath}"],
        ["--scenario", "high_ph", "--scenario-file", "{spath}"],
    ])
    def test_duplicate_scenario_names_exit_2(self, tmp_path, capsys, sources):
        """Two rows for one scenario name would make the power CSV unreadable."""
        spath, out = tmp_path / "s.json", tmp_path / "p.csv"
        spath.write_text(scenario_json())  # named high_ph
        argv = [arg.format(spath=spath) for arg in sources]
        assert main(["power", *argv, "--methods", "lr", "--reps", "100", "--out", str(out)]) == 2
        assert "duplicate scenario name 'high_ph'" in capsys.readouterr().err
        assert not out.exists()

    def test_duplicate_method_labels_exit_2(self, tmp_path, capsys):
        assert main([
            "power", "--scenario", "high_equal", "--methods", "lr",
            "--methods", "lr", "--out", str(tmp_path / "p.csv"),
        ]) == 2
        assert "duplicate method label" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["fh(nan,0)", "fh(0,inf)", "max(lr,fh(inf,0))"])
    def test_non_finite_weight_parameter_exits_2(self, tmp_path, capsys, method):
        out = tmp_path / "p.csv"
        assert main([
            "power", "--scenario", "high_equal", "--methods", method, "--reps", "100",
            "--out", str(out),
        ]) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_workers_value_exits_2(self, tmp_path, capsys):
        assert main([
            "power", "--scenario", "high_equal", "--workers", "zero",
            "--out", str(tmp_path / "p.csv"),
        ]) == 2


class TestOutputsNeverReplaceInputs:
    """An output that names an input, another output or the manifest exits 2
    before any work, one that cannot be written as a file exits 3 before any
    work, and no file is written or changed."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the command did work")

        for name in (
            "read_survival_csv", "run_combo_test", "read_scenario", "simulate_trial",
            "estimate_power", "read_power_csv", "assurance",
        ):
            monkeypatch.setattr(cli_module, name, fail)

    @pytest.mark.parametrize("files,argv,flags", [
        pytest.param(
            {"x.csv": EXAMPLE_TRIAL.read_text},
            ["analyze", "--data", "@x.csv", "--out", "@x.csv"],
            "--out and --data", id="analyze-out-is-data",
        ),
        pytest.param(
            {"x.csv.manifest.json": EXAMPLE_TRIAL.read_text},
            ["analyze", "--data", "@x.csv.manifest.json", "--out", "@x.csv"],
            "the manifest and --data", id="analyze-manifest-is-data",
        ),
        pytest.param(
            {"q.csv": lambda: POWER_HEADER + "high_ph,lr,0.5,0.05,100,0\n"},
            ["assurance", "--in", "@q.csv", "--prior", "high_ph:1.0", "--out", "@q.csv"],
            "--out and --in", id="assurance-out-is-in",
        ),
        pytest.param(
            {"s.json": scenario_json},
            ["simulate", "--scenario-file", "@s.json", "--out", "@s.json"],
            "--out and --scenario-file", id="simulate-out-is-scenario-file",
        ),
        pytest.param(
            {"s.json": scenario_json, "t.json": lambda: scenario_json(name="other")},
            [
                "power", "--scenario-file", "@s.json", "--scenario-file", "@t.json",
                "--methods", "lr", "--reps", "100", "--out", "@p.csv", "--json", "@t.json",
            ],
            "--json and --scenario-file", id="power-json-is-scenario-file",
        ),
        pytest.param(
            {"s.json": scenario_json},
            [
                "power", "--scenario-file", "@s.json", "--methods", "lr", "--reps", "100",
                "--out", "@s.json",
            ],
            "--out and --scenario-file", id="power-out-is-scenario-file",
        ),
    ])
    def test_clash_exits_2_before_any_work(self, tmp_path, capsys, no_work, files, argv, flags):
        for name, text in files.items():
            (tmp_path / name).write_text(text())
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        # "@name" stands for the file of that name in tmp_path
        assert main([str(tmp_path / arg[1:]) if arg[0] == "@" else arg for arg in argv]) == 2
        assert f"{flags} must be different files" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("argv,blocked", [
        pytest.param(
            ["analyze", "--data", "@x.csv", "--out", "@r.json"], "r.json.manifest.json",
            id="analyze-manifest",
        ),
        pytest.param(
            ["analyze", "--data", "@x.csv", "--out", "@r.json"], "r.json", id="analyze-out",
        ),
        pytest.param(
            ["simulate", "--scenario", "high_ph", "--out", "@out.csv"], "out.csv.manifest.json",
            id="simulate-manifest",
        ),
        pytest.param(
            ["power", "--scenario", "high_ph", "--methods", "lr", "--reps", "100",
             "--out", "@p.csv", "--json", "@p.json"], "p.csv.manifest.json",
            id="power-manifest",
        ),
        pytest.param(
            ["power", "--scenario", "high_ph", "--methods", "lr", "--reps", "100",
             "--out", "@p.csv", "--json", "@p.json"], "p.json",
            id="power-json",
        ),
        pytest.param(
            ["assurance", "--in", "@x.csv", "--prior", "high_ph:1.0", "--out", "@a.json"],
            "a.json.manifest.json", id="assurance-manifest",
        ),
    ])
    def test_output_that_is_a_directory_exits_3_before_any_work(
        self, tmp_path, capsys, no_work, argv, blocked
    ):
        """Without the check the other outputs were replaced before the write failed."""
        (tmp_path / "x.csv").write_text(EXAMPLE_TRIAL.read_text())
        outputs = [arg[1:] for arg in argv[argv.index("--out"):] if arg[0] == "@"]
        for name in outputs:
            (tmp_path / name).write_text("old\n")
        (tmp_path / blocked).unlink(missing_ok=True)
        (tmp_path / blocked).mkdir()

        def files():
            return {p.name: p.is_dir() or p.read_bytes() for p in tmp_path.iterdir()}

        before = files()
        assert main([str(tmp_path / arg[1:]) if arg[0] == "@" else arg for arg in argv]) == 3
        assert f"{tmp_path / blocked}: is a directory" in capsys.readouterr().err
        assert files() == before

    @pytest.mark.parametrize("argv,blocked", [
        pytest.param(["analyze", "--data", "@x.csv", "--out", "@r.json"], "r.json", id="analyze-out"),
        pytest.param(
            ["power", "--scenario", "high_ph", "--methods", "lr", "--reps", "100",
             "--out", "@p.csv", "--json", "@p.json"], "p.csv",
            id="power-out",
        ),
        pytest.param(
            ["power", "--scenario", "high_ph", "--methods", "lr", "--reps", "100",
             "--out", "@p.csv", "--json", "@p.json"], "p.csv.manifest.json",
            id="power-manifest",
        ),
    ])
    def test_output_that_is_a_fifo_exits_3_before_any_work(
        self, tmp_path, capsys, no_work, argv, blocked
    ):
        """Without the check the FIFO was replaced by a plain file. Only stat
        touches the FIFO here: opening it would block."""
        (tmp_path / "x.csv").write_text(EXAMPLE_TRIAL.read_text())
        outputs = [arg[1:] for arg in argv[argv.index("--out"):] if arg[0] == "@"]
        for name in outputs:
            (tmp_path / name).write_text("old\n")
        (tmp_path / blocked).unlink(missing_ok=True)
        os.mkfifo(tmp_path / blocked)

        def files():
            return {p.name: p.is_fifo() or p.read_bytes() for p in tmp_path.iterdir()}

        before = files()
        assert main([str(tmp_path / arg[1:]) if arg[0] == "@" else arg for arg in argv]) == 3
        assert f"{tmp_path / blocked}: is not a regular file" in capsys.readouterr().err
        assert stat.S_ISFIFO(os.stat(tmp_path / blocked).st_mode)
        assert files() == before

    @pytest.mark.parametrize("command", [
        ["analyze", "--data", "@x.csv"],
        ["simulate", "--scenario", "high_ph"],
        ["assurance", "--in", "@x.csv", "--prior", "high_ph:1.0"],
    ])
    def test_missing_output_directory_exits_3_before_any_work(
        self, tmp_path, capsys, no_work, command
    ):
        (tmp_path / "x.csv").write_text(EXAMPLE_TRIAL.read_text())
        out = tmp_path / "missing" / "out"
        argv = [str(tmp_path / arg[1:]) if arg[0] == "@" else arg for arg in command]
        assert main([*argv, "--out", str(out)]) == 3
        assert f"{out}: no such directory" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]

    @pytest.mark.parametrize("command,suffix", [
        (["analyze", "--data", "@x.csv"], ".json"),
        (["power", "--scenario", "high_ph", "--methods", "lr", "--reps", "100",
          "--json", "@p.json"], ".csv"),
    ])
    def test_name_too_long_exits_3_before_any_work(
        self, tmp_path, capsys, no_work, command, suffix
    ):
        """A 250-byte output name leaves its manifest's name over the 255-byte limit."""
        out = tmp_path / ("r" * 245 + suffix)
        for path in (tmp_path / "x.csv", tmp_path / "p.json", out):
            path.write_text("old\n")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        argv = [str(tmp_path / arg[1:]) if arg[0] == "@" else arg for arg in command]
        assert main([*argv, "--out", str(out)]) == 3
        assert os.strerror(errno.ENAMETOOLONG) in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_a_link_to_an_input_is_the_input(self, tmp_path, capsys, no_work):
        data, link = tmp_path / "x.csv", tmp_path / "link.json"
        data.write_text(EXAMPLE_TRIAL.read_text())
        link.symlink_to(data)
        assert main(["analyze", "--data", str(data), "--out", str(link)]) == 2
        assert "--out and --data must be different files" in capsys.readouterr().err
        assert data.read_text() == EXAMPLE_TRIAL.read_text() and link.is_symlink()

    @pytest.mark.parametrize("command", [
        ["analyze", "--data", "@x.csv"],
        ["simulate", "--scenario", "high_ph"],
        ["power", "--scenario", "high_ph", "--methods", "lr", "--reps", "100"],
        ["assurance", "--in", "@x.csv", "--prior", "high_ph:1.0"],
    ])
    def test_a_link_into_a_missing_directory_exits_3_before_any_work(
        self, tmp_path, capsys, no_work, command
    ):
        """The link is followed as ``open(path, "w")`` would follow it."""
        (tmp_path / "x.csv").write_text(EXAMPLE_TRIAL.read_text())
        link = tmp_path / "link.out"
        link.symlink_to(tmp_path / "missing" / "out")
        argv = [str(tmp_path / arg[1:]) if arg[0] == "@" else arg for arg in command]
        assert main([*argv, "--out", str(link)]) == 3
        assert f"{link}: no such directory" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.out", "x.csv"]

    @pytest.mark.parametrize("argv", [
        pytest.param(["analyze", "--data", "@x.csv", "--out", ""], id="analyze"),
        pytest.param(["simulate", "--scenario", "high_ph", "--out", ""], id="simulate"),
        pytest.param(
            ["power", "--scenario", "high_ph", "--methods", "lr", "--reps", "100", "--out", ""],
            id="power",
        ),
        pytest.param(
            ["power", "--scenario", "high_ph", "--methods", "lr", "--reps", "100",
             "--out", "p.csv", "--json", ""],
            id="power-json",
        ),
        pytest.param(
            ["assurance", "--in", "@x.csv", "--prior", "high_ph:1.0", "--out", ""], id="assurance",
        ),
    ])
    def test_an_empty_output_path_exits_2_before_any_work(
        self, tmp_path, monkeypatch, capsys, no_work, argv
    ):
        """An empty path names no file: without the check, analyze wrote to stdout
        and power made its temp file in the parent of the working directory."""
        (tmp_path / "x.csv").write_text(EXAMPLE_TRIAL.read_text())
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert main([str(tmp_path / arg[1:]) if arg[:1] == "@" else arg for arg in argv]) == 2
        flag = argv[argv.index("") - 1]
        assert f"argument {flag}: an empty path names no file" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["work", "x.csv"]
        assert list(work.iterdir()) == []


class TestOutputFiles:
    @pytest.mark.parametrize("umask,existing,mode", [
        pytest.param(0o022, None, 0o644, id="umask-022"),
        pytest.param(0o077, None, 0o600, id="umask-077"),
        pytest.param(0o022, 0o640, 0o640, id="existing-0640"),
    ])
    def test_mode_is_that_of_open_for_writing(self, tmp_path, umask, existing, mode):
        """A new output gets 0o666 less the umask; a replaced one keeps its mode."""
        out = tmp_path / "trial.csv"
        if existing is not None:
            out.write_text("old\n")
            out.chmod(existing)
        code = (
            f"import os, sys; os.umask({umask}); from rmwtest import cli; "
            f"sys.exit(cli.main(['simulate', '--scenario', 'high_ph', '--out', {str(out)!r}]))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert stat.S_IMODE(out.stat().st_mode) == mode
        manifest = tmp_path / "trial.csv.manifest.json"
        assert stat.S_IMODE(manifest.stat().st_mode) == 0o666 & ~umask


# every command with --out onto files in tmp_path: "@name" is the file of that
# name, and the last item lists the outputs the command writes
ONE_COMMIT_COMMANDS = [
    pytest.param(
        ["analyze", "--data", "@x.csv", "--out", "@r.json"], ["r.json"], id="analyze",
    ),
    pytest.param(
        ["simulate", "--scenario", "high_ph", "--out", "@out.csv"], ["out.csv"], id="simulate",
    ),
    pytest.param(
        ["power", "--scenario", "high_ph", "--methods", "lr", "--reps", "100",
         "--out", "@p.csv", "--json", "@p.json"], ["p.csv", "p.json"], id="power",
    ),
    pytest.param(
        ["assurance", "--in", "@q.csv", "--prior", "high_ph:1.0", "--out", "@a.json"],
        ["a.json"], id="assurance",
    ),
]


@pytest.fixture
def run(tmp_path):
    """Run a command over the example trial and a power CSV in tmp_path."""
    (tmp_path / "x.csv").write_text(EXAMPLE_TRIAL.read_text())
    (tmp_path / "q.csv").write_text(POWER_HEADER + "high_ph,lr,0.5,0.05,100,0\n")
    return lambda argv: main([str(tmp_path / arg[1:]) if arg[0] == "@" else arg for arg in argv])


class TestOneCommit:
    """A command's outputs and manifest are all replaced, the manifest last, or none is."""

    @pytest.mark.parametrize("argv,outputs", ONE_COMMIT_COMMANDS)
    def test_a_manifest_that_cannot_be_written_replaces_nothing(
        self, tmp_path, monkeypatch, capsys, run, argv, outputs
    ):
        for name in outputs:
            (tmp_path / name).write_text("old\n")
            (tmp_path / (name + ".manifest.json")).write_text("old manifest\n")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        replacing = cli_module._replacing

        @contextlib.contextmanager
        def disk_full_at_manifest(path):
            with replacing(path) as tmp:
                if path.endswith(".manifest.json"):
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), tmp)
                yield tmp

        monkeypatch.setattr(cli_module, "_replacing", disk_full_at_manifest)
        assert run(argv) == 3
        assert os.strerror(errno.ENOSPC) in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("argv,outputs", ONE_COMMIT_COMMANDS)
    def test_all_files_are_written_before_any_moves_and_the_manifest_moves_last(
        self, tmp_path, monkeypatch, run, argv, outputs
    ):
        events = []
        mkstemp, replace = tempfile.mkstemp, os.replace

        def making(*args, **kwargs):
            events.append("temp file")
            return mkstemp(*args, **kwargs)

        def moving(src, dst):
            events.append(os.path.basename(dst))
            replace(src, dst)

        monkeypatch.setattr(tempfile, "mkstemp", making)
        monkeypatch.setattr(os, "replace", moving)
        assert run(argv) == 0
        made, moved = events[:len(outputs) + 1], events[len(outputs) + 1:]
        assert made == ["temp file"] * (len(outputs) + 1)
        assert sorted(moved[:-1]) == outputs
        assert moved[-1] == outputs[0] + ".manifest.json"

    @pytest.mark.parametrize("json_given,writers", [
        (False, ["--out", "--json"]), (True, ["--out"]), (False, ["--out", "--data"]),
    ])
    def test_the_writers_are_exactly_the_given_outputs(self, tmp_path, json_given, writers):
        """A writer for an output the pre-flight did not check, or a given output
        with no writer, is a programming error, and nothing is written."""
        argv = ["power", "--scenario", "high_ph", "--out", str(tmp_path / "p.csv")]
        ns = _build_parser().parse_args(argv + ["--json", str(tmp_path / "p.json")] * json_given)
        with pytest.raises(AssertionError):
            cli_module._write_file_atomic(ns, dict.fromkeys(writers, lambda path: None))
        assert list(tmp_path.iterdir()) == []


class TestLinkedOutputs:
    """An output that is a symbolic link is written through, as ``open(path, "w")``
    would write it: the link stays, and its target gets the result and keeps its mode."""

    @pytest.mark.parametrize("argv,outputs,linked", [
        pytest.param(*case.values, name, id=f"{case.id}-{name}")
        for case in ONE_COMMIT_COMMANDS for name in case.values[1]
    ])
    def test_the_link_stays_and_its_target_gets_the_result(
        self, tmp_path, run, argv, outputs, linked
    ):
        manifest = tmp_path / (outputs[0] + ".manifest.json")
        assert run(argv) == 0
        result = (tmp_path / linked).read_bytes()
        for name in outputs:
            (tmp_path / name).unlink()
        manifest.unlink()
        target = tmp_path / "elsewhere" / "target"
        target.parent.mkdir()
        target.write_text("old\n")
        target.chmod(0o640)
        (tmp_path / linked).symlink_to(Path("elsewhere") / "target")

        assert run(argv) == 0
        assert (tmp_path / linked).is_symlink()
        assert target.read_bytes() == result
        assert stat.S_IMODE(target.stat().st_mode) == 0o640
        assert json.loads(manifest.read_text())["outputs"] == [str(tmp_path / name) for name in outputs]
        assert [p.name for p in target.parent.iterdir()] == ["target"]
        assert not [p.name for p in tmp_path.iterdir() if p.name.startswith(".rmwtest-")]


class TestAssurance:
    @pytest.fixture
    def power_csv(self, tmp_path):
        path = tmp_path / "power.csv"
        write_power_csv(path, [
            OperatingCharacteristics("a", 1000, 0, {"LR": 0.8, "MW": 0.6}),
            OperatingCharacteristics("b", 1000, 0, {"LR": 0.2, "MW": 0.4}),
        ])
        return path

    def test_all_methods(self, power_csv, capsys):
        assert main([
            "assurance", "--in", str(power_csv), "--prior", "a:0.5,b:0.5",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["assurance"] == {"LR": 0.5, "MW": 0.5}
        assert payload["prior"] == {"a": 0.5, "b": 0.5}

    def test_single_method_to_file(self, power_csv, tmp_path):
        out = tmp_path / "assurance.json"
        assert main([
            "assurance", "--in", str(power_csv), "--prior", "a:0.75,b:0.25",
            "--method", "LR", "--out", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        assert payload["assurance"] == {"LR": pytest.approx(0.65)}
        assert (tmp_path / "assurance.json.manifest.json").exists()

    def test_bad_prior_grammar_exits_2(self, power_csv, capsys):
        assert main([
            "assurance", "--in", str(power_csv), "--prior", "a-0.5",
        ]) == 2
        # 'a-0.5' is one word, a scenario name; the ':' after it is missing
        assert "offset 5: expected ':'" in capsys.readouterr().err

    def test_prior_must_sum_to_one(self, power_csv, capsys):
        assert main([
            "assurance", "--in", str(power_csv), "--prior", "a:0.5,b:0.6",
        ]) == 2

    def test_unknown_scenario_in_prior_exits_2(self, power_csv, capsys):
        assert main([
            "assurance", "--in", str(power_csv), "--prior", "zzz:1.0",
        ]) == 2
        assert "missing scenario" in capsys.readouterr().err

    def test_conflicting_replicates_and_seed_exit_3(self, tmp_path, capsys):
        path = tmp_path / "power.csv"
        path.write_text(
            "scenario,method,rejection_rate,mc_standard_error,replicates,seed\n"
            "high_ph,LR,0.5,0.0158,1000,0\n"
            "high_ph,MW,0.6,0.0346,200,7\n"
        )
        assert main(["assurance", "--in", str(path), "--prior", "high_ph:1.0"]) == 3
        assert ":3:" in capsys.readouterr().err

    @pytest.mark.parametrize("replicates", ["0", "-5"])
    def test_nonpositive_replicates_exit_3(self, tmp_path, capsys, replicates):
        path = tmp_path / "power.csv"
        path.write_text(
            "scenario,method,rejection_rate,mc_standard_error,replicates,seed\n"
            f"high_ph,LR,0.5,0.0,{replicates},0\n"
        )
        assert main(["assurance", "--in", str(path), "--prior", "high_ph:1.0"]) == 3
        assert ":2: replicates must be >= 1" in capsys.readouterr().err

    def test_scenarios_with_different_methods_exit_3(self, tmp_path, capsys):
        path = tmp_path / "power.csv"
        write_power_csv(path, [
            OperatingCharacteristics("a", 1000, 0, {"LR": 0.8}),
            OperatingCharacteristics("b", 1000, 0, {"MW": 0.4}),
        ])
        assert main(["assurance", "--in", str(path), "--prior", "a:0.5,b:0.5"]) == 3
        assert "scenario 'a' has no row for method 'MW'" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["all", "LR"])
    def test_header_only_power_csv_exits_3(self, tmp_path, capsys, method):
        path = tmp_path / "power.csv"
        write_power_csv(path, [])
        assert main([
            "assurance", "--in", str(path), "--prior", "a:1.0", "--method", method,
        ]) == 3
        assert "no rows" in capsys.readouterr().err

    def test_byte_order_mark_accepted(self, tmp_path, capsys):
        path = tmp_path / "power.csv"
        path.write_bytes(b"\xef\xbb\xbf" + (POWER_HEADER + "high_ph,LR,0.5,0.0,1000,0\n").encode())
        assert main(["assurance", "--in", str(path), "--prior", "high_ph:1.0"]) == 0
        assert json.loads(capsys.readouterr().out)["assurance"] == {"LR": 0.5}

    @pytest.mark.parametrize("command", ["analyze", "assurance"])
    def test_file_that_is_not_utf8_exits_3(self, tmp_path, capsys, command):
        path = tmp_path / "input.csv"
        path.write_bytes(b"time,event,arm\n1.0,1,0\xe9\n")
        argv = {
            "analyze": ["analyze", "--data", str(path)],
            "assurance": ["assurance", "--in", str(path), "--prior", "a:1.0"],
        }[command]
        assert main(argv) == 3
        assert f"error: {path}: 'utf-8' codec can't decode" in capsys.readouterr().err

    def test_missing_power_csv_exits_3(self, tmp_path):
        assert main([
            "assurance", "--in", str(tmp_path / "none.csv"), "--prior", "a:1.0",
        ]) == 3


class TestNumberSyntax:
    """Every number in every input has one syntax, that of float() and int()
    without digit-group underscores or non-ASCII digits. A bad number in a
    file exits 3; in an option or a spec string it exits 2."""

    @pytest.mark.parametrize("argv,data,code", [
        pytest.param(
            ["analyze", "--data", "{data}"], example_trial_with_first_time("\u0661\u0660"),
            3, id="csv-time-arabic-indic",
        ),
        pytest.param(
            ["assurance", "--in", "{data}", "--prior", "high_ph:1.0"],
            POWER_HEADER + "high_ph,LR,0.5,0.0,1_000,0\n", 3, id="power-csv-underscore",
        ),
        pytest.param(
            ["assurance", "--in", "{data}", "--prior", "high_ph:1.0"],
            POWER_HEADER + "high_ph,LR,0.5,0.0,\u0661\u0660\u0660,0\n", 3,
            id="power-csv-arabic-indic",
        ),
        pytest.param(
            ["analyze", "--data", str(EXAMPLE_TRIAL), "--test", "mw(\u0660.5)"], None, 2,
            id="spec-arabic-indic",
        ),
        pytest.param(
            ["analyze", "--data", str(EXAMPLE_TRIAL), "--alpha", "0.0_25"], None, 2,
            id="alpha-underscore",
        ),
        pytest.param(
            ["simulate", "--scenario", "high_ph", "--seed", "1_0", "--out", "{out}"], None, 2,
            id="seed-underscore",
        ),
        pytest.param(
            ["simulate", "--scenario", "high_ph", "--seed", "\u0661", "--out", "{out}"],
            None, 2, id="seed-arabic-indic",
        ),
        pytest.param(
            ["power", "--scenario", "high_equal", "--methods", "lr", "--reps", "1_00",
             "--out", "{out}"], None, 2, id="reps-underscore",
        ),
        pytest.param(
            ["assurance", "--in", "{data}", "--prior", "high_ph:\u0661"],
            POWER_HEADER + "high_ph,LR,0.5,0.0,1000,0\n", 2, id="prior-arabic-indic",
        ),
        # a worker count that float/int would read as 1, so no pool starts either way
        *(
            pytest.param(
                ["power", "--scenario", "high_equal", "--methods", "lr", "--reps", "100",
                 "--workers", value, "--out", "{out}"], None, 2, id=f"workers-option-{name}",
            )
            for value, name in (("0_1", "underscore"), ("\u0661", "arabic-indic"))
        ),
    ])
    def test_rejected(self, tmp_path, capsys, argv, data, code):
        data_path, out = tmp_path / "input.csv", tmp_path / "out.csv"
        if data is not None:
            data_path.write_text(data, encoding="utf-8")
        assert main([a.format(data=data_path, out=out) for a in argv]) == code
        assert "not a number: " in capsys.readouterr().err
        assert not out.exists()

    def test_every_numeric_option_reads_through_parse_number(self):
        """A numeric option declared with type=int or type=float would skip the
        one number syntax (int reads '1_0' as 10)."""

        def actions(parser):
            for action in parser._actions:
                yield action
                if isinstance(action, argparse._SubParsersAction):
                    for sub in action.choices.values():
                        yield from actions(sub)

        found = list(actions(_build_parser()))
        assert {"seed", "replicate", "reps", "alpha", "workers"} <= {a.dest for a in found}
        assert [a.dest for a in found if a.type in (int, float)] == []


class TestTopLevel:
    def test_version_exits_0(self, capsys):
        assert main(["--version"]) == 0
        assert "rmwtest" in capsys.readouterr().out

    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2


# ---------------------------------------------------------------------------
# the exit-code contract as a property: inputs are strings of grammar words and
# junk; a Path in an argv stands for the file of that name in a temp directory

NUMBER_WORDS = ["0", "0.5", "1", "-1", "2", "1e-300", "1e300", "nan", "inf", "-0", "1_0", "١", "0x1", ".5"]
SPEC_WORDS = [
    "lr", "mw", "fh", "max", "rmw", "paper6", "k1", "alpha", "s*", "rho", "gamma", "all", "a", "b",
    *BUILTIN_SCENARIOS, *"(),;=:", " ", *NUMBER_WORDS,
]
VALID_WEIGHTS = ["lr", "mw(0.5)", "mw(s*=0.25)", "fh(0,0.5)", "fh(rho=1,gamma=0)"]
VALID_TESTS = st.one_of(
    st.sampled_from(["rmw", *VALID_WEIGHTS]),
    st.builds(
        "max({},{};k1={!r},alpha={!r})".format, st.sampled_from(VALID_WEIGHTS),
        st.sampled_from(VALID_WEIGHTS), st.floats(0.5, 0.99), st.floats(1e-6, 0.4999),
    ),
)


def junk(words):
    """Strings made of ``words`` and short arbitrary text."""
    return st.lists(st.one_of(st.sampled_from(words), st.text(max_size=3)), max_size=8).map("".join)


def tagged(valid, invalid):
    """(value, True) drawn from ``valid`` or (value, False) drawn from ``invalid``."""
    return st.one_of(valid.map(lambda v: (v, True)), invalid.map(lambda v: (v, False)))


def csv_text(header, fields, width):
    rows = st.lists(st.lists(st.one_of(st.sampled_from(fields), st.text(max_size=3)),
                             min_size=width - 1, max_size=width + 1), max_size=6)
    return st.tuples(st.sampled_from([header, "time,event", "x", ""]), rows).map(
        lambda t: ("\n".join([t[0], *map(",".join, t[1])]) + "\n").encode("utf-8", "surrogatepass")
    )


# a scenario of at most 40 subjects, so that a power run of 100 replicates is quick
HAZARDS = st.integers(0, 2).flatmap(lambda k: st.fixed_dictionaries({
    "knots": st.lists(st.floats(0.1, 30.0), min_size=k, max_size=k, unique=True).map(sorted),
    "rates": st.lists(st.floats(0.001, 1.0), min_size=k + 1, max_size=k + 1),
}))
TINY_SCENARIOS = st.builds(
    lambda half, length, share, arm0, arm1: {
        "name": "tiny", "n_total": 2 * half, "study_length": length,
        "recruit_duration": length * share, "arm0": arm0, "arm1": arm1,
    },
    st.integers(1, 20), st.floats(1.0, 60.0), st.floats(0.01, 1.0), HAZARDS, HAZARDS,
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def broken(scenario):
    """``scenario`` as JSON with a field dropped or replaced, or cut short."""
    text = json.dumps(scenario)
    return st.one_of(
        st.sampled_from(list(scenario)).map(lambda k: {f: v for f, v in scenario.items() if f != k}),
        st.tuples(st.sampled_from(list(scenario)), JSON_VALUES).map(lambda kv: {**scenario, kv[0]: kv[1]}),
        st.tuples(st.sampled_from(["arm0", "arm1"]), st.sampled_from(["knots", "rates"]), JSON_VALUES).map(
            lambda t: {**scenario, t[0]: {**scenario[t[0]], t[1]: t[2]}}
        ),
    ).map(json.dumps).map(str.encode) | st.integers(0, len(text)).map(lambda i: text[:i].encode())


SCENARIO_FILES = tagged(
    TINY_SCENARIOS.map(lambda s: json.dumps(s).encode()),
    st.one_of(TINY_SCENARIOS.flatmap(broken), st.binary(max_size=20)),
)
VALID_POWER_CSV = (POWER_HEADER + "a,LR,0.5,0.05,100,0\na,MW,0.25,0.04,100,0\n"
                   "b,LR,0.75,0.04,100,0\nb,MW,0.5,0.05,100,0\n")

ANALYZE = st.builds(
    lambda data, test, alpha, out: (
        ["analyze", "--data", Path("x.csv"), "--test", test[0], *alpha[0], *out],
        {"x.csv": data[0]}, data[1] and test[1] and alpha[1],
    ),
    tagged(st.just(EXAMPLE_TRIAL.read_bytes()), csv_text("time,event,arm", NUMBER_WORDS + ["", "x"], 3)),
    tagged(VALID_TESTS, junk(SPEC_WORDS)),
    tagged(st.just([]) | st.floats(1e-6, 0.4999).map(lambda a: ["--alpha", repr(a)]),
           junk(NUMBER_WORDS).map(lambda text: ["--alpha", text])),
    st.sampled_from([[], ["--out", Path("r.json")]]),
)
SIMULATE = st.one_of(
    st.builds(
        lambda name: (["simulate", "--scenario", name[0], "--out", Path("t.csv")], {}, name[1]),
        tagged(st.sampled_from(list(BUILTIN_SCENARIOS)), junk(SPEC_WORDS)),
    ),
    st.builds(
        lambda scenario, seed: (
            ["simulate", "--scenario-file", Path("s.json"), "--seed", seed[0], "--out", Path("t.csv")],
            {"s.json": scenario[0]}, scenario[1] and seed[1],
        ),
        SCENARIO_FILES, tagged(st.integers(0, 2**64 - 1).map(str), junk(NUMBER_WORDS)),
    ),
)
POWER = st.builds(
    lambda scenario, methods, json_out: (
        ["power", "--scenario-file", Path("s.json"), "--methods", methods[0], "--reps", "100",
         "--out", Path("p.csv"), *json_out],
        {"s.json": scenario[0]}, scenario[1] and methods[1],
    ),
    SCENARIO_FILES, tagged(st.just("paper6") | VALID_TESTS, junk(SPEC_WORDS)),
    st.sampled_from([[], ["--json", Path("p.json")]]),
)
ASSURANCE = st.builds(
    lambda table, prior, method, out: (
        ["assurance", "--in", Path("q.csv"), "--prior", prior[0], "--method", method[0], *out],
        {"q.csv": table[0]}, table[1] and prior[1] and method[1],
    ),
    tagged(st.just(VALID_POWER_CSV.encode()),
           csv_text(POWER_HEADER.strip(), ["a", "b", "LR", "MW", *NUMBER_WORDS, "100", ""], 6)),
    tagged(st.sampled_from(["a:1.0", "b:1", "a:0.5,b:0.5", "a:0.25,b:0.75"]), junk(SPEC_WORDS)),
    tagged(st.sampled_from(["all", "LR", "MW"]), st.text(max_size=4)),
    st.sampled_from([[], ["--out", Path("a.json")]]),
)


class TestExitCodeContract:
    """Any input exits 0, 2, 3 or 4; a failure ends in one ``error:`` line with
    no traceback; and input generated valid exits 0."""

    @settings(max_examples=200, deadline=None)
    @given(case=st.one_of(ANALYZE, SIMULATE, POWER, ASSURANCE))
    def test_every_input_exits_with_a_documented_code(self, case):
        argv, files, valid = case
        err = io.StringIO()
        # tmp_path is made once per test, not once per example
        with tempfile.TemporaryDirectory() as tmp:
            for name, content in files.items():
                Path(tmp, name).write_bytes(content)
            argv = [str(Path(tmp, arg)) if isinstance(arg, Path) else arg for arg in argv]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (0, 2, 3, 4)
        if code:
            assert "Traceback" not in err.getvalue()
            assert "error:" in err.getvalue().splitlines()[-1]
        assert code == 0 or not valid, err.getvalue()
