"""Command-line front door: analyze a dataset, simulate a trial, run the
Monte Carlo power harness, or summarize assurance from a power table.

Every subcommand is a thin composition of library calls. File outputs are
written atomically and accompanied by a ``<output>.manifest.json`` with
the config echo, library versions, and a timestamp; result files
themselves contain no timestamps so identical runs are byte-identical.

Exit codes: 0 success, 2 usage/grammar, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import sys
import tempfile
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np
import scipy

from . import __version__
from .combo import ComboResult, ComboSpec, run_combo_test
from .dataset import build_risk_table, read_survival_csv, write_survival_csv
from .errors import DataError, GrammarError, NumericalError
from .harness import (
    AssuranceSpec,
    MethodSpec,
    assurance,
    estimate_power,
    method_to_dict,
    paper_methods,
    read_power_csv,
    write_power_csv,
    write_power_json,
)
from .simulator import (
    BUILTIN_SCENARIOS,
    get_scenario,
    read_scenario,
    scenario_hash,
    simulate_trial,
)
from .weights import parse_weight_spec

WORKERS_ENV = "RMWTEST_WORKERS"
RMW_TEST = "max(lr,mw(0.5))"  # what `analyze --test rmw` runs


# ---------------------------------------------------------------------------
# method grammar


def _split_top_level(text: str, start: int, stop: int, seps: str) -> list[tuple[int, int]]:
    """(start, stop) spans of text[start:stop] split at depth-0 separators."""
    spans = []
    depth = 0
    piece_start = start
    for i in range(start, stop):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise GrammarError(f"offset {i}: unbalanced ')'")
        elif ch in seps and depth == 0:
            spans.append((piece_start, i))
            piece_start = i + 1
    spans.append((piece_start, stop))
    return spans


_PARAM_RE = re.compile(r"^\s*(?P<key>[A-Za-z_][A-Za-z_0-9]*)\s*=\s*(?P<value>\S+)\s*$")


def _parse_combo_grammar(text: str) -> MethodSpec:
    stripped = text.rstrip()
    open_at = text.find("(")
    if open_at < 0 or not stripped.endswith(")"):
        raise GrammarError(f"offset {len(stripped)}: expected 'max(<w1>,<w2>;k1=...,alpha=...)'")
    close_at = len(stripped) - 1
    halves = _split_top_level(text, open_at + 1, close_at, ";")
    if len(halves) > 2:
        raise GrammarError(f"offset {halves[2][0] - 1}: at most one ';' parameter block allowed")
    comp_spans = _split_top_level(text, halves[0][0], halves[0][1], ",")
    if len(comp_spans) != 2:
        raise GrammarError(
            f"offset {comp_spans[0][0]}: max takes exactly 2 component tests, got {len(comp_spans)}"
        )
    w1 = parse_weight_spec(text[comp_spans[0][0] : comp_spans[0][1]], offset=comp_spans[0][0])
    w2 = parse_weight_spec(text[comp_spans[1][0] : comp_spans[1][1]], offset=comp_spans[1][0])

    k1, alpha = 0.5, 0.025
    if len(halves) == 2:
        seen = set()
        for a, b in _split_top_level(text, halves[1][0], halves[1][1], ","):
            piece = text[a:b]
            m = _PARAM_RE.match(piece)
            if m is None:
                raise GrammarError(f"offset {a}: expected 'k1=<real>' or 'alpha=<real>', got {piece.strip()!r}")
            key = m.group("key")
            if key not in ("k1", "alpha"):
                raise GrammarError(f"offset {a + m.start('key')}: unknown parameter {key!r}")
            if key in seen:
                raise GrammarError(f"offset {a + m.start('key')}: duplicate parameter {key!r}")
            seen.add(key)
            try:
                value = float(m.group("value"))
            except ValueError:
                raise GrammarError(
                    f"offset {a + m.start('value')}: not a number: {m.group('value')!r}"
                ) from None
            if key == "k1":
                k1 = value
            else:
                alpha = value
    try:
        combo = ComboSpec(w1, w2, k1=k1, k2=1.0 - k1, alpha=alpha)
    except ValueError as exc:
        raise GrammarError(f"offset {open_at + 1}: {exc}") from None
    return MethodSpec(label=stripped.strip(), combo=combo)


def parse_method_grammar(text: str):
    """One method string -> MethodSpec; the keyword ``paper6`` -> list of six.

    Accepts single-test shorthands (``lr``, ``mw(0.5)``, ``fh(0,0.5)``) and
    the combination form ``max(<w1>,<w2>;k1=<real>,alpha=<real>)`` where the
    parameter block is optional (defaults k1=0.5, alpha=0.025). Errors carry
    the byte offset of the problem.
    """
    bare = text.strip()
    if bare.lower() == "paper6":
        return list(paper_methods())
    head = re.match(r"\s*([A-Za-z_][A-Za-z_0-9]*)", text)
    if head is not None and head.group(1).lower() == "max":
        return _parse_combo_grammar(text)
    w = parse_weight_spec(text)
    return MethodSpec(label=bare, combo=ComboSpec(w, w, k1=1.0, k2=0.0))


def _expand_methods(texts: list[str]) -> list[MethodSpec]:
    out: list[MethodSpec] = []
    for text in texts:
        parsed = parse_method_grammar(text)
        out.extend(parsed if isinstance(parsed, list) else [parsed])
    labels = [m.label for m in out]
    if len(set(labels)) != len(labels):
        dup = next(l for l in labels if labels.count(l) > 1)
        raise GrammarError(f"duplicate method label {dup!r}")
    return out


# ---------------------------------------------------------------------------
# output plumbing


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".rmwtest-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_file_atomic(path: str, write_fn) -> None:
    """Run a path-taking writer against a temp file, then move into place."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".rmwtest-")
    os.close(fd)
    try:
        write_fn(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_manifest(out_path: str, ns: argparse.Namespace, outputs: list[str], extra: dict | None = None) -> None:
    config = {k: v for k, v in sorted(vars(ns).items()) if k != "func"}
    manifest = {
        "tool": "rmwtest",
        "version": __version__,
        "subcommand": ns.func.__name__.removeprefix("_cmd_"),
        "config": config,
        "outputs": outputs,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
    }
    if extra:
        manifest.update(extra)
    _write_atomic(out_path + ".manifest.json", json.dumps(manifest, indent=2) + "\n")


def _emit(ns: argparse.Namespace, text: str, extra: dict | None = None) -> None:
    out = getattr(ns, "out", None)
    if out:
        _write_atomic(out, text)
        _write_manifest(out, ns, [out], extra)
    else:
        sys.stdout.write(text)


def _result_payload(res: ComboResult) -> dict:
    return {
        "z1": res.z1,
        "z2": res.z2,
        "correlation": res.correlation,
        "c": res.c,
        "threshold1": res.threshold1,
        "threshold2": None if math.isinf(res.threshold2) else res.threshold2,
        "reject": res.reject,
        "p_value": res.p_value,
    }


# ---------------------------------------------------------------------------
# subcommands


def _cmd_analyze(ns: argparse.Namespace) -> int:
    test = RMW_TEST if ns.test.strip().lower() == "rmw" else ns.test
    parsed = parse_method_grammar(test)
    if isinstance(parsed, list):
        raise GrammarError("analyze needs a single test; 'paper6' is a method set")
    spec = parsed.combo
    if ns.alpha is not None:
        spec = replace(spec, alpha=ns.alpha)
    table = build_risk_table(*read_survival_csv(ns.data))
    result = run_combo_test(spec, table)
    _emit(ns, json.dumps(_result_payload(result), indent=2) + "\n")
    return 0


def _resolve_scenario(ns: argparse.Namespace):
    if ns.scenario_file:
        return read_scenario(ns.scenario_file)
    return get_scenario(ns.scenario)


def _cmd_simulate(ns: argparse.Namespace) -> int:
    scenario = _resolve_scenario(ns)
    columns = simulate_trial(scenario, ns.seed, ns.replicate)
    _write_file_atomic(ns.out, lambda p: write_survival_csv(p, *columns))
    _write_manifest(
        ns.out, ns, [ns.out],
        {"scenario_hash": {scenario.name: scenario_hash(scenario)}},
    )
    return 0


def _resolve_workers(value) -> int:
    if value is None:
        value = os.environ.get(WORKERS_ENV, "1")
    try:
        workers = int(value)
    except (TypeError, ValueError):
        raise GrammarError(f"workers must be an integer, got {value!r}") from None
    if workers < 1:
        raise GrammarError(f"workers must be >= 1, got {workers}")
    return workers


def _cmd_power(ns: argparse.Namespace) -> int:
    methods = _expand_methods(ns.methods if ns.methods else ["paper6"])
    scenarios = []
    if ns.scenario:
        names = list(BUILTIN_SCENARIOS) if ns.scenario == "all" else [
            s.strip() for s in ns.scenario.split(",") if s.strip()
        ]
        scenarios.extend(get_scenario(name) for name in names)
    for path in ns.scenario_file or []:
        scenarios.append(read_scenario(path))
    if not scenarios:
        raise GrammarError("no scenarios given; use --scenario or --scenario-file")
    workers = _resolve_workers(ns.workers)
    ocs = [
        estimate_power(s, methods, ns.reps, ns.seed, workers=workers)
        for s in scenarios
    ]
    hashes = {s.name: scenario_hash(s) for s in scenarios}
    _write_file_atomic(ns.out, lambda p: write_power_csv(p, ocs))
    outputs = [ns.out]
    if ns.json:
        _write_file_atomic(ns.json, lambda p: write_power_json(p, ocs, methods, hashes))
        outputs.append(ns.json)
    _write_manifest(
        ns.out, ns, outputs,
        {"scenario_hash": hashes, "methods": [method_to_dict(m) for m in methods]},
    )
    return 0


_PRIOR_ITEM_RE = re.compile(r"^\s*(?P<name>[A-Za-z_][A-Za-z_0-9]*)\s*:\s*(?P<value>\S+)\s*$")


def _parse_prior(text: str) -> AssuranceSpec:
    prior: dict[str, float] = {}
    for a, b in _split_top_level(text, 0, len(text), ","):
        piece = text[a:b]
        m = _PRIOR_ITEM_RE.match(piece)
        if m is None:
            raise GrammarError(
                f"offset {a}: expected '<scenario>:<weight>', got {piece.strip()!r}"
            )
        name = m.group("name")
        if name in prior:
            raise GrammarError(f"offset {a + m.start('name')}: duplicate scenario {name!r}")
        try:
            prior[name] = float(m.group("value"))
        except ValueError:
            raise GrammarError(
                f"offset {a + m.start('value')}: not a number: {m.group('value')!r}"
            ) from None
    try:
        return AssuranceSpec(prior)
    except ValueError as exc:
        raise GrammarError(str(exc)) from None


def _cmd_assurance(ns: argparse.Namespace) -> int:
    prior = _parse_prior(ns.prior)
    ocs = read_power_csv(ns.input)
    if ns.method == "all":
        first = next(iter(ocs.values()), None)
        if first is None:
            raise DataError(f"{ns.input}: no rows")
        labels = list(first.rates)
    else:
        labels = [ns.method]
    values = {label: assurance(ocs, prior, label) for label in labels}
    payload = {"prior": prior.prior, "assurance": values}
    _emit(ns, json.dumps(payload, indent=2) + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmwtest",
        description=(
            "Weighted log-rank and max-combo tests for survival data under "
            "non-proportional hazards, with a trial simulator and Monte Carlo "
            "power harness."
        ),
    )
    parser.add_argument("--version", action="version", version=f"rmwtest {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("analyze", help="run one test on a time,event,arm CSV")
    p.add_argument("--data", required=True, help="input CSV with header time,event,arm")
    p.add_argument(
        "--test", default="rmw",
        help=f"'rmw' (shorthand for '{RMW_TEST}'), a single-test grammar like 'lr', "
             "'mw(0.5)', 'fh(0,0.5)', or 'max(<w1>,<w2>;k1=...,alpha=...)'",
    )
    p.add_argument("--alpha", type=float, default=None, help="one-sided level for any test (default 0.025)")
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("simulate", help="write one simulated trial dataset as CSV")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--scenario", help=f"built-in name, one of: {', '.join(BUILTIN_SCENARIOS)}")
    group.add_argument("--scenario-file", help="scenario JSON file")
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p.add_argument("--replicate", type=int, default=0, help="replicate index (default 0)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("power", help="Monte Carlo rejection rates per scenario and method")
    p.add_argument(
        "--scenario", default=None,
        help="'all', one built-in name, or a comma-separated list of names",
    )
    p.add_argument("--scenario-file", action="append", default=None, help="additional scenario JSON (repeatable)")
    p.add_argument(
        "--methods", action="append", default=None,
        help="method grammar or 'paper6' (repeatable; default paper6)",
    )
    p.add_argument("--reps", type=int, default=10000, help="replicates per scenario (default 10000)")
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p.add_argument(
        "--workers", default=None,
        help=f"worker processes (default ${WORKERS_ENV} or 1); does not affect results",
    )
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--json", default=None, help="also write a nested JSON report here")
    p.set_defaults(func=_cmd_power)

    p = sub.add_parser("assurance", help="prior-weighted average power from a power CSV")
    p.add_argument("--in", dest="input", required=True, help="power CSV produced by the power subcommand")
    p.add_argument(
        "--prior", required=True,
        help="comma-separated '<scenario>:<weight>' pairs; weights must sum to 1",
    )
    p.add_argument("--method", default="all", help="method label or 'all' (default all)")
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_assurance)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return ns.func(ns)
    except GrammarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:  # semantic config problems (bad scenario name, ...)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
