"""Command-line front door: analyze a dataset, simulate a trial, run the
Monte Carlo power harness, or summarize assurance from a power table.

Every subcommand is a thin composition of library calls. File outputs are
written atomically, with the mode ``open(path, "w")`` would give, and
accompanied by a ``<output>.manifest.json`` with the config echo, library
versions, and a timestamp; result files themselves contain no timestamps
so identical runs are byte-identical.

Exit codes: 0 success, 2 usage/grammar, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import platform
import re
import stat
import sys
import tempfile
import time
from dataclasses import asdict, replace
from datetime import datetime, timezone

import numpy as np
import scipy

from . import __version__
from .combo import ComboResult, ComboSpec, run_combo_test
from .dataset import (
    SPEC_PUNCTUATION, SPEC_WORD, build_risk_table, parse_number, read_survival_csv, write_survival_csv,
)
from .errors import DataError, GrammarError, NumericalError
from .harness import (
    RMW,
    AssuranceSpec,
    MethodSpec,
    _block_count,
    _pool_size,
    _worker_pool,
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
    Scenario,
    get_scenario,
    read_scenario,
    scenario_hash,
    simulate_trial,
)
from .weights import WeightSpec

_EXIT_CODES = ((GrammarError, 2), (DataError, 3), (NumericalError, 4), (ValueError, 2), (OSError, 3))


# ---------------------------------------------------------------------------
# spec grammar: weights, methods and priors


_TOKEN_RE = re.compile(f"[{re.escape(SPEC_PUNCTUATION)}]|{SPEC_WORD}")


class _Tokens:
    """A spec string as punctuation ``( ) , ; = :`` and words, each with its
    offset; the token ``""`` at offset ``len(text)`` ends the list."""

    def __init__(self, text: str):
        self.items = [(m.group(), m.start()) for m in _TOKEN_RE.finditer(text)]
        self.items.append(("", len(text)))
        self.i = 0

    def peek(self) -> tuple[str, int]:
        return self.items[self.i]

    def accept(self, punct: str) -> bool:
        found = self.items[self.i][0] == punct
        self.i += found
        return found

    def expect(self, punct: str, what: str = "") -> int:
        at = self.items[self.i][1]
        if not self.accept(punct):
            raise self.error(what or repr(punct))
        return at

    def word(self, what: str) -> tuple[str, int]:
        token = self.items[self.i]
        if token[0] in SPEC_PUNCTUATION:  # the end token "" is in every string
            raise self.error(what)
        self.i += 1
        return token

    def error(self, what: str) -> GrammarError:
        token, at = self.items[self.i]
        got = repr(token) if token else "end of input"
        return GrammarError(f"offset {at}: expected {what}, got {got}")


def _number(word: str, at: int) -> float:
    try:
        return parse_number(word, float)
    except ValueError as exc:
        raise GrammarError(f"offset {at}: {exc}") from None


_WEIGHT_FAMILIES = {  # name -> (constructor, parameter names by position)
    "constant": (WeightSpec.constant, ()),
    "lr": (WeightSpec.constant, ()),
    "mw": (WeightSpec.modest, ("s*",)),
    "fh": (WeightSpec.fleming_harrington, ("rho", "gamma")),
}


def _weight(tokens: _Tokens) -> WeightSpec:
    name, at = tokens.word("a weight family")
    family = name.lower()
    if family not in _WEIGHT_FAMILIES:
        raise GrammarError(
            f"offset {at}: unknown weight family {family!r} "
            f"(expected one of {sorted(_WEIGHT_FAMILIES)})"
        )
    make, names = _WEIGHT_FAMILIES[family]
    args_at = tokens.peek()[1]
    values: list[float] = []
    if tokens.accept("("):
        args_at += 1
        while not tokens.accept(")"):
            if values:
                tokens.expect(",", "',' or ')'")
            word, at = tokens.word("a number")
            if tokens.accept("="):
                if len(values) < len(names) and word != names[len(values)]:
                    raise GrammarError(
                        f"offset {at}: parameter {len(values) + 1} of {family} is "
                        f"{names[len(values)]!r}, got {word!r}"
                    )
                word, at = tokens.word("a number")
            values.append(_number(word, at))
    if len(values) != len(names):
        raise GrammarError(
            f"offset {args_at}: {family} takes {len(names)} parameter(s), got {len(values)}"
        )
    try:
        return make(*values)
    except ValueError as exc:
        raise GrammarError(f"offset {args_at}: {exc}") from None


# the grammar's keywords; a keyword for one method labels it with the input text
_KEYWORDS = {
    "paper6": lambda label: list(paper_methods()),
    "rmw": lambda label: [MethodSpec(label, RMW)],
}


def parse_method_grammar(text: str) -> list[MethodSpec]:
    """One method string -> a one-item list; the keyword ``paper6`` -> six.

    Accepts single-test shorthands (``lr``, ``mw(0.5)``, ``fh(0,0.5)``), the
    keyword ``rmw`` for ``max(lr,mw(0.5))``, and the combination form
    ``max(<w1>,<w2>;k1=<real>,alpha=<real>)`` whose optional parameters
    default to those of ``ComboSpec``. The label is the stripped input
    text. Errors carry the byte offset of the problem.
    """
    tokens = _Tokens(text)
    head = tokens.peek()[0].lower()
    if head in _KEYWORDS:
        tokens.word(head)
        methods = _KEYWORDS[head](text.strip())
    elif head == "max":
        tokens.word(head)
        open_at = tokens.expect("(")
        weights = [_weight(tokens)]
        while tokens.accept(","):
            weights.append(_weight(tokens))
        if len(weights) != 2:
            raise GrammarError(
                f"offset {open_at + 1}: max takes exactly 2 component tests, got {len(weights)}"
            )
        params: dict[str, float] = {}
        while tokens.accept("," if params else ";"):
            key, at = tokens.word("'k1=<real>' or 'alpha=<real>'")
            if key not in ("k1", "alpha"):
                raise GrammarError(f"offset {at}: unknown parameter {key!r}")
            if key in params:
                raise GrammarError(f"offset {at}: duplicate parameter {key!r}")
            tokens.expect("=")
            params[key] = _number(*tokens.word("a number"))
        tokens.expect(")")
        try:
            combo = ComboSpec(*weights, **params)
        except ValueError as exc:
            raise GrammarError(f"offset {open_at + 1}: {exc}") from None
        methods = [MethodSpec(label=text.strip(), combo=combo)]
    else:
        w = _weight(tokens)
        methods = [MethodSpec(label=text.strip(), combo=ComboSpec(w, w, k1=1.0))]
    tokens.expect("", "end of input")
    return methods


def _parse_prior(text: str) -> AssuranceSpec:
    """``<scenario>:<weight>,...`` -> AssuranceSpec."""
    tokens = _Tokens(text)
    prior: dict[str, float] = {}
    while not prior or tokens.accept(","):
        name, at = tokens.word("'<scenario>:<weight>'")
        if name in prior:
            raise GrammarError(f"offset {at}: duplicate scenario {name!r}")
        tokens.expect(":")
        prior[name] = _number(*tokens.word("a number"))
    tokens.expect("", "end of input")
    try:
        return AssuranceSpec(prior)
    except ValueError as exc:
        raise GrammarError(str(exc)) from None


# ---------------------------------------------------------------------------
# output plumbing


def _directory(path: str) -> str:
    """The directory an output goes in; a missing one is a DataError naming ``path``."""
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise DataError(f"{path}: no such directory for the output")
    return directory


@contextlib.contextmanager
def _replacing(path: str):
    """Yield a temp file beside ``path``, moved onto ``path`` when the block ends
    without an error and removed when it does not.

    The file gets the mode ``open(path, "w")`` would leave: that of the file
    it replaces, or 0o666 less the umask for a new one.
    """
    fd, tmp = tempfile.mkstemp(dir=_directory(path), prefix=".rmwtest-")
    os.close(fd)
    try:
        try:
            mode = stat.S_IMODE(os.stat(path).st_mode)
        except FileNotFoundError:
            umask = os.umask(0)  # the one way to read it; set it straight back
            os.umask(umask)
            mode = 0o666 & ~umask
        os.chmod(tmp, mode)
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_atomic(path: str, text: str) -> None:
    with _replacing(path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_file_atomic(writers: dict) -> None:
    """Run each path-taking writer against a temp file beside its path; move
    the files into place only once every writer has finished."""
    with contextlib.ExitStack() as stack:
        for path, write in writers.items():
            write(stack.enter_context(_replacing(path)))


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


def _check_outputs(ns: argparse.Namespace) -> None:
    """GrammarError unless every output file, the manifest among them, differs
    from every other output and from every input, compared by real path;
    then DataError if an output's directory is missing or the output is a
    directory.

    Commands write their outputs only after all their work, so an output
    that is also an input would replace that input with no error at all,
    and an output that cannot be written would fail only after the others
    had replaced their files.
    """
    outputs = [(f"--{flag}", getattr(ns, flag, None)) for flag in ("out", "json")]
    outputs = [(flag, path) for flag, path in outputs if path]
    if getattr(ns, "out", None):
        outputs.append(("the manifest", ns.out + ".manifest.json"))
    inputs = [("--data", getattr(ns, "data", None)), ("--in", getattr(ns, "input", None))]
    inputs += [("--scenario-file", path) for path in getattr(ns, "scenario_file", None) or []]
    inputs = [(flag, path) for flag, path in inputs if path]
    for i, (flag, path) in enumerate(outputs):
        for other_flag, other in outputs[i + 1:] + inputs:
            if os.path.realpath(path) == os.path.realpath(other):
                raise GrammarError(
                    f"{flag} and {other_flag} must be different files: {path} and {other}"
                )
    for _, path in outputs:
        _directory(path)
        if os.path.isdir(path):
            raise DataError(f"{path}: is a directory, not a file for the output")


def _result_payload(res: ComboResult) -> dict:
    # a single test has no second threshold, which JSON writes as null
    return {**asdict(res), "threshold2": None if math.isinf(res.threshold2) else res.threshold2}


# ---------------------------------------------------------------------------
# subcommands


def _cmd_analyze(ns: argparse.Namespace) -> int:
    methods = parse_method_grammar(ns.test)
    if len(methods) != 1:
        raise GrammarError("analyze needs a single test; 'paper6' is a method set")
    spec = methods[0].combo
    if ns.alpha is not None:
        spec = replace(spec, alpha=ns.alpha)
    table = build_risk_table(*read_survival_csv(ns.data))
    result = run_combo_test(spec, table)
    _emit(ns, json.dumps(_result_payload(result), indent=2) + "\n")
    return 0


def _scenarios(ns: argparse.Namespace) -> list[Scenario]:
    """Every ``--scenario`` (``all`` or names separated by ``,``), then every ``--scenario-file``."""
    scenarios = []
    for text in ns.scenario or []:
        tokens = _Tokens(text)
        names = []
        while not names or tokens.accept(","):
            names.append(tokens.word("a scenario name")[0])
        tokens.expect("", "end of input")
        scenarios.extend(map(get_scenario, BUILTIN_SCENARIOS if names == ["all"] else names))
    scenarios.extend(map(read_scenario, ns.scenario_file or []))
    if not scenarios:
        raise GrammarError("no scenarios given; use --scenario or --scenario-file")
    names = [s.name for s in scenarios]
    for name in names:
        if names.count(name) > 1:
            raise GrammarError(f"duplicate scenario name {name!r}; a run needs unique names")
    return scenarios


def _cmd_simulate(ns: argparse.Namespace) -> int:
    scenario, *more = _scenarios(ns)
    if more:
        raise GrammarError(f"simulate needs exactly one scenario, got {1 + len(more)}")
    columns = simulate_trial(scenario, ns.seed, ns.replicate)
    _write_file_atomic({ns.out: lambda p: write_survival_csv(p, *columns)})
    _write_manifest(
        ns.out, ns, [ns.out],
        {"scenario_hash": {scenario.name: scenario_hash(scenario)}},
    )
    return 0


def _cmd_power(ns: argparse.Namespace) -> int:
    methods = [m for text in ns.methods or ["paper6"] for m in parse_method_grammar(text)]
    scenarios = _scenarios(ns)
    outputs = [path for path in (ns.out, ns.json) if path]
    # one pool for the whole run, shut down before any output is written
    blocks = len(scenarios) * _block_count(ns.reps)
    ocs, seconds = [], {}
    with _worker_pool(ns.workers, blocks) as pool:
        for s in scenarios:
            start = time.perf_counter()
            ocs.append(estimate_power(s, methods, ns.reps, ns.seed, workers=ns.workers, pool=pool))
            seconds[s.name] = time.perf_counter() - start
    hashes = {s.name: scenario_hash(s) for s in scenarios}
    writers = {ns.out: lambda p: write_power_csv(p, ocs)}
    if ns.json:
        writers[ns.json] = lambda p: write_power_json(p, ocs, methods, hashes)
    _write_file_atomic(writers)
    _write_manifest(
        ns.out, ns, outputs,
        {
            "scenario_hash": hashes,
            "methods": [method_to_dict(m) for m in methods],
            "pool_workers": _pool_size(ns.workers, blocks),
            "scenario_seconds": seconds,
        },
    )
    return 0


def _cmd_assurance(ns: argparse.Namespace) -> int:
    prior = _parse_prior(ns.prior)
    ocs = read_power_csv(ns.input)
    labels = list(next(iter(ocs.values())).rates) if ns.method == "all" else [ns.method]
    values = {label: assurance(ocs, prior, label) for label in labels}
    payload = {"prior": prior.prior, "assurance": values}
    _emit(ns, json.dumps(payload, indent=2) + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser


def _option(kind: type):
    """argparse ``type`` that reads a number with ``parse_number``; argparse prints its message."""
    def read(text: str):
        try:
            return parse_number(text, kind)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return read


@functools.cache  # one parser per process; parse_args leaves it unchanged
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
        help="one test of the method grammar: 'rmw' (the default, 'max(lr,mw(0.5))'), 'lr', "
             "'mw(0.5)', 'fh(0,0.5)' or 'max(<w1>,<w2>;k1=...,alpha=...)'; not the set 'paper6'",
    )
    p.add_argument("--alpha", type=_option(float), default=None, help="one-sided level for any test (default: the test's own)")
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("simulate", help="write one simulated trial dataset as CSV")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--scenario", action="append", help=f"built-in name, one of: {', '.join(BUILTIN_SCENARIOS)}")
    group.add_argument("--scenario-file", action="append", help="scenario JSON file")
    p.add_argument("--seed", type=_option(int), default=0, help="master seed (default 0)")
    p.add_argument("--replicate", type=_option(int), default=0, help="replicate index (default 0)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("power", help="Monte Carlo rejection rates per scenario and method")
    p.add_argument(
        "--scenario", action="append", default=None,
        help="'all' or comma-separated built-in names (repeatable)",
    )
    p.add_argument("--scenario-file", action="append", default=None, help="additional scenario JSON (repeatable)")
    p.add_argument(
        "--methods", action="append", default=None,
        help="method grammar, 'rmw' or 'paper6' (repeatable; default paper6)",
    )
    p.add_argument("--reps", type=_option(int), default=10000, help="replicates per scenario (default 10000)")
    p.add_argument("--seed", type=_option(int), default=0, help="master seed (default 0)")
    p.add_argument(
        "--workers", type=_option(int), default=1,
        help="worker processes (default 1); does not affect results",
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
    try:
        ns = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        _check_outputs(ns)
        return ns.func(ns)
    except (ValueError, NumericalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # the first match wins; other ValueErrors are semantic config problems
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
