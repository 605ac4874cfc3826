"""Monte Carlo operating characteristics: power / type-I error for a set
of max-combo methods across scenarios, plus prior-weighted assurance.

Every method is evaluated on the same simulated dataset within a
replicate (common random numbers), so methods are comparable
decision-by-decision, not just rate-by-rate. Replicates are keyed
individually by (seed, replicate index); totals are sums of per-block
integer counts, so the result is identical for any worker count.
"""

from __future__ import annotations

import contextlib
import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .combo import ComboSpec, combo_reject, evaluate
from .dataset import _csv_rows, parse_number, risk_arrays
from .errors import DataError, NumericalError
from .simulator import Scenario, _stream_key
from .weights import WeightSpec

# perfbench/layers.py wraps these by their names in this module: it times the
# trial simulation through _trial_arrays, and resolves the other three here
# although evaluate makes those calls; they can go once it traces functions
from .combo import moment_arrays, statistic_from_arrays
from .simulator import simulate_trial as _trial_arrays
from .weights import weights_from_km_left

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class MethodSpec:
    """A labeled test; single tests are combos with k1 = 1."""

    label: str
    combo: ComboSpec

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("method label must be nonempty")


# the paper's robust test: max(lr, mw(0.5)) at an equal alpha split
RMW = ComboSpec(WeightSpec.constant(), WeightSpec.modest(0.5))


def paper_methods() -> tuple[MethodSpec, ...]:
    """The six benchmark methods.

    LR; MW with s*=0.5; the robust combinations of those two at equal and
    (0.6, 0.4) alpha splits; FH(0, 0.5); and the max-combo of LR with
    FH(0, 0.5) at an equal split. All one-sided at alpha = 0.025.
    """
    lr, mw = RMW.w1, RMW.w2
    fh = WeightSpec.fleming_harrington(0.0, 0.5)
    return (
        MethodSpec("LR", ComboSpec(lr, lr, k1=1.0)),
        MethodSpec("MW", ComboSpec(mw, mw, k1=1.0)),
        MethodSpec("rMW(k1=0.5)", RMW),
        MethodSpec("rMW(k1=0.6)", replace(RMW, k1=0.6)),
        MethodSpec("FH", ComboSpec(fh, fh, k1=1.0)),
        MethodSpec("MaxCombo", ComboSpec(lr, fh)),
    )


@dataclass(frozen=True)
class OperatingCharacteristics:
    """Per-method rejection rates for one scenario's Monte Carlo run."""

    scenario: str
    replicates: int
    seed: int
    rates: Mapping[str, float] = field(default_factory=dict)
    degenerate: int = 0

    def standard_error(self, label: str) -> float:
        p = self.rates[label]
        return math.sqrt(p * (1.0 - p) / self.replicates)


@dataclass(frozen=True)
class AssuranceSpec:
    """Discrete prior over scenario names; weights sum to 1."""

    prior: Mapping[str, float]

    def __post_init__(self) -> None:
        prior = dict(self.prior)
        object.__setattr__(self, "prior", prior)
        if not prior:
            raise ValueError("prior must be nonempty")
        for name, w in prior.items():
            if not (isinstance(w, (int, float)) and math.isfinite(w) and w >= 0.0):
                raise ValueError(f"prior weight for {name!r} must be finite and >= 0, got {w!r}")
        total = math.fsum(prior.values())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"prior weights must sum to 1, got {total!r}")


class _RunPlan:
    """Precompiled evaluation plan shared by all replicates of a run.

    Deduplicates weight specs across methods so each distinct component
    statistic and each distinct component pair's correlation is computed
    once per dataset.
    """

    def __init__(self, methods: Sequence[MethodSpec]):
        self.methods = methods = tuple(methods)
        labels = [m.label for m in methods]
        for label in labels:
            if labels.count(label) > 1:
                raise ValueError(
                    f"duplicate method label {label!r}; method labels must be unique within a run"
                )
        # each method's component specs: (w1,) for a single test, else (w1, w2)
        used = [(m.combo.w1,) if m.combo.k1 == 1.0 else (m.combo.w1, m.combo.w2) for m in methods]
        self.specs: list[WeightSpec] = list(dict.fromkeys(w for ws in used for w in ws))
        index = {spec: i for i, spec in enumerate(self.specs)}
        self.components = [(index[ws[0]], index[ws[-1]]) for ws in used]
        self.pairs = tuple(dict.fromkeys((i, j) for i, j in self.components if i != j))


def _replicate_row(plan: _RunPlan, time, event, arm) -> np.ndarray:
    """Rejection decisions of every method on one dataset."""
    z, rho = evaluate(plan.specs, plan.pairs, risk_arrays(time, event, arm))
    row = np.empty(len(plan.methods), dtype=bool)
    for m, method in enumerate(plan.methods):
        i, j = plan.components[m]
        # identical components are perfectly correlated; single tests (i == j
        # with k1 = 1) never read the correlation
        r = rho[(i, j)] if i != j else 1.0
        row[m] = combo_reject(method.combo, z[i], z[j], r)
    return row


def _decision_block(
    scenario: Scenario,
    plan: _RunPlan,
    seed: int,
    start: int,
    stop: int,
) -> tuple[np.ndarray, list[tuple[int, str]]]:
    """Decision matrix for replicates [start, stop) plus degenerate log entries.

    A replicate whose dataset cannot support the tests (no events, one arm
    absent, zero variance) contributes a row of non-rejections.
    """
    rows = np.zeros((stop - start, len(plan.methods)), dtype=bool)
    degenerate: list[tuple[int, str]] = []
    for rep in range(start, stop):
        time, event, arm = _trial_arrays(scenario, seed, rep)
        try:
            rows[rep - start] = _replicate_row(plan, time, event, arm)
        except (DataError, NumericalError) as exc:
            degenerate.append((rep, str(exc)))
    return rows, degenerate


def _count_block(args) -> tuple[np.ndarray, list[tuple[int, str]]]:
    rows, degenerate = _decision_block(*args)
    return rows.sum(axis=0, dtype=np.int64), degenerate


def _block_count(replicates: int) -> int:
    """Blocks of 100-199 replicates a scenario's run splits into, whatever the
    worker count, so a pool only changes where the blocks run."""
    return replicates // 100


def _pool_size(workers: int, blocks: int) -> int:
    """Processes a pool for ``blocks`` blocks starts: a pool starts all its
    workers at once, so no more than there are blocks, and none (0) when one
    process would run them all."""
    size = min(workers, blocks)
    return size if size > 1 else 0


@contextlib.contextmanager
def _worker_pool(workers: int, blocks: int):
    """The one place a pool is built: yields None when ``_pool_size`` is 0,
    otherwise a pool of that many processes, shut down when the block ends."""
    size = _pool_size(workers, blocks)
    if not size:
        yield None
        return
    with ProcessPoolExecutor(max_workers=size) as pool:
        yield pool


def estimate_power(
    scenario: Scenario,
    methods: Sequence[MethodSpec],
    replicates: int,
    seed: int,
    *,
    workers: int = 1,
    pool=None,
) -> OperatingCharacteristics:
    """Monte Carlo rejection rate of each method under one scenario.

    All methods see the same `replicates` simulated datasets. The result
    depends only on (scenario, methods, replicates, seed), never on
    `workers` or `pool`.

    `pool` is an executor with a ``map`` method, such as a
    ``ProcessPoolExecutor``, that the caller owns: the blocks of replicates
    run on it, and the caller shuts it down, so that one pool can serve many
    calls. Without one, the call starts a pool of at most `workers`
    processes for its own blocks and shuts it down before it returns.
    """
    if replicates < 100:
        raise ValueError(f"replicates must be >= 100, got {replicates}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    plan = _RunPlan(methods)  # checks the labels before any work
    _stream_key(seed, replicates - 1)  # and the seed and every replicate index
    edges = np.linspace(0, replicates, _block_count(replicates) + 1).astype(int)
    tasks = [(scenario, plan, seed, int(a), int(b)) for a, b in zip(edges[:-1], edges[1:])]
    with _worker_pool(workers, len(tasks)) if pool is None else contextlib.nullcontext(pool) as pool:
        blocks = list(map(_count_block, tasks) if pool is None else pool.map(_count_block, tasks))
    counts = np.sum([block_counts for block_counts, _ in blocks], axis=0)
    # blocks come back in order and each lists its replicates in order
    degenerate = [entry for _, block_degenerate in blocks for entry in block_degenerate]
    for rep, msg in degenerate:
        logger.warning(
            "replicate %d of scenario %s degenerate (%s); counted as non-rejection",
            rep, scenario.name, msg,
        )
    rates = {m.label: int(c) / replicates for m, c in zip(plan.methods, counts)}
    return OperatingCharacteristics(
        scenario=scenario.name,
        replicates=replicates,
        seed=seed,
        rates=rates,
        degenerate=len(degenerate),
    )


def assurance(
    oc_by_scenario: Mapping[str, OperatingCharacteristics],
    prior: AssuranceSpec,
    label: str,
) -> float:
    """Prior-weighted average of one method's rejection rates across scenarios."""
    terms = []
    for name, weight in prior.prior.items():
        if name not in oc_by_scenario:
            raise ValueError(f"missing scenario {name!r} in operating characteristics")
        oc = oc_by_scenario[name]
        if label not in oc.rates:
            raise ValueError(f"method {label!r} missing from scenario {name!r}")
        terms.append(weight * oc.rates[label])
    return math.fsum(terms)


_POWER_HEADER = (
    "scenario", "method", "rejection_rate", "mc_standard_error", "replicates", "seed",
)


def write_power_csv(path, ocs: Sequence[OperatingCharacteristics]) -> None:
    """One row per scenario x method; floats in shortest round-trip form."""
    import csv

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_POWER_HEADER)
        for oc in ocs:
            for label, rate in oc.rates.items():
                writer.writerow(
                    (
                        oc.scenario,
                        label,
                        repr(rate),
                        repr(oc.standard_error(label)),
                        oc.replicates,
                        oc.seed,
                    )
                )


def read_power_csv(path) -> dict[str, OperatingCharacteristics]:
    """Read rejection rates back, keyed by scenario name.

    The file must have a row, every row of a scenario the same positive
    ``replicates`` and the same ``seed``, and every scenario the same method
    labels; anything else is a ``DataError``.
    """
    ocs: dict[str, OperatingCharacteristics] = {}
    for lineno, (scenario, label, rate_s, _se, reps_s, seed_s) in _csv_rows(path, _POWER_HEADER):
        try:
            rate = parse_number(rate_s, float)
            reps, seed = parse_number(reps_s, int), parse_number(seed_s, int)
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: malformed numeric field: {exc}") from None
        if not 0.0 <= rate <= 1.0:
            raise DataError(f"{path}:{lineno}: rejection_rate outside [0, 1]: {rate}")
        if reps < 1:
            raise DataError(f"{path}:{lineno}: replicates must be >= 1, got {reps}")
        oc = ocs.setdefault(scenario, OperatingCharacteristics(scenario, reps, seed, {}))
        if (reps, seed) != (oc.replicates, oc.seed):
            raise DataError(
                f"{path}:{lineno}: replicates={reps}, seed={seed} for {scenario!r} "
                f"conflict with replicates={oc.replicates}, seed={oc.seed} on its earlier rows"
            )
        if label in oc.rates:
            raise DataError(f"{path}:{lineno}: duplicate method {label!r} for {scenario!r}")
        oc.rates[label] = rate
    if not ocs:
        raise DataError(f"{path}: no rows")
    labels = {label for oc in ocs.values() for label in oc.rates}
    for name, oc in ocs.items():
        missing = sorted(labels - oc.rates.keys())
        if missing:
            raise DataError(f"{path}: scenario {name!r} has no row for method {missing[0]!r}")
    return ocs


def method_to_dict(m: MethodSpec) -> dict:
    return {
        "label": m.label,
        "w1": m.combo.w1.label(),
        "w2": m.combo.w2.label(),
        "k1": m.combo.k1,
        "k2": m.combo.k2,
        "alpha": m.combo.alpha,
    }


def write_power_json(
    path,
    ocs: Sequence[OperatingCharacteristics],
    methods: Sequence[MethodSpec],
    scenario_hashes: Mapping[str, str] | None = None,
) -> None:
    """Nested variant of the power table with method definitions inline."""
    import json

    payload = {
        "methods": [method_to_dict(m) for m in methods],
        "scenarios": [
            {
                "name": oc.scenario,
                "hash": (scenario_hashes or {}).get(oc.scenario),
                "replicates": oc.replicates,
                "seed": oc.seed,
                "degenerate": oc.degenerate,
                "results": {
                    label: {
                        "rejection_rate": rate,
                        "mc_standard_error": oc.standard_error(label),
                    }
                    for label, rate in oc.rates.items()
                },
            }
            for oc in ocs
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
