"""Trial simulation: piecewise-exponential arms, uniform recruitment,
administrative censoring at a fixed study end.

Replicates are keyed by (master seed, replicate index) through a
counter-based generator, so a dataset depends only on those two numbers
and never on execution order or worker count.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import asdict, dataclass

import numpy as np

from .dataset import SPEC_PUNCTUATION, SPEC_WORD
from .errors import DataError


@dataclass(frozen=True)
class PiecewiseHazard:
    """Piecewise-constant hazard: rates[i] applies on [knots[i-1], knots[i]).

    ``rates`` has one more entry than ``knots``; the final rate extends to
    infinity. A constant hazard is ``knots=()``.
    """

    knots: tuple[float, ...]
    rates: tuple[float, ...]

    def __post_init__(self) -> None:
        knots = tuple(float(k) for k in self.knots)
        rates = tuple(float(r) for r in self.rates)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "rates", rates)
        if len(rates) != len(knots) + 1:
            raise ValueError(
                f"need len(knots)+1 rates, got {len(knots)} knots and {len(rates)} rates"
            )
        if any(not math.isfinite(k) or k < 0 for k in knots):
            raise ValueError(f"knots must be finite and >= 0, got {knots}")
        if any(b <= a for a, b in zip(knots, knots[1:])):
            raise ValueError(f"knots must be strictly increasing, got {knots}")
        if any(not math.isfinite(r) or r <= 0 for r in rates):
            raise ValueError(f"rates must be finite and > 0, got {rates}")
        # the segment table: starts, cumulative hazard at each start, rates
        starts = np.concatenate(([0.0], np.asarray(knots, dtype=np.float64)))
        rate_array = np.asarray(rates, dtype=np.float64)
        cum = np.concatenate(([0.0], np.cumsum(np.diff(starts) * rate_array[:-1])))
        object.__setattr__(self, "_segments", (starts, cum, rate_array))

    def _by_segment(self, x, edges, value):
        """``value(start, cum, rate)`` of the segment ``searchsorted(edges, x, side="right") - 1`` picks."""
        starts, cum, rates = self._segments
        if len(rates) > 2:  # from three segments on, the gathers cost less than a full pass per segment
            seg = np.searchsorted(edges, x, side="right") - 1
            return value(starts[seg], cum[seg], rates[seg])
        if len(rates) == 1:
            return value(starts[0], cum[0], rates[0])
        with np.errstate(over="ignore"):  # dropped values may overflow, and picked ones go unreported
            return np.where(x >= edges[1], value(starts[1], cum[1], rates[1]), value(starts[0], cum[0], rates[0]))

    def cumulative_hazard(self, t):
        """Integrated hazard at time(s) t >= 0."""
        t_arr = np.asarray(t, dtype=np.float64)
        if (t_arr < 0).any():
            raise ValueError("time must be >= 0")
        out = self._by_segment(t_arr, self._segments[0], lambda start, c, rate: c + (t_arr - start) * rate)
        return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out

    def inverse_cumulative_hazard(self, y):
        """Time at which the integrated hazard reaches y >= 0."""
        y_arr = np.asarray(y, dtype=np.float64)
        if (y_arr < 0).any():
            raise ValueError("cumulative hazard must be >= 0")
        out = self._by_segment(y_arr, self._segments[1], lambda start, c, rate: start + (y_arr - c) / rate)
        return float(out) if np.isscalar(y) or y_arr.ndim == 0 else out


@dataclass(frozen=True)
class Scenario:
    """One simulated-trial configuration: two arms, fixed study length.

    ``n_total`` subjects split exactly 1:1; arm 0 is control, arm 1
    experimental. Entry is uniform on [0, recruit_duration]; the only
    censoring is administrative at ``study_length`` calendar months.
    """

    name: str
    n_total: int
    study_length: float
    recruit_duration: float
    arm0: PiecewiseHazard
    arm1: PiecewiseHazard

    def __post_init__(self) -> None:
        if re.fullmatch(SPEC_WORD, self.name) is None:
            raise ValueError(
                f"scenario name must be nonempty, without whitespace or any of "
                f"{SPEC_PUNCTUATION!r}, got {self.name!r}"
            )
        if not (isinstance(self.n_total, int) and self.n_total >= 2 and self.n_total % 2 == 0):
            raise ValueError(f"n_total must be an even integer >= 2, got {self.n_total}")
        if not (
            math.isfinite(self.study_length)
            and math.isfinite(self.recruit_duration)
            and 0.0 < self.recruit_duration <= self.study_length
        ):
            raise ValueError(
                "require 0 < recruit_duration <= study_length, got "
                f"recruit_duration={self.recruit_duration}, study_length={self.study_length}"
            )


def _stream_key(seed: int, replicate: int) -> int:
    """128-bit Philox key from (master seed, replicate index), each in [0, 2**64)."""
    if not (0 <= seed < 1 << 64 and 0 <= replicate < 1 << 64):
        raise ValueError(f"seed and replicate must lie in [0, 2**64), got {seed} and {replicate}")
    return (replicate << 64) | seed


def simulate_trial(
    scenario: Scenario, seed: int, replicate: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Simulate one trial as (time, event, arm) columns, deterministic in (seed, replicate).

    Times are float64; event (1 observed, 0 censored) and arm (0 control,
    1 experimental) are int64. All ``2 * n_total`` uniforms come from one
    draw, in a fixed order: entry uniforms for all subjects, then event
    uniforms for all subjects, with the control arm in the first half.
    """
    n = scenario.n_total
    half = n // 2
    rng = np.random.Generator(np.random.Philox(key=_stream_key(seed, replicate)))
    entry, cum = rng.random(2 * n).reshape(2, n)
    entry *= scenario.recruit_duration
    # map draws onto (0, 1] so the inverted hazard is finite, and take -log, in place
    np.negative(np.log(np.subtract(1.0, cum, out=cum), out=cum), out=cum)
    event_time = np.empty(n)
    event_time[:half] = scenario.arm0.inverse_cumulative_hazard(cum[:half])
    event_time[half:] = scenario.arm1.inverse_cumulative_hazard(cum[half:])
    cap = np.subtract(scenario.study_length, entry, out=entry)
    event = event_time <= cap
    time = np.where(event, event_time, cap)
    arm = np.zeros(n, dtype=np.int64)
    arm[half:] = 1
    return time, event.astype(np.int64), arm


# the Python types that stand for a JSON type; asdict keeps arrays as tuples
_ACCEPTED = {float: (int, float), list: (list, tuple)}


def _checked(value, kind: type, field: str):
    """``value`` if it is a JSON ``kind``; a bool is not a number."""
    if isinstance(value, bool) or not isinstance(value, _ACCEPTED.get(kind, kind)):
        name = {float: "number", int: "integer", str: "string", list: "array", dict: "object"}[kind]
        raise DataError(f"field {field!r} must be a JSON {name}, got {value!r}")
    return value


def _field(d, key: str, kind: type, prefix: str = ""):
    if not isinstance(d, dict) or key not in d:
        raise DataError(f"missing field {prefix + key!r}")
    return _checked(d[key], kind, prefix + key)


def _hazard(spec: dict, arm: str) -> PiecewiseHazard:
    return PiecewiseHazard(*(
        tuple(_checked(v, float, f"{arm}.{key}") for v in _field(spec, key, list, f"{arm}."))
        for key in ("knots", "rates")
    ))


def scenario_from_dict(d: dict) -> Scenario:
    """Scenario from its JSON form; a missing field, a string or bool where a
    number belongs, or a fractional ``n_total`` raises ``DataError`` naming it."""
    return Scenario(
        name=_field(d, "name", str),
        n_total=_field(d, "n_total", int),
        study_length=float(_field(d, "study_length", float)),
        recruit_duration=float(_field(d, "recruit_duration", float)),
        arm0=_hazard(_field(d, "arm0", dict), "arm0"),
        arm1=_hazard(_field(d, "arm1", dict), "arm1"),
    )


def write_scenario(path, s: Scenario) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(asdict(s), fh, indent=2)
        fh.write("\n")


def read_scenario(path) -> Scenario:
    """Scenario from a JSON file; a file that is not a valid scenario raises
    ``DataError`` naming the path."""
    with open(path, encoding="utf-8") as fh:
        try:
            return scenario_from_dict(json.load(fh))
        except ValueError as exc:  # bad JSON or UTF-8, a bad field, an invalid scenario
            raise DataError(f"{path}: {exc}") from None


def scenario_hash(s: Scenario) -> str:
    """Stable sha256 fingerprint of the scenario parameters, for provenance."""
    canon = json.dumps(asdict(s), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _make(name, n, length, arm1_knots, arm1_rates, arm0_knots, arm0_rates) -> Scenario:
    return Scenario(
        name=name,
        n_total=n,
        study_length=length,
        recruit_duration=12.0,
        arm0=PiecewiseHazard(arm0_knots, arm0_rates),
        arm1=PiecewiseHazard(arm1_knots, arm1_rates),
    )


# Ten built-in scenarios: {high, low} event rate x {delayed, ph, diminishing,
# equal, early_harm}. High: 24-month study, N=1000; low: 36-month study,
# N=6000. Hazards are per subject-month; all use 12-month uniform recruitment.
BUILTIN_SCENARIOS: dict[str, Scenario] = {
    s.name: s
    for s in (
        _make("high_delayed", 1000, 24.0, (6.0,), (0.0462, 0.0289), (), (0.0462,)),
        _make("high_ph", 1000, 24.0, (), (0.0365,), (), (0.0462,)),
        _make(
            "high_diminishing", 1000, 24.0,
            (9.0, 18.0), (0.0315, 0.0408, 0.0693), (), (0.0462,),
        ),
        _make("high_equal", 1000, 24.0, (), (0.0462,), (), (0.0462,)),
        _make(
            "high_early_harm", 1000, 24.0,
            (2.0,), (0.0990, 0.0462), (2.0, 6.0), (0.0495, 0.0693, 0.0462),
        ),
        _make("low_delayed", 6000, 36.0, (6.0,), (0.00462, 0.00352), (), (0.00462,)),
        _make("low_ph", 6000, 36.0, (), (0.00375,), (), (0.00462,)),
        _make(
            "low_diminishing", 6000, 36.0,
            (9.0, 18.0), (0.00210, 0.00289, 0.00578), (), (0.00462,),
        ),
        _make("low_equal", 6000, 36.0, (), (0.00462,), (), (0.00462,)),
        _make(
            "low_early_harm", 6000, 36.0,
            (4.0,), (0.01160, 0.00462), (4.0, 13.0), (0.00385, 0.00770, 0.00462),
        ),
    )
}


def get_scenario(name: str) -> Scenario:
    """Look up a built-in scenario by name."""
    try:
        return BUILTIN_SCENARIOS[name]
    except KeyError:
        valid = ", ".join(sorted(BUILTIN_SCENARIOS))
        raise ValueError(f"unknown scenario {name!r}; valid names: {valid}") from None
