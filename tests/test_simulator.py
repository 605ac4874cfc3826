"""Tests for piecewise-exponential sampling and the built-in trial scenarios."""

import functools
import math
import random
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from rmwtest.simulator import (
    BUILTIN_SCENARIOS,
    PiecewiseHazard,
    Scenario,
    get_scenario,
    read_scenario,
    scenario_from_dict,
    scenario_hash,
    simulate_trial,
    write_scenario,
)

from oracles import (
    cumulative_hazard_reference,
    expected_event_fraction,
    inverse_cumulative_hazard_reference,
    simulate_trial_reference,
)

EXP = PiecewiseHazard(knots=(), rates=(0.0462,))
TWO_PIECE = PiecewiseHazard(knots=(6.0,), rates=(0.0462, 0.0289))


@st.composite
def hazards(draw):
    """0-3 strictly increasing knots, often with one at 0.0, and a rate for each segment."""
    knots = sorted(draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 40.0)), max_size=3, unique=True)))
    # subnormal rates too; up to 1e300 the cumulative hazard at a knot stays finite
    rate = st.floats(0.0, 1e300, exclude_min=True)
    rates = draw(st.lists(rate, min_size=len(knots) + 1, max_size=len(knots) + 1))
    return PiecewiseHazard(tuple(knots), tuple(rates))


FINITE_VALUES = st.lists(st.floats(0.0, allow_infinity=False), max_size=20)

# an empty first segment; a tiny then a common rate, where the first segment's
# value overflows for nearly every time or hazard; a common then a huge rate,
# where the second's overflows before its knot
EDGE_HAZARDS = [
    PiecewiseHazard((0.0, 6.0), (0.1, 0.2, 0.3)),
    PiecewiseHazard((6.0,), (1e-310, 0.1)),
    PiecewiseHazard((1e9,), (1.0, 1e300)),
]


def recording_warnings(f, *args):
    """``f(*args)`` and the set of warning messages it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = f(*args)
    return result, {str(w.message) for w in caught}


def assert_same_bits(got, want):
    """Same type, dtype, shape and bytes; a NaN matches any NaN."""
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


class TestPiecewiseHazard:
    def test_rate_count_must_exceed_knot_count_by_one(self):
        with pytest.raises(ValueError):
            PiecewiseHazard(knots=(6.0,), rates=(0.0462,))

    def test_knots_strictly_increasing(self):
        with pytest.raises(ValueError):
            PiecewiseHazard(knots=(6.0, 6.0), rates=(0.1, 0.2, 0.3))

    @pytest.mark.parametrize("bad", [0.0, -0.1, math.inf, math.nan])
    def test_rates_positive_finite(self, bad):
        with pytest.raises(ValueError):
            PiecewiseHazard(knots=(), rates=(bad,))

    def test_cumulative_hazard_piecewise_linear(self):
        assert TWO_PIECE.cumulative_hazard(0.0) == 0.0
        assert TWO_PIECE.cumulative_hazard(6.0) == pytest.approx(6 * 0.0462)
        assert TWO_PIECE.cumulative_hazard(10.0) == pytest.approx(6 * 0.0462 + 4 * 0.0289)

    def test_survival_is_exp_of_negative_hazard(self):
        t = np.array([0.0, 3.0, 6.0, 10.0, 40.0])
        hazard = [0.0, 3 * 0.0462, 6 * 0.0462, 6 * 0.0462 + 4 * 0.0289, 6 * 0.0462 + 34 * 0.0289]
        assert_allclose(np.exp(-TWO_PIECE.cumulative_hazard(t)), np.exp(-np.array(hazard)))

    def test_inverse_round_trip(self):
        h = PiecewiseHazard(knots=(9.0, 18.0), rates=(0.0315, 0.0408, 0.0693))
        t = np.linspace(0.01, 60.0, 200)
        assert_allclose(h.inverse_cumulative_hazard(h.cumulative_hazard(t)), t, rtol=1e-12)
        y = np.linspace(0.001, 4.0, 200)
        assert_allclose(h.cumulative_hazard(h.inverse_cumulative_hazard(y)), y, rtol=1e-12)

    @pytest.mark.parametrize("value", [-0.5, np.array([0.0, 1.0, -1e-300, 2.0])], ids=["scalar", "array"])
    @pytest.mark.parametrize(
        "method,message",
        [("cumulative_hazard", "time must be >= 0"), ("inverse_cumulative_hazard", "hazard must be >= 0")],
    )
    def test_negative_input_raises(self, method, message, value):
        with pytest.raises(ValueError, match=message):
            getattr(TWO_PIECE, method)(value)


class TestFrozenReference:
    """The hazard and the simulator equal their frozen copies in tests/oracles.py bit for bit."""

    @staticmethod
    def assert_evaluations_match(hazard, method, reference, edges, extra):
        """Each segment edge, the double below it, signed zeros, the smallest
        subnormal, inf, NaN and ``extra``, as an array, a row, and one by one
        as a float, a numpy scalar and a 0-d array. A warning the package
        raises, the reference raises too."""
        values = [0.0, -0.0, 5e-324, math.inf, math.nan, *extra]
        for edge in edges.tolist():
            values += [edge, math.nextafter(edge, -math.inf)]
        values = [v for v in values if not v < 0]
        for arg in (np.array(values), np.array([values]), *values, *map(np.float64, values), *map(np.array, values)):
            got, got_warnings = recording_warnings(getattr(hazard, method), arg)
            want, want_warnings = recording_warnings(reference, hazard, arg)
            assert_same_bits(got, want)
            assert got_warnings <= want_warnings

    @given(hazard=hazards(), extra=FINITE_VALUES)
    @example(hazard=EDGE_HAZARDS[0], extra=[0.6])
    @example(hazard=EDGE_HAZARDS[1], extra=[0.5, 36.7, 1e300])
    @example(hazard=EDGE_HAZARDS[2], extra=[0.5, 1e9, 1e300])
    def test_inverse_cumulative_hazard(self, hazard, extra):
        _, cum, _ = hazard._segments
        self.assert_evaluations_match(
            hazard, "inverse_cumulative_hazard", inverse_cumulative_hazard_reference, cum, extra
        )

    @given(hazard=hazards(), extra=FINITE_VALUES)
    @example(hazard=EDGE_HAZARDS[0], extra=[6.0])
    @example(hazard=EDGE_HAZARDS[1], extra=[3.0, 1e300])
    @example(hazard=EDGE_HAZARDS[2], extra=[0.0, 5.0, 2e9, 1e300])
    def test_cumulative_hazard(self, hazard, extra):
        starts, _, _ = hazard._segments
        self.assert_evaluations_match(hazard, "cumulative_hazard", cumulative_hazard_reference, starts, extra)

    @staticmethod
    def assert_same_trial(scenario, seed, replicate, rng=None):
        simulate = functools.partial(simulate_trial, rng=rng)
        got, got_warnings = recording_warnings(simulate, scenario, seed, replicate)
        want, want_warnings = recording_warnings(simulate_trial_reference, scenario, seed, replicate)
        for col, ref in zip(got, want, strict=True):
            assert (col.dtype, col.tobytes()) == (ref.dtype, ref.tobytes())
        assert got_warnings <= want_warnings

    @pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
    def test_builtin_scenarios(self, name):
        for replicate in range(20):
            self.assert_same_trial(BUILTIN_SCENARIOS[name], 2024, replicate)

    @given(
        arm0=hazards(),
        arm1=hazards(),
        half=st.integers(1, 100),
        study_length=st.floats(0.5, 60.0),
        recruit_share=st.floats(1e-3, 1.0),
        seed=st.integers(0, 2**64 - 1),
        replicate=st.integers(0, 2**64 - 1),
    )
    @example(
        arm0=EDGE_HAZARDS[1], arm1=EDGE_HAZARDS[2], half=50,
        study_length=36.0, recruit_share=1 / 3, seed=1, replicate=0,
    )
    def test_random_scenarios(self, arm0, arm1, half, study_length, recruit_share, seed, replicate):
        scenario = Scenario("random", 2 * half, study_length, recruit_share * study_length, arm0, arm1)
        self.assert_same_trial(scenario, seed, replicate)

    @given(
        arm0=hazards(),
        arm1=hazards(),
        half=st.integers(1, 100),
        seed=st.integers(0, 2**64 - 1),
        replicate=st.integers(0, 2**64 - 1),
        other_key=st.integers(0, 2**128 - 1),
        doubles=st.integers(0, 9),
        odd_uint32s=st.integers(0, 4).map(lambda k: 2 * k + 1),
    )
    @example(
        arm0=EDGE_HAZARDS[1], arm1=EDGE_HAZARDS[2], half=50,
        seed=2**64 - 1, replicate=2**64 - 1, other_key=0, doubles=3, odd_uint32s=1,
    )
    def test_reused_generator_gives_fresh_generator_bytes(
        self, arm0, arm1, half, seed, replicate, other_key, doubles, odd_uint32s
    ):
        """A generator that drew on another key, an odd number of 32-bit values
        last, is reset to each call's stream: two calls in a row give the
        reference's columns, and leave it in the state a fresh generator of
        that stream reaches after the same draw."""
        scenario = Scenario("random", 2 * half, 24.0, 12.0, arm0, arm1)
        rng = np.random.Generator(np.random.Philox(key=other_key))
        rng.random(doubles)
        rng.integers(0, 2**32, size=odd_uint32s, dtype=np.uint32)
        assert rng.bit_generator.state["has_uint32"] == 1
        for s, r in ((seed, replicate), (replicate, seed)):
            self.assert_same_trial(scenario, s, r, rng)
            fresh = np.random.Generator(np.random.Philox(key=(r << 64) | s))
            fresh.random(2 * scenario.n_total)
            assert repr(rng.bit_generator.state) == repr(fresh.bit_generator.state)

    @pytest.mark.parametrize(
        "rng", [np.random.Generator(np.random.PCG64(1)), np.random.Philox(1), np.random.default_rng(1)]
    )
    def test_generator_over_another_bit_generator_raises(self, rng):
        with pytest.raises(TypeError, match="Generator over Philox"):
            simulate_trial(BUILTIN_SCENARIOS["high_delayed"], 1, 0, rng=rng)

    def test_default_generator_reads_no_os_entropy(self, monkeypatch):
        """Without rng the call seeds its own generator; an unseeded one
        (``Philox(key=...)``) reads OS entropy through ``random._urandom``."""
        reads = []
        monkeypatch.setattr(random, "_urandom", lambda n: reads.append(n) or bytes(n))
        np.random.Philox(key=5)
        assert reads  # the spy sees the reads a keyed Philox makes
        reads.clear()
        simulate_trial(BUILTIN_SCENARIOS["high_delayed"], 1, 0)
        assert reads == []


def sample(h, u):
    """Event time drawn by inversion from one uniform u, as simulate_trial draws it."""
    return h.inverse_cumulative_hazard(-math.log(u))


class TestSampleEventTime:
    def test_exponential_worked_example(self):
        # u = exp(-0.462) inverts to exactly t = 0.462 / 0.0462 = 10
        assert sample(EXP, math.exp(-0.462)) == pytest.approx(10.0, abs=1e-12)

    def test_two_piece_worked_example(self):
        # cumulative hazard 6*0.0462 + 4*0.0289 = 0.3928 is reached at t = 10
        assert sample(TWO_PIECE, math.exp(-0.3928)) == pytest.approx(10.0, abs=1e-12)

    def test_u_near_one_gives_tiny_time(self):
        assert 0.0 <= sample(EXP, 1.0 - 1e-12) < 1e-9

    def test_agrees_with_survival_function(self):
        """Large-sample survival curve must track the analytic one at the knots."""
        rng = np.random.default_rng(99)
        n = 100_000
        u = 1.0 - rng.random(n)
        for h in (TWO_PIECE, BUILTIN_SCENARIOS["low_diminishing"].arm1):
            t = h.inverse_cumulative_hazard(-np.log(u))
            for knot in h.knots:
                s = math.exp(-h.cumulative_hazard(knot))
                se = math.sqrt(s * (1 - s) / n)
                assert abs(np.mean(t > knot) - s) < 3 * se


class TestScenario:
    def test_validation(self):
        with pytest.raises(ValueError):
            Scenario("x", 999, 24.0, 6.0, EXP, EXP)  # odd n
        with pytest.raises(ValueError):
            Scenario("x", 100, 6.0, 24.0, EXP, EXP)  # recruit > length
        with pytest.raises(ValueError):
            Scenario("", 100, 24.0, 6.0, EXP, EXP)

    def test_builtin_names(self):
        assert sorted(BUILTIN_SCENARIOS) == [
            "high_delayed", "high_diminishing", "high_early_harm", "high_equal",
            "high_ph", "low_delayed", "low_diminishing", "low_early_harm",
            "low_equal", "low_ph",
        ]
        for name, scenario in BUILTIN_SCENARIOS.items():
            assert scenario.name == name

    def test_get_scenario_unknown_name_lists_choices(self):
        with pytest.raises(ValueError, match="high_delayed"):
            get_scenario("nonesuch")

    def test_event_rate_hierarchy(self):
        """'high' scenarios are calibrated to far higher event rates than 'low'."""
        high = BUILTIN_SCENARIOS["high_ph"]
        low = BUILTIN_SCENARIOS["low_ph"]
        assert high.arm0.cumulative_hazard(high.study_length) > 5 * low.arm0.cumulative_hazard(
            low.study_length
        )


class TestSimulateTrial:
    def test_shape_and_bounds(self):
        scenario = BUILTIN_SCENARIOS["high_delayed"]
        time, event, arm = simulate_trial(scenario, seed=1)
        assert (time.dtype, event.dtype, arm.dtype) == (np.float64, np.int64, np.int64)
        assert time.shape == event.shape == arm.shape == (scenario.n_total,)
        assert arm.sum() == scenario.n_total // 2
        assert np.all((0.0 <= time) & (time <= scenario.study_length))
        assert np.all((event == 0) | (event == 1))

    def test_deterministic_in_seed_and_replicate(self):
        scenario = BUILTIN_SCENARIOS["high_ph"]

        def same(a, b):
            return all(np.array_equal(x, y) for x, y in zip(a, b, strict=True))

        a = simulate_trial(scenario, seed=7, replicate=3)
        b = simulate_trial(scenario, seed=7, replicate=3)
        assert same(a, b)
        assert not same(a, simulate_trial(scenario, seed=7, replicate=4))
        assert not same(a, simulate_trial(scenario, seed=8, replicate=3))

    def test_near_zero_hazard_censors_everyone(self):
        h = PiecewiseHazard(knots=(), rates=(1e-12,))
        scenario = Scenario("idle", 50, 24.0, 6.0, h, h)
        time, event, _ = simulate_trial(scenario, seed=0)
        assert np.all(event == 0)
        # censoring time is study length minus entry, so it stays in a tight band
        assert np.all((18.0 <= time) & (time <= 24.0))

    def test_event_fraction_matches_integral(self):
        """Administrative censoring: P(event) = E_entry[F(length - entry)]."""
        h = TWO_PIECE
        scenario = Scenario("big", 20_000, 24.0, 6.0, h, h)
        _, event, _ = simulate_trial(scenario, seed=42)
        want = expected_event_fraction(lambda t: math.exp(-h.cumulative_hazard(t)), 24.0, 6.0)
        got = event.sum() / len(event)
        se = math.sqrt(want * (1 - want) / len(event))
        assert abs(got - want) < 3 * se


class TestSerialization:
    def test_dict_round_trip_all_builtins(self):
        for scenario in BUILTIN_SCENARIOS.values():
            assert scenario_from_dict(asdict(scenario)) == scenario

    def test_file_round_trip(self, tmp_path):
        scenario = BUILTIN_SCENARIOS["low_early_harm"]
        path = tmp_path / "scenario.json"
        write_scenario(path, scenario)
        assert read_scenario(path) == scenario

    def test_hash_is_stable_and_discriminating(self):
        hashes = {scenario_hash(s) for s in BUILTIN_SCENARIOS.values()}
        assert len(hashes) == len(BUILTIN_SCENARIOS)
        s = BUILTIN_SCENARIOS["high_equal"]
        h = scenario_hash(s)
        assert h == scenario_hash(scenario_from_dict(asdict(s)))
        assert len(h) == 64 and set(h) <= set("0123456789abcdef")

    def test_hash_depends_on_rates(self):
        base = BUILTIN_SCENARIOS["high_ph"]
        tweaked = Scenario(
            base.name, base.n_total, base.study_length, base.recruit_duration,
            base.arm0, PiecewiseHazard(knots=(), rates=(0.03651,)),
        )
        assert scenario_hash(tweaked) != scenario_hash(base)
