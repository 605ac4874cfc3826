"""Tests for the weighted log-rank statistic, its variance, and Z."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import rmwtest.combo as combo_module
from rmwtest.combo import _row_sums, evaluate, moment_arrays, one_sided_p, statistic_from_arrays
from rmwtest.dataset import RiskArrays, read_survival_csv, risk_arrays
from rmwtest.errors import DataError, NumericalError
from rmwtest.harness import _RunPlan, paper_methods
from rmwtest.simulator import BUILTIN_SCENARIOS, simulate_trial
from rmwtest.weights import WeightSpec, weights_from_km_left

from oracles import (
    constant_weight,
    fleming_harrington_weight,
    hypergeometric_moments_oracle,
    modest_weight,
    random_dataset,
    weighted_logrank_oracle,
)
from test_dataset import columns, trials

# Two-subject dataset: event at t=1 in arm 0, event at t=2 in arm 1.
TWO_SUBJECTS = ([1.0, 2.0], [1, 1], [0, 1])


def _moments(n, n1, d):
    """moment_arrays over risk-table columns n_total, n_arm1, d_total."""
    n, n1, d = (np.asarray(c, dtype=np.int64) for c in (n, n1, d))
    ones = np.ones(len(n))
    risk = RiskArrays(tau=ones, n_total=n, n_arm1=n1, d_total=d, d_arm1=0 * d, km_left=ones)
    mean, var = moment_arrays(risk)
    return mean.tolist(), var.tolist()


class TestHypergeometricMoments:
    def test_two_subjects_one_event(self):
        (mean,), (var,) = _moments([2], [1], [1])
        assert mean == 0.5
        assert var == 0.25

    def test_degenerate_risk_set(self):
        (mean,), (var,) = _moments([1], [1], [1])
        assert mean == 1.0
        assert var == 0.0

    def test_ten_subjects(self):
        (mean,), (var,) = _moments([10], [5], [2])
        assert mean == 1.0
        assert_allclose(var, 4.0 / 9.0, rtol=1e-15)

    def test_matches_enumeration(self):
        """Closed form equals exhaustive enumeration for every (n, n1, d) grid point."""
        grid = [
            (n, n1, d)
            for n in range(2, 13)
            for n1 in range(0, n + 1)
            for d in range(1, n + 1)
        ]
        means, variances = _moments(*zip(*grid))
        for (n, n1, d), mean, var in zip(grid, means, variances):
            ref_mean, ref_var = hypergeometric_moments_oracle(n, n1, d)
            assert_allclose(mean, ref_mean, atol=1e-13)
            assert_allclose(var, ref_var, atol=1e-13)
            assert 0.0 <= var <= n / 4.0 + 1.0


def _statistic(spec, time, event, arm):
    """(g, variance, z) of one weight spec on subject columns."""
    risk = risk_arrays(time, event, arm)
    mean, var = moment_arrays(risk)
    w = weights_from_km_left(spec, risk.km_left)
    return statistic_from_arrays(w[None], risk, mean, var, ())[0][0]


class TestWeightedLogrank:
    def test_two_subject_hand_example(self):
        """g = (0 - 0.5)*1 + (1 - 1)*1 = -0.5; var = 0.25; z = 1."""
        g, variance, z = _statistic(WeightSpec.constant(), *TWO_SUBJECTS)
        assert g == -0.5
        assert variance == 0.25
        assert z == 1.0

    def test_symmetric_dataset_gives_zero(self):
        """Duplicating every subject onto both arms forces g = z = 0."""
        base = [(1.0, 1), (2.0, 0), (3.0, 1), (4.0, 1), (5.0, 0)]
        time, event, arm = zip(*((t, e, a) for t, e in base for a in (0, 1)))
        g, _, z = _statistic(WeightSpec.modest(0.5), time, event, arm)
        assert g == 0.0
        assert z == 0.0

    def test_z_scale_invariant(self):
        rng = np.random.default_rng(11)
        time, event, arm = random_dataset(rng)
        risk = risk_arrays(time, event, arm)
        mean, var = moment_arrays(risk)
        w = weights_from_km_left(WeightSpec.modest(0.5), risk.km_left)
        _, _, z1 = statistic_from_arrays(w[None], risk, mean, var, ())[0][0]
        _, _, z2 = statistic_from_arrays(7.0 * w[None], risk, mean, var, ())[0][0]
        assert_allclose(z1, z2, rtol=1e-12)

    @pytest.mark.parametrize(
        "spec,oracle_weight",
        [
            (WeightSpec.constant(), constant_weight),
            (WeightSpec.modest(0.5), modest_weight(0.5)),
            (WeightSpec.fleming_harrington(0, 0.5), fleming_harrington_weight(0, 0.5)),
            (WeightSpec.fleming_harrington(1, 1), fleming_harrington_weight(1, 1)),
        ],
    )
    def test_matches_oracle(self, spec, oracle_weight):
        rng = np.random.default_rng(7)
        for _ in range(100):
            time, event, arm = random_dataset(rng)
            try:
                g, variance, z = _statistic(spec, time, event, arm)
            except NumericalError:
                continue  # all-weight-zero or all-variance-zero draws
            g_o, variance_o, z_o = weighted_logrank_oracle(time, event, arm, oracle_weight)
            assert_allclose(g, g_o, atol=1e-12)
            assert_allclose(variance, variance_o, atol=1e-12)
            assert_allclose(z, z_o, atol=1e-12)

    def test_degenerate_variance_raises(self):
        """Every subject dying at the same instant leaves no variance."""
        with pytest.raises(NumericalError, match="degenerate variance"):
            _statistic(WeightSpec.constant(), [1.0, 1.0], [1, 1], [0, 1])


def _result(spec, time, event, arm):
    """(g, variance, z) on subject columns, or None when the variance is zero."""
    try:
        return _statistic(spec, time, event, arm)
    except NumericalError:
        return None


def _z_bits(spec, time, event, arm):
    res = _result(spec, time, event, arm)
    return None if res is None else res[2].hex()


SPECS = [WeightSpec.constant(), WeightSpec.modest(0.5), WeightSpec.fleming_harrington(0, 0.5)]


def _ranks(time):
    return np.unique(time, return_inverse=True)[1]


class TestInvariance:
    """Properties of z on the random tied trials test_dataset draws."""

    @pytest.mark.parametrize("spec", SPECS, ids=["lr", "mw", "fh"])
    @given(records=trials(), data=st.data())
    def test_record_order_leaves_z_bit_identical(self, spec, records, data):
        shuffled = data.draw(st.permutations(records))
        assert _z_bits(spec, *columns(shuffled)) == _z_bits(spec, *columns(records))

    @pytest.mark.parametrize("spec", SPECS, ids=["lr", "mw", "fh"])
    @given(records=trials(), power=st.integers(-10, 10))
    def test_power_of_two_time_scale_leaves_z_bit_identical(self, spec, records, power):
        time, event, arm = columns(records)
        scaled = _z_bits(spec, time * 2.0**power, event, arm)
        assert scaled == _z_bits(spec, time, event, arm)

    @pytest.mark.parametrize("spec", SPECS, ids=["lr", "mw", "fh"])
    @given(records=trials(), c=st.floats(1e-3, 1e3))
    def test_any_positive_time_scale_leaves_z_bit_identical(self, spec, records, c):
        """z reads times only through their order and ties, so any c > 0 that
        keeps both (rounding can merge two times a few ulp apart) keeps z."""
        time, event, arm = columns(records)
        assume(np.array_equal(_ranks(time * c), _ranks(time)))
        assert _z_bits(spec, time * c, event, arm) == _z_bits(spec, time, event, arm)

    @given(records=trials())
    def test_arm_swap_negates_lr_z(self, records):
        """Swapping labels keeps the variance bit for bit and negates z."""
        time, event, arm = columns(records)
        base = _result(WeightSpec.constant(), time, event, arm)
        swapped = _result(WeightSpec.constant(), time, event, 1 - arm)
        if base is None:
            assert swapped is None
            return
        assert swapped[1].hex() == base[1].hex()
        # abs covers a z that cancels to about zero
        assert swapped[2] == pytest.approx(-base[2], rel=1e-12, abs=1e-12)


class TestEdgeCases:
    """Risk tables at the edges of the statistic's domain, checked through z."""

    def test_all_events_tied_at_one_time(self):
        """One event time: n=6, n1=3, d=4, d1=1, so g = 1 - 2 and var = 0.4.
        KM is 1 there, so mw weighs like lr and fh(0, 0.5) weighs 0."""
        time, event, arm = [1.0] * 4 + [2.0] * 2, [1] * 4 + [0] * 2, [0, 0, 0, 1, 1, 1]
        for spec in SPECS[:2]:
            g, variance, z = _statistic(spec, time, event, arm)
            assert g == -1.0
            assert variance == pytest.approx(0.4, rel=1e-15)
            assert z == pytest.approx(1.0 / math.sqrt(0.4), rel=1e-15)
        with pytest.raises(NumericalError, match="degenerate variance"):
            _statistic(SPECS[2], time, event, arm)

    @pytest.mark.parametrize("last", [
        pytest.param(([9.0], [1], [1]), id="risk-set-of-one"),
        pytest.param(([9.0, 9.0], [1, 1], [0, 1]), id="all-at-risk-die"),
    ])
    def test_km_falls_to_zero_at_the_last_event(self, last):
        """The last event time empties the risk set, so KM falls to 0 after it
        while km_left stays positive: fh weights with rho > 0 stay finite, and
        that time adds nothing to g or the variance (its null variance is 0)."""
        head = ([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [1, 1, 0, 1, 1, 0], [0, 1, 0, 1, 0, 1])
        time, event, arm = (h + l for h, l in zip(head, last))
        risk = risk_arrays(time, event, arm)
        assert risk.d_total[-1] == risk.n_total[-1]
        assert risk.km_left.min() > 0.0
        assert moment_arrays(risk)[1][-1] == 0.0
        censored_last = (time, head[1] + [0] * len(last[0]), arm)
        for spec, oracle_weight in [
            (WeightSpec.constant(), constant_weight),
            (WeightSpec.modest(0.5), modest_weight(0.5)),
            (WeightSpec.fleming_harrington(0, 0.5), fleming_harrington_weight(0, 0.5)),
            (WeightSpec.fleming_harrington(1, 1), fleming_harrington_weight(1, 1)),
        ]:
            assert np.isfinite(weights_from_km_left(spec, risk.km_left)).all()
            _, _, z = _statistic(spec, time, event, arm)
            _, _, z_oracle = weighted_logrank_oracle(time, event, arm, oracle_weight)
            assert_allclose(z, z_oracle, atol=1e-12)
            assert z == _statistic(spec, *censored_last)[2]


class TestCalibration:
    def test_permutation_null_mean_and_variance(self):
        """Under random label permutation, z is near-standardized.

        Checks the empirical mean within 4 SE of 0 and variance in
        [0.8, 1.2] on a fixed 300-subject dataset with well over 100
        events.
        """
        rng = np.random.default_rng(2024)
        n = 300
        time = rng.exponential(10.0, size=n).round(1) + 0.1
        event = (rng.random(n) < 0.8).astype(int)
        arm = np.repeat([0, 1], n // 2)
        assert event.sum() >= 100

        spec = WeightSpec.modest(0.5)
        zs = []
        for _ in range(2000):
            perm = rng.permutation(arm)
            risk = risk_arrays(time, event, perm)
            mean, var = moment_arrays(risk)
            w = weights_from_km_left(spec, risk.km_left)
            zs.append(statistic_from_arrays(w[None], risk, mean, var, ())[0][0][2])
        zs = np.asarray(zs)
        assert abs(zs.mean()) < 4.0 / math.sqrt(len(zs))
        assert 0.8 <= zs.var() <= 1.2


@st.composite
def float_matrices(draw):
    """(1-9, 0-64) float64 arrays: magnitudes within a narrow or wide span of
    binary exponents anywhere in the float range, mixed with any float,
    signed zeros, subnormals, infinities and NaN."""
    top = draw(st.integers(-1074, 1024))
    span = draw(st.sampled_from([0, 4, 60, 500, 960, 1000, 1100, 2200]))
    spanned = st.builds(
        math.ldexp, st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True), st.integers(top - span, top)
    )
    special = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, math.inf, -math.inf, math.nan])
    elements = draw(
        st.sampled_from([spanned, st.one_of(spanned, special), st.floats(), st.one_of(spanned, st.floats())])
    )
    rows, width = draw(st.integers(1, 9)), draw(st.integers(0, 64))
    cells = draw(st.lists(elements, min_size=rows * width, max_size=rows * width))
    return np.array(cells, dtype=np.float64).reshape(rows, width)


def _fsum_hex(row):
    """math.fsum of a row as float.hex, or the type of the exception it raises."""
    try:
        return math.fsum(row).hex()
    except (OverflowError, ValueError) as exc:
        return type(exc)


class TestExactRowSums:
    """_row_sums is math.fsum, row by row, and evaluate's bytes do not depend on it."""

    @given(x=float_matrices())
    @example(x=np.array([[1.0, 1e-310, 3.0]]))  # 1084 bits: scaled to integers, 3.0 passes 2**1024
    # 61 odd integers whose low limbs would sum past 2**53 if a limb were one
    # bit wider, and a last value that cancels all but those low bits
    @example(x=np.append(2.0**53 - 1 - 2 * np.arange(61), -61 * 2.0**53)[None])
    @example(x=np.array([[1e308, 1e308, -1e308]]))  # fsum's intermediate overflow
    @example(x=np.array([[-0.0, -0.0], [-0.0, -0.0]]))
    @example(x=np.array([[5e-324, -5e-324]]))
    @example(x=np.zeros((1, 0)))
    @example(x=np.zeros((2, 3)))  # no nonzero value: every row falls back to fsum
    @example(x=np.array([[0.0, -0.0], [0.0, -3.5]]))  # one nonzero value sets both ends of the span
    @example(x=np.array([[0.0, math.nan], [1.0, 0.0]]))  # NaN is the largest magnitude, not a zero
    def test_each_row_is_fsum(self, x):
        want = [_fsum_hex(row) for row in x.tolist()]
        errors = [w for w in want if isinstance(w, type)]
        if errors:
            with pytest.raises(errors[0]):
                _row_sums(x)
        else:
            assert [v.hex() for v in _row_sums(x)] == want

    @staticmethod
    def _triples(specs, tests, risk):
        try:
            return [tuple(v.hex() for v in t) for t in evaluate(specs, tests, risk)]
        except (DataError, NumericalError) as exc:
            return repr(exc)

    def test_evaluate_bytes_equal_fsum_per_row(self, monkeypatch):
        """Heavy FH weights on the example trial take the many-limb path."""
        plan = _RunPlan(paper_methods())
        fh = [WeightSpec.fleming_harrington(0, g) for g in (400, 370, 380)]
        cases = [
            (plan.specs, plan.components, risk_arrays(*simulate_trial(scenario, 0, rep)))
            for scenario in BUILTIN_SCENARIOS.values()
            for rep in range(30)
        ]
        example_trial = risk_arrays(*read_survival_csv(Path(__file__).parents[1] / "data/example_trial.csv"))
        cases += [(fh[:1], [(0, 0)], example_trial), (fh[1:], [(0, 1)], example_trial)]
        got = [self._triples(*case) for case in cases]
        monkeypatch.setattr(combo_module, "_row_sums", lambda x: [math.fsum(r) for r in x.tolist()])
        assert got == [self._triples(*case) for case in cases]


class TestOneSidedP:
    def test_center(self):
        assert one_sided_p(0.0) == 0.5

    def test_tail(self):
        from scipy.special import ndtri

        assert_allclose(one_sided_p(ndtri(0.975)), 0.025, rtol=1e-12)

    def test_monotone_decreasing_in_z(self):
        zs = np.linspace(-3, 3, 13)
        ps = [one_sided_p(z) for z in zs]
        assert all(a > b for a, b in zip(ps, ps[1:]))
