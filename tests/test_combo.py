"""Tests for the bivariate-normal kernel and max-combo inference."""

import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import ndtr, ndtri

import oracles as oracles_module
import rmwtest.combo as combo_module
from rmwtest.combo import (
    ComboSpec,
    bvn_upper,
    combo_pvalue,
    combo_reject,
    critical_values,
    evaluate,
    moment_arrays,
    one_sided_p,
    run_combo_test,
    statistic_from_arrays,
    union_tail,
)
from rmwtest.dataset import build_risk_table, read_survival_csv, risk_arrays
from rmwtest.errors import DataError, NumericalError
from rmwtest.harness import MethodSpec, _replicate_row, _RunPlan, paper_methods
from rmwtest.simulator import BUILTIN_SCENARIOS, simulate_trial
from rmwtest.weights import WeightSpec, weights_from_km_left

from oracles import (
    _middle_integral_reference,
    bvn_upper_oracle,
    bvn_upper_reference,
    constant_weight,
    correlation_oracle,
    fleming_harrington_weight,
    modest_weight,
    random_dataset,
)

LR = WeightSpec.constant()
MW = WeightSpec.modest(0.5)
FH = WeightSpec.fleming_harrington(0, 0.5)
EXAMPLE_TRIAL = Path(__file__).resolve().parents[1] / "data" / "example_trial.csv"


class TestComboSpec:
    def test_defaults(self):
        spec = ComboSpec(LR, MW)
        assert spec.k1 == spec.k2 == 0.5
        assert spec.alpha == 0.025

    @pytest.mark.parametrize("k1", [0.4, 1.1, 0.3, math.nan])
    def test_k_ordering_and_sum(self, k1):
        """k2 = 1 - k1 makes the shares sum to 1; k1 >= k2 is k1 >= 0.5."""
        with pytest.raises(ValueError):
            ComboSpec(LR, MW, k1=k1)

    def test_k2_is_derived_and_alpha_keyword_only(self):
        fields = dataclasses.fields(ComboSpec)
        assert [f.name for f in fields] == ["w1", "w2", "k1", "alpha"]
        assert [f.kw_only for f in fields] == [False, False, False, True]
        assert ComboSpec(LR, MW, 0.6).k2 == 0.4
        with pytest.raises(TypeError):
            ComboSpec(LR, MW, 0.6, 0.4)  # the old (k1, k2) call cannot read 0.4 as alpha
        with pytest.raises(TypeError):
            ComboSpec(LR, MW, k1=0.6, k2=0.4)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, -0.01, 1.0])
    def test_alpha_open_interval(self, alpha):
        with pytest.raises(ValueError):
            ComboSpec(LR, MW, alpha=alpha)

    def test_single_test_encoding(self):
        spec = ComboSpec(LR, LR, k1=1.0)
        assert spec.k2 == 0.0

    def test_components_are_w1_alone_at_k1_one(self):
        assert ComboSpec(LR, MW, k1=1.0).components == (LR,)
        assert ComboSpec(LR, LR, k1=1.0).components == (LR,)
        assert ComboSpec(LR, MW, k1=0.6).components == (LR, MW)
        assert ComboSpec(LR, LR).components == (LR,)
        assert ComboSpec(MW, MW, k1=0.6).components == (MW,)

    @pytest.mark.parametrize(
        "k1, alpha",
        [(0.5, 1e-25), (0.6, 1e-20), (0.9999999999999999, 0.025), (1.0, 1e-20)],
    )
    def test_share_too_small_for_a_finite_quantile(self, k1, alpha):
        """A share k_i * alpha with 1 - share == 1 would give an infinite quantile."""
        with pytest.raises(ValueError, match=f"alpha={alpha} with k1={k1}"):
            ComboSpec(LR, MW, k1, alpha=alpha)

    @pytest.mark.parametrize("k1", [0.5, 0.6, 1.0])
    def test_smallest_shares_keep_finite_thresholds(self, k1):
        """Shares of 2.3e-16, a few times the smallest accepted, solve in [0, 10]."""
        c, t1, t2 = critical_values(ComboSpec(LR, MW, k1, alpha=2.3e-16 / k1), 0.9)
        assert 0.0 < c < 10.0 and math.isfinite(t1)
        assert math.isfinite(t2) or k1 == 1.0


# the bounds hold exactly; the kernel misses them only by rounding (~1e-16)
KERNEL_SLACK = 1e-12
BOUND = st.floats(-10.0, 10.0)
RHO = st.floats(-1.0, 1.0)


class TestBvnUpper:
    def test_independence_factorizes(self):
        assert bvn_upper(0.3, -1.2, 0.0) == pytest.approx(
            ndtr(-0.3) * ndtr(1.2), abs=1e-15
        )

    def test_quadrant_closed_form(self):
        """P(X>0, Y>0) = 1/4 + asin(rho)/(2 pi)."""
        for rho in (-0.999999, -0.6, -0.2, 0.1, 0.5, 0.94, 0.999999):
            want = 0.25 + math.asin(rho) / (2.0 * math.pi)
            assert_allclose(bvn_upper(0.0, 0.0, rho), want, atol=1e-12)

    def test_perfect_correlation(self):
        assert bvn_upper(1.0, 2.0, 1.0) == pytest.approx(ndtr(-2.0), abs=1e-15)
        # Y = -X: event becomes a < X < -b
        assert bvn_upper(-1.0, -2.0, -1.0) == pytest.approx(ndtr(2.0) - ndtr(-1.0), abs=1e-15)
        assert bvn_upper(1.0, 0.0, -1.0) == 0.0

    def test_infinite_arguments(self):
        assert bvn_upper(math.inf, 0.0, 0.5) == 0.0
        assert bvn_upper(0.0, math.inf, 0.5) == 0.0
        assert bvn_upper(-math.inf, 1.3, 0.5) == pytest.approx(ndtr(-1.3), abs=1e-15)
        assert bvn_upper(-math.inf, -math.inf, 0.5) == 1.0

    def test_against_adaptive_quadrature(self):
        pts = [
            (0.5, 0.5, 0.9), (2.0, 2.0, 0.94), (1.0, -1.0, -0.5),
            (-2.0, 0.3, 0.7), (2.5, 1.5, 0.99), (0.0, 1.0, -0.99),
            (1.7, 2.3, 0.3), (-0.4, -0.9, 0.5),
        ]
        for a, b, rho in pts:
            assert_allclose(
                bvn_upper(a, b, rho), bvn_upper_oracle(a, b, rho), atol=1e-10,
                err_msg=f"bvn_upper({a}, {b}, {rho})",
            )

    def test_symmetry_in_arguments(self):
        assert bvn_upper(0.7, 1.9, 0.8) == pytest.approx(bvn_upper(1.9, 0.7, 0.8), abs=1e-13)

    @pytest.mark.parametrize("rho", [-1.0001, 1.0001, math.nan])
    def test_invalid_correlation(self, rho):
        with pytest.raises(ValueError):
            bvn_upper(0.0, 0.0, rho)

    @given(a=BOUND, b=BOUND, rho=RHO)
    def test_within_frechet_bounds(self, a, b, rho):
        """max(0, Q(a) + Q(b) - 1) <= P(X > a, Y > b) <= min(Q(a), Q(b))."""
        p = bvn_upper(a, b, rho)
        qa, qb = ndtr(-a), ndtr(-b)
        assert max(0.0, qa + qb - 1.0) - KERNEL_SLACK <= p <= min(qa, qb) + KERNEL_SLACK

    @given(a=BOUND, b=BOUND, rho1=RHO, rho2=RHO)
    def test_nondecreasing_in_rho(self, a, b, rho1, rho2):
        """Slepian's inequality: the joint upper tail grows with the correlation."""
        lo, hi = sorted((rho1, rho2))
        assert bvn_upper(a, b, lo) <= bvn_upper(a, b, hi) + KERNEL_SLACK

    def test_union_tail_complements(self):
        """P(Z1>t or Z2>t) + P(both <= t) = 1 (via the oracle for the joint CDF)."""
        t, rho = 1.3, 0.6
        both_low = 1.0 - 2.0 * ndtr(-t) + bvn_upper_oracle(t, t, rho)
        assert_allclose(union_tail(t, t, rho), 1.0 - both_low, atol=1e-10)


def band_edge(b, rho):
    """The upper end of bvn_upper's transition band for (b, rho), before clipping."""
    s = math.sqrt((1.0 - rho) * (1.0 + rho))
    return max((b - 9.0 * s) / rho, (b + 9.0 * s) / rho)


# a and b around the usual thresholds, at the clipping limit +-12.5 and past it
GRID_A = (-13.0, -12.5, -3.0, -0.5, 0.0, 1.96, 2.5, 6.0, 12.5, 13.0)
GRID_B = (-4.0, -1.0, 0.0, 1.3, 2.2, 9.0)
# negative rho, |rho| near 1, and rho near 0
GRID_RHO = (-(1 - 1e-12), -0.999999, -0.9, -0.3, -1e-9, 1e-9, 0.2, 0.6, 0.95, 0.999999, 1 - 1e-12)


class TestQuadratureBits:
    """The kernel's quadrature sets each level up from cached tables and
    evaluates its first two levels in one pass; it must return the very
    bits of the one-level-at-a-time reference in tests/oracles.py."""

    @pytest.mark.parametrize("rho", GRID_RHO)
    def test_grid_equals_reference(self, rho):
        for a in GRID_A:
            for b in GRID_B:
                assert bvn_upper(a, b, rho) == bvn_upper_reference(a, b, rho), (a, b, rho)

    @given(a=st.floats(-14.0, 14.0), b=st.floats(-14.0, 14.0), rho=RHO)
    def test_sample_equals_reference(self, a, b, rho):
        assert bvn_upper(a, b, rho) == bvn_upper_reference(a, b, rho)

    @pytest.mark.parametrize("b, rho", [(0.5, 0.99), (1.0, 0.9), (1.0, -0.7), (0.2, 1 - 1e-9)])
    @pytest.mark.parametrize("gap", [1e-15, 1e-9, 1e-4])
    def test_narrow_band_equals_reference(self, b, rho, gap):
        """a just below the band's upper end leaves a band a few ulp to 1e-4 wide."""
        edge = band_edge(b, rho)
        for a in (edge - gap * max(1.0, abs(edge)), math.nextafter(edge, -math.inf)):
            assert bvn_upper(a, b, rho) == bvn_upper_reference(a, b, rho), (a, b, rho)

    @pytest.mark.parametrize("lo, hi", [(0.0, 5e-324), (-5e-324, 5e-324), (1.0, math.nextafter(1.0, 2.0))])
    def test_narrowest_bands_equal_reference(self, lo, hi):
        """Widths of one or two subnormals make the step 0 (linspace's own branch)."""
        b, rho = 0.5, 0.8
        s = math.sqrt((1.0 - rho) * (1.0 + rho))
        assert combo_module._middle_integral(lo, hi, b, rho, s) == _middle_integral_reference(
            lo, hi, b, rho, s
        )

    def test_edges_replicate_linspace(self):
        rng = np.random.default_rng(18)
        # a width of one subnormal makes the step 0, which linspace handles on its own
        assert (5e-324 - 0.0) / 4 == 0.0
        cases = [(0.0, 5e-324, 4), (-5e-324, 5e-324, 7), (-12.5, 12.5, 50), (1.0, 1.0, 4)]
        widths = [1e-310, 1e-300, 1e-15, 1e-6, 0.5, 3.0, 25.0]
        for _ in range(2000):
            lo = rng.uniform(-12.5, 12.5)
            hi = lo + widths[rng.integers(len(widths))] * rng.uniform(0.5, 2.0)
            cases.append((lo, hi, int(rng.integers(1, 3000))))
        for lo, hi, n in cases:
            expected = np.linspace(lo, hi, n + 1)
            assert combo_module._edges(lo, hi, n).tobytes() == expected.tobytes(), (lo, hi, n)

    def test_no_convergence_raises_after_nine_levels_in_both(self, monkeypatch):
        """With a negative tolerance no level converges: both versions
        evaluate the same nine levels and then raise."""
        panels, sizes = [], []
        level_nodes, ndtr_reference = combo_module._level_nodes, oracles_module.ndtr

        def record_level(lo, hi, n_panels):
            panels.append(n_panels)
            return level_nodes(lo, hi, n_panels)

        def record_ndtr(x):
            sizes.append(np.size(x))
            return ndtr_reference(x)

        monkeypatch.setattr(combo_module, "_QUAD_TOL", -1.0)
        monkeypatch.setattr(oracles_module, "_QUAD_TOL", -1.0)
        monkeypatch.setattr(combo_module, "_level_nodes", record_level)
        monkeypatch.setattr(oracles_module, "ndtr", record_ndtr)
        for kernel in (bvn_upper, bvn_upper_reference):
            with pytest.raises(NumericalError, match="failed to converge"):
                kernel(1.96, 2.2, 0.6)
        assert panels == [panels[0] * 2**k for k in range(9)]
        assert sizes == [16 * n for n in panels]

    def test_panel_tables_are_read_only(self):
        steps, weights = combo_module._panel_table(7)
        assert steps.tolist() == list(range(8))
        assert weights.tobytes() == np.tile(combo_module._GL_W, 7).tobytes()
        for array in (steps, weights):
            with pytest.raises(ValueError):
                array[0] = 1.0


def pair_correlation(w1, w2, columns):
    """The null correlation of one pair of weight specs, as evaluate gives it."""
    return evaluate((w1, w2), [(0, 1)], risk_arrays(*columns))[0][2]


class TestNullCorrelation:
    def test_self_correlation_is_one(self):
        columns = simulate_trial(BUILTIN_SCENARIOS["high_equal"], seed=4)
        assert pair_correlation(MW, MW, columns) == pytest.approx(1.0, abs=1e-12)

    def test_matches_triple_sum_oracle(self):
        rng = np.random.default_rng(17)
        pairs = [
            (LR, MW, constant_weight, modest_weight(0.5)),
            (LR, FH, constant_weight, fleming_harrington_weight(0, 0.5)),
            (MW, FH, modest_weight(0.5), fleming_harrington_weight(0, 0.5)),
        ]
        for _ in range(50):
            time, event, arm = random_dataset(rng)
            for w1, w2, f1, f2 in pairs:
                try:
                    got = pair_correlation(w1, w2, (time, event, arm))
                except NumericalError:
                    continue
                want = correlation_oracle(time, event, arm, f1, f2)
                assert_allclose(got, want, atol=1e-12)

    def test_variances_whose_product_underflows(self):
        """Two heavy FH weights on the example trial have variances whose
        product underflows; the oracle takes the product of their roots as
        evaluate does, and on weights scaled by 2**400 needs neither."""
        columns = read_survival_csv(EXAMPLE_TRIAL)
        got = pair_correlation(
            WeightSpec.fleming_harrington(0, 370), WeightSpec.fleming_harrington(0, 380), columns
        )
        weights = [fleming_harrington_weight(0, g) for g in (370, 380)]
        scaled = [lambda km, f=f: f(km) * 2.0**400 for f in weights]
        assert_allclose(got, correlation_oracle(*columns, *scaled), rtol=0, atol=1e-12)
        assert_allclose(got, correlation_oracle(*columns, *weights), rtol=0, atol=1e-12)
        assert got < 1.0

    def test_nonnegative_for_supported_families(self):
        columns = simulate_trial(BUILTIN_SCENARIOS["high_delayed"], seed=12)
        for w2 in (MW, FH):
            rho = pair_correlation(LR, w2, columns)
            assert 0.0 <= rho <= 1.0


class TestCriticalValues:
    def test_perfect_correlation_collapses_to_single_test(self):
        spec = ComboSpec(LR, MW, 0.5, alpha=0.025)
        c, t1, t2 = critical_values(spec, 1.0)
        assert_allclose(c, ndtri(0.975), atol=1e-9)
        assert t1 == t2 == c

    def test_independence_closed_form(self):
        """At rho = 0: 1 - (1 - Q(c))^2 = alpha, i.e. c = ndtri(sqrt(1 - alpha))."""
        spec = ComboSpec(LR, MW, 0.5, alpha=0.025)
        c, _, _ = critical_values(spec, 0.0)
        assert_allclose(c, ndtri(math.sqrt(0.975)), atol=1e-9)

    def test_single_test_degenerates(self):
        spec = ComboSpec(LR, LR, k1=1.0, alpha=0.025)
        c, t1, t2 = critical_values(spec, 0.4)
        assert c == 1.0
        assert_allclose(t1, ndtri(0.975), atol=1e-12)
        assert t2 == math.inf

    def test_solution_satisfies_defining_equation(self):
        for rho in (0.0, 0.3, 0.7, 0.94, 0.99):
            spec = ComboSpec(LR, MW, 0.5, alpha=0.025)
            c, _, _ = critical_values(spec, rho)
            assert_allclose(union_tail(c, c, rho), 0.025, atol=1e-9)
            uneq = ComboSpec(LR, MW, 0.6, alpha=0.025)
            _, t1, t2 = critical_values(uneq, rho)
            assert_allclose(union_tail(t1, t2, rho), 0.025, atol=1e-9)

    def test_unequal_split_orders_thresholds(self):
        """More alpha on component 1 lowers its threshold below component 2's."""
        spec = ComboSpec(LR, MW, 0.6, alpha=0.025)
        _, t1, t2 = critical_values(spec, 0.9)
        assert t1 < t2

    def test_decreasing_in_alpha(self):
        rho = 0.9
        cs = [
            critical_values(ComboSpec(LR, MW, 0.5, alpha=a), rho)[0]
            for a in (0.005, 0.01, 0.025, 0.05, 0.1)
        ]
        assert all(a > b for a, b in zip(cs, cs[1:]))

    def test_decreasing_in_correlation(self):
        spec = ComboSpec(LR, MW, 0.5, alpha=0.025)
        cs = [critical_values(spec, rho)[0] for rho in (0.0, 0.25, 0.5, 0.75, 0.95, 1.0)]
        assert all(a > b for a, b in zip(cs, cs[1:]))

    @pytest.mark.parametrize("k1", [0.5, 0.6])
    @given(rho1=st.floats(0.0, 1.0), rho2=st.floats(0.0, 1.0))
    def test_nonincreasing_in_correlation(self, k1, rho1, rho2):
        """c and both thresholds do not rise with rho, up to the tolerance of
        the bisection on c (1e-12 on c, so 1e-12 * t / c on a threshold t)."""
        spec = ComboSpec(LR, MW, k1)
        lo, hi = sorted((rho1, rho2))
        at_lo, at_hi = critical_values(spec, lo), critical_values(spec, hi)
        for v_lo, v_hi in zip(at_lo, at_hi):
            assert v_hi <= v_lo + 2e-12 * v_lo / at_lo[0]

    @pytest.mark.parametrize("rho", [0.0, 1.0])
    def test_extreme_specs_solve_inside_fixed_bracket(self, rho):
        """The root search brackets [0, 10] without expansion, even with alpha
        near 1/2 and nearly all of it on one component."""
        for k1, alpha in ((0.999, 0.4999), (0.5, 0.4999), (0.999, 1e-6), (1.0 - 1e-9, 0.49)):
            spec = ComboSpec(LR, MW, k1, alpha=alpha)
            c, t1, t2 = critical_values(spec, rho)
            assert 0.0 < c < 10.0
            assert_allclose(union_tail(t1, t2, rho), alpha, atol=1e-9)

    @pytest.mark.parametrize("k1", [0.5, 0.6, 0.75, 0.999])
    def test_bits_match_scipy_bisect(self, k1):
        """c is bit for bit the root scipy.optimize.bisect finds on [0, 10]."""
        from scipy.optimize import bisect

        for alpha in (1e-10, 0.005, 0.025, 0.1, 0.4999):
            spec = ComboSpec(LR, MW, k1, alpha=alpha)
            q1, q2 = combo_module._ray(spec, alpha)
            for rho in (0.0, 0.3, 0.9, 0.97, 1.0):
                want = bisect(
                    lambda t: union_tail(t * q1, t * q2, rho) - alpha, 0.0, 10.0, xtol=1e-12
                )
                assert critical_values(spec, rho)[0] == want

    def test_invalid_correlation_rejected(self):
        spec = ComboSpec(LR, MW)
        with pytest.raises(ValueError):
            critical_values(spec, -0.2)
        with pytest.raises(ValueError):
            critical_values(spec, 1.2)


class TestComboPvalue:
    def test_single_test_is_normal_tail(self):
        spec = ComboSpec(LR, LR, k1=1.0)
        assert_allclose(combo_pvalue(spec, 1.96, 0.0, 0.5), ndtr(-1.96), rtol=1e-12)

    def test_equal_split_is_union_at_max(self):
        spec = ComboSpec(LR, MW, 0.5)
        z1, z2, rho = 1.4, 2.1, 0.9
        assert combo_pvalue(spec, z1, z2, rho) == pytest.approx(
            union_tail(2.1, 2.1, rho), abs=1e-14
        )

    def test_unequal_p_matches_critical_value_search(self):
        """At level p, the larger scaled statistic sits exactly on its threshold."""
        spec = ComboSpec(LR, MW, 0.6, alpha=0.025)
        z1, z2, rho = 2.2, 1.7, 0.95
        p = combo_pvalue(spec, z1, z2, rho)
        at_level_p = ComboSpec(LR, MW, 0.6, alpha=p)
        _, t1, t2 = critical_values(at_level_p, rho)
        assert min(t1 - z1, t2 - z2) == pytest.approx(0.0, abs=1e-6)

    def test_p_and_reject_agree(self):
        """p <= alpha implies rejection exactly; rejection implies p <= alpha
        up to the p-value's bisection tolerance."""
        rng = np.random.default_rng(5)
        specs = [
            ComboSpec(LR, MW, 0.5),
            ComboSpec(LR, MW, 0.6),
            ComboSpec(LR, FH, 0.75),
            ComboSpec(LR, LR, 1.0),
            ComboSpec(LR, MW, 0.6, alpha=0.1),
            ComboSpec(LR, MW, 0.95, alpha=0.005),
        ]
        for _ in range(60):
            z1, z2 = rng.normal(1.9, 0.5, size=2)
            for rho in (rng.uniform(0.2, 0.99), 0.0, 1.0):
                for spec in specs:
                    p = combo_pvalue(spec, z1, z2, rho)
                    reject = combo_reject(spec, z1, z2, rho)
                    if p <= spec.alpha:
                        assert reject
                    if reject:
                        assert p <= spec.alpha + 1e-10

    def test_monotone_in_evidence(self):
        spec = ComboSpec(LR, MW, 0.6)
        ps = [combo_pvalue(spec, z, z - 0.4, 0.9) for z in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)]
        assert all(a > b for a, b in zip(ps, ps[1:]))

    @pytest.mark.parametrize("k1, z1, z2, rho, p", [
        (0.6, 2.2, 1.7, 0.95, 0.01594030077200337),
        (0.6, 2.187329446956057, 2.369893433678865, 0.9767717774555686, 0.013679892349563877),
        (0.75, 1.2, 2.6, 0.5, 0.017499231908969737),
        (0.95, 3.1, 0.4, 0.0, 0.001018481737535032),
        (0.6, 1.9, 1.9, 1.0, 0.028716559872042455),
        (0.55, -0.3, 1.1, 0.8, 0.2049725266412213),
    ])
    def test_unequal_split_bits_are_pinned(self, k1, z1, z2, rho, p):
        """Unequal-split p-values keep every bit of the bisection over the level."""
        assert combo_pvalue(ComboSpec(LR, MW, k1), z1, z2, rho) == p

    def test_weak_evidence_tops_out_at_half(self):
        spec = ComboSpec(LR, MW, 0.6)
        assert combo_pvalue(spec, -3.0, -3.0, 0.9) == 0.5


SPLITS = [0.5, 0.6, 1.0]  # equal, unequal and single-test rules


class TestEntriesRefuseTheSameInputs:
    """combo_reject, combo_pvalue, critical_values and bvn_upper refuse what
    the rule cannot read, with ValueError, rather than answer for some."""

    @pytest.mark.parametrize("k1", SPLITS)
    @pytest.mark.parametrize("rho", [-0.5, 1.5, math.nan])
    @pytest.mark.parametrize("entry", [
        pytest.param(lambda spec, rho: combo_reject(spec, 2.0, 2.0, rho), id="combo_reject"),
        pytest.param(lambda spec, rho: combo_pvalue(spec, 2.0, 2.0, rho), id="combo_pvalue"),
        pytest.param(critical_values, id="critical_values"),
    ])
    def test_correlation_outside_unit_interval(self, entry, rho, k1):
        with pytest.raises(ValueError, match=r"correlation must lie in \[0, 1\]"):
            entry(ComboSpec(LR, MW, k1), rho)

    @pytest.mark.parametrize("k1", SPLITS)
    @pytest.mark.parametrize("z1, z2", [(math.nan, 1.0), (1.0, math.nan), (math.nan, math.inf)])
    @pytest.mark.parametrize("entry", [combo_reject, combo_pvalue])
    def test_nan_statistic(self, entry, z1, z2, k1):
        with pytest.raises(ValueError, match="statistics must not be NaN"):
            entry(ComboSpec(LR, MW, k1), z1, z2, 0.5)

    @pytest.mark.parametrize("rho", [-1.0, 0.0, 0.5, 1.0])
    @pytest.mark.parametrize("a, b", [(math.nan, 0.0), (0.0, math.nan), (math.nan, -math.inf)])
    def test_kernel_refuses_nan_limits(self, a, b, rho):
        with pytest.raises(ValueError, match="limits must not be NaN"):
            bvn_upper(a, b, rho)

    @pytest.mark.parametrize("k1, p_inf, p_minus_inf", [
        (0.5, 1e-300, 1.0 - 1e-16), (0.6, 1e-12, 0.5), (1.0, 1e-300, 1.0 - 1e-16),
    ])
    def test_infinite_statistics_keep_their_results(self, k1, p_inf, p_minus_inf):
        spec = ComboSpec(LR, MW, k1)
        assert combo_reject(spec, math.inf, -math.inf, 0.5)
        assert combo_pvalue(spec, math.inf, -math.inf, 0.5) == p_inf
        assert not combo_reject(spec, -math.inf, -math.inf, 0.5)
        assert combo_pvalue(spec, -math.inf, -math.inf, 0.5) == p_minus_inf


NEAR_ONE = 1.0 - 1e-16  # rounds to the double just below 1
Z40 = st.floats(-40.0, 40.0)


class TestValidInputConverges:
    """Valid input never reaches a convergence failure (``NumericalError``)."""

    @given(
        k1=st.one_of(st.sampled_from([0.5, 1.0]), st.floats(0.5, 1.0)),
        alpha=st.floats(math.log(1e-15), math.log(0.4999)).map(math.exp),
        rho=st.one_of(st.sampled_from([0.0, NEAR_ONE, 1.0]), st.floats(0.0, 1.0)),
        z1=Z40, z2=Z40,
    )
    @example(k1=0.99999, alpha=math.exp(-1.0), rho=0.0, z1=0.0, z2=0.0)
    def test_critical_values_and_pvalue_are_finite(self, k1, alpha, rho, z1, z2):
        try:
            spec = ComboSpec(LR, MW, k1, alpha=alpha)
        except ValueError:
            assume(False)  # a share of alpha too small for a finite quantile
        c, t1, t2 = critical_values(spec, rho)
        assert math.isfinite(c) and math.isfinite(t1)
        assert math.isfinite(t2) or (k1 == 1.0 and t2 == math.inf)
        p = combo_pvalue(spec, z1, z2, rho)
        assert math.isfinite(p) and 0.0 < p < 1.0

    @pytest.mark.parametrize("k1", [0.99999, 0.9999999])
    def test_pvalue_bisection_keeps_w2_quantile_finite(self, k1):
        """Below 2**-53 / k2 a level would give w2 an infinite quantile; the
        bisection starts there, and a test that never rejects gets 0.5."""
        spec = ComboSpec(LR, MW, k1, alpha=0.025)
        assert combo_pvalue(spec, 0.0, 0.0, 0.0) == 0.5
        assert combo_pvalue(spec, 40.0, 0.0, 0.5) == 2.0**-53 / spec.k2

    @given(
        a=Z40, b=Z40,
        rho=st.one_of(st.sampled_from([-1.0, -NEAR_ONE, NEAR_ONE, 1.0]), st.floats(-1.0, 1.0)),
    )
    def test_kernel_is_a_probability(self, a, b, rho):
        assert 0.0 <= bvn_upper(a, b, rho) <= 1.0


class TestRunComboTest:
    def test_fields_cohere_on_simulated_data(self):
        table = build_risk_table(*simulate_trial(BUILTIN_SCENARIOS["high_delayed"], seed=3))
        spec = ComboSpec(LR, MW, 0.5, alpha=0.025)
        res = run_combo_test(spec, table)
        assert 0.0 <= res.correlation <= 1.0
        assert res.threshold1 == res.threshold2 == res.c
        assert res.reject == (res.z1 > res.threshold1 or res.z2 > res.threshold2)
        assert res.reject == (res.p_value <= spec.alpha)
        assert res.reject == combo_reject(spec, res.z1, res.z2, res.correlation)
        assert 0.0 < res.p_value < 1.0

    def test_single_test_matches_wlrt(self):
        """A single test's z is the wlrt statistic bit for bit, on random
        datasets and every weight family; a degenerate variance fails both."""
        rng = np.random.default_rng(8)
        weights = [LR, MW, FH, WeightSpec.fleming_harrington(1, 1)]
        for _ in range(100):
            time, event, arm = random_dataset(rng)
            risk = risk_arrays(time, event, arm)
            mean, var = moment_arrays(risk)
            table = build_risk_table(time, event, arm)
            for w in weights:
                try:
                    wv = weights_from_km_left(w, risk.km_left)
                    z = statistic_from_arrays(wv[None], risk, mean, var, ())[0][0][2]
                except NumericalError:
                    with pytest.raises(NumericalError, match="degenerate variance"):
                        run_combo_test(ComboSpec(w, w, k1=1.0), table)
                    continue
                res = run_combo_test(ComboSpec(w, w, k1=1.0), table)
                assert res.z1 == z
                assert_allclose(res.p_value, one_sided_p(z), rtol=1e-12)


WEIGHT_SPECS = st.one_of(
    st.just(WeightSpec.constant()),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True).map(WeightSpec.modest),
    st.builds(
        WeightSpec.fleming_harrington,
        st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
        st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    ),
)


# variances positive, but their squares underflow on random_dataset(seed 1
# and 22): each test (i, i) must still get its correlation of 1
FH400 = WeightSpec.fleming_harrington(0, 400)
FH370 = WeightSpec.fleming_harrington(0, 370)


def analyze_where_harness_runs(spec, seed):
    """(run_combo_test's result, risk table) for a spec that reads w1 alone,
    on random_dataset(seed): it raises exactly when _replicate_row does, and
    otherwise reaches its decision with z2 equal to z1 and correlation 1.
    None when both raise."""
    time, event, arm = random_dataset(np.random.default_rng(seed))
    table = build_risk_table(time, event, arm)
    try:
        row = _replicate_row(_RunPlan([MethodSpec("m", spec)]), time, event, arm)
    except (DataError, NumericalError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            run_combo_test(spec, table)
        return None
    res = run_combo_test(spec, table)
    assert res.reject == row[0]
    assert res.z2 == res.z1 and res.correlation == 1.0
    return res, table


class TestSingleTestReadsW1Alone:
    """A k1 = 1 test is its w1 test wherever it runs, whatever its w2."""

    @given(w1=WEIGHT_SPECS, w2=WEIGHT_SPECS, seed=st.integers(0, 2**32 - 1))
    @example(w1=FH400, w2=LR, seed=1)
    @example(w1=FH370, w2=MW, seed=22)
    def test_analyze_and_harness_agree(self, w1, w2, seed):
        ran = analyze_where_harness_runs(ComboSpec(w1, w2, k1=1.0), seed)
        if ran is not None:
            res, table = ran
            assert res == run_combo_test(ComboSpec(w1, w1, k1=1.0), table)


class TestEqualWeightComboReadsItsWeightOnce:
    """max(w, w) reads w once, in analyze and in the harness, with correlation 1."""

    @given(w=WEIGHT_SPECS, k1=st.sampled_from([0.5, 0.6]), seed=st.integers(0, 2**32 - 1))
    @example(w=FH400, k1=0.5, seed=1)
    @example(w=FH370, k1=0.6, seed=22)
    def test_analyze_and_harness_agree(self, w, k1, seed):
        analyze_where_harness_runs(ComboSpec(w, w, k1), seed)


class TestStatisticCoreInvariants:
    """What lets evaluate cap a correlation at 1 and nothing more: every
    weight is >= 0, so every correlation lies in [0, 1]."""

    @given(specs=st.lists(WEIGHT_SPECS, min_size=2, max_size=4), seed=st.integers(0, 2**32 - 1))
    def test_weights_nonnegative_and_correlations_in_unit_interval(self, specs, seed):
        risk = risk_arrays(*random_dataset(np.random.default_rng(seed)))
        for spec in specs:
            assert (weights_from_km_left(spec, risk.km_left) >= 0.0).all(), spec
        pairs = [(i, j) for i in range(len(specs)) for j in range(i + 1, len(specs))]
        try:
            stats = evaluate(specs, pairs, risk)
        except NumericalError:  # a weight vector with zero variance on this table
            return
        for (i, j), (_, _, r) in zip(pairs, stats, strict=True):
            assert 0.0 <= r <= 1.0, (specs[i], specs[j], r)

    def test_paper_plan_shares_specs_and_pairs(self, monkeypatch):
        plan = _RunPlan(paper_methods())
        assert plan.specs == [LR, MW, FH]
        assert plan.components == [(0, 0), (1, 1), (0, 1), (0, 1), (2, 2), (0, 2)]
        shapes = []
        row_sums = combo_module._row_sums
        monkeypatch.setattr(combo_module, "_row_sums", lambda x: shapes.append(x.shape) or row_sums(x))
        risk = risk_arrays(*simulate_trial(BUILTIN_SCENARIOS["high_delayed"], seed=1))
        stats = evaluate(plan.specs, plan.components, risk)
        # one sum of g and variance of 3 specs, and the cross-sums of (0, 1) and (0, 2)
        assert shapes == [(3 * 2 + 2, len(risk.tau))]
        assert [r for _, _, r in stats][:2] == [1.0, 1.0]
        assert stats[2] == stats[3] and stats[4][2] == 1.0
