"""Tests for the three weight families and the weight-spec grammar."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rmwtest.errors import GrammarError
from rmwtest.weights import WeightSpec, parse_weight_spec, weights_from_km_left


class TestWeightSpec:
    def test_constant(self):
        spec = WeightSpec.constant()
        assert spec.label() == "constant"

    @pytest.mark.parametrize("s", [0.0, -0.1, 1.5])
    def test_modest_s_star_range(self, s):
        with pytest.raises(ValueError):
            WeightSpec.modest(s)

    def test_modest_boundary_one_allowed(self):
        WeightSpec.modest(1.0)

    @pytest.mark.parametrize("rho,gamma", [(-0.1, 0.0), (0.0, -0.1)])
    def test_fh_nonnegative(self, rho, gamma):
        with pytest.raises(ValueError):
            WeightSpec.fleming_harrington(rho, gamma)

    def test_labels(self):
        assert WeightSpec.modest(0.5).label() == "mw(0.5)"
        assert WeightSpec.fleming_harrington(0, 0.5).label() == "fh(0,0.5)"


class TestEvaluateWeights:
    """Weight values at given pooled Kaplan-Meier left-limits."""

    def test_constant_all_one(self):
        w = weights_from_km_left(WeightSpec.constant(), np.array([1.0, 0.8, 0.4]))
        assert w.tolist() == [1.0, 1.0, 1.0]

    def test_modest_first_row_is_one(self):
        w = weights_from_km_left(WeightSpec.modest(0.5), np.array([1.0, 0.7, 0.3, 0.1]))
        assert w[0] == 1.0
        # weights rise to 1/s* and then stay flat
        assert_allclose(w, [1.0, 1.0 / 0.7, 2.0, 2.0], rtol=1e-15)

    def test_modest_monotone_and_bounded(self):
        rng = np.random.default_rng(3)
        km = np.sort(rng.random(50))[::-1]
        km[0] = 1.0
        w = weights_from_km_left(WeightSpec.modest(0.3), km)
        assert np.all(np.diff(w) >= 0)
        assert w.min() >= 1.0 and w.max() <= 1.0 / 0.3 + 1e-15

    def test_fh_first_event_weight_zero(self):
        """FH(0, gamma>0) gives the first event (km_left = 1) zero weight."""
        w = weights_from_km_left(WeightSpec.fleming_harrington(0, 0.5), np.array([1.0, 0.6]))
        assert w[0] == 0.0
        assert_allclose(w[1], np.sqrt(0.4), rtol=1e-15)

    def test_fh_zero_zero_equals_constant(self):
        """0^0 = 1 so FH(0,0) is exactly the unweighted test."""
        w = weights_from_km_left(WeightSpec.fleming_harrington(0, 0), np.array([1.0, 0.5, 0.0]))
        assert w.tolist() == [1.0, 1.0, 1.0]

    def test_fh_general(self):
        w = weights_from_km_left(
            WeightSpec.fleming_harrington(1.0, 2.0), np.array([0.75])
        )
        assert_allclose(w, [0.75 * 0.25**2], rtol=1e-15)


class TestGrammar:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("constant", WeightSpec.constant()),
            ("lr", WeightSpec.constant()),
            ("mw(0.5)", WeightSpec.modest(0.5)),
            ("mw(s*=0.25)", WeightSpec.modest(0.25)),
            ("fh(0,0.5)", WeightSpec.fleming_harrington(0, 0.5)),
            ("  fh( 1 , 2 ) ", WeightSpec.fleming_harrington(1, 2)),
            ("FH(0,0.5)", WeightSpec.fleming_harrington(0, 0.5)),
        ],
    )
    def test_accepts(self, text, expected):
        assert parse_weight_spec(text) == expected

    def test_unknown_family(self):
        with pytest.raises(GrammarError, match="offset 0"):
            parse_weight_spec("welch(0.5)")

    def test_wrong_arity(self):
        with pytest.raises(GrammarError, match="takes 1 parameter"):
            parse_weight_spec("mw(0.5,0.6)")

    def test_not_a_number(self):
        with pytest.raises(GrammarError, match="not a number"):
            parse_weight_spec("mw(abc)")

    def test_offset_shift_for_embedded_specs(self):
        with pytest.raises(GrammarError, match="offset 10"):
            parse_weight_spec("welch(1)", offset=10)

    def test_semantic_error_carries_offset(self):
        with pytest.raises(GrammarError, match="offset 3"):
            parse_weight_spec("mw(1.5)")
