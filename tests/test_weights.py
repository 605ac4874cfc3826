"""Tests for the three weight families and the weight-spec grammar."""

import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from rmwtest.cli import parse_method_grammar
from rmwtest.errors import GrammarError
from rmwtest.weights import WeightSpec, weights_from_km_left

def single_test_weight(text):
    """The weight of the single test a weight string parses to."""
    return parse_method_grammar(text)[0].combo.w1


PARAMETER = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
SPECS = st.one_of(
    st.just(WeightSpec.constant()),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True).map(WeightSpec.modest),
    st.builds(WeightSpec.fleming_harrington, PARAMETER, PARAMETER),
)


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

    @pytest.mark.parametrize(
        "rho,gamma",
        [(-0.1, 0.0), (0.0, -0.1), (np.nan, 0.0), (0.0, np.nan), (np.inf, 0.0), (0.0, np.inf)],
    )
    def test_fh_nonnegative(self, rho, gamma):
        with pytest.raises(ValueError):
            WeightSpec.fleming_harrington(rho, gamma)

    def test_labels(self):
        assert WeightSpec.modest(0.5).label() == "mw(0.5)"
        assert WeightSpec.fleming_harrington(0, 0.5).label() == "fh(0,0.5)"
        # all significant digits, not the six of '%g'
        assert WeightSpec.modest(0.123456789).label() == "mw(0.123456789)"
        assert WeightSpec.fleming_harrington(1e6, 2.5e-7).label() == "fh(1000000,2.5e-07)"

    @pytest.mark.parametrize("family,params", [
        ("mw", ()),
        ("fh", (0.0,)),
        ("constant", (1.0,)),
        ("modest", (0.5,)),
    ])
    def test_direct_construction_checks_family_and_arity(self, family, params):
        with pytest.raises(ValueError):
            WeightSpec(family, params)

    def test_direct_construction_equals_the_named_constructor(self):
        spec = WeightSpec("mw", [0.5])
        assert spec == WeightSpec.modest(0.5)
        assert hash(spec) == hash(WeightSpec.modest(0.5))

    @given(spec=SPECS)
    def test_label_round_trips(self, spec):
        assert single_test_weight(spec.label()) == spec


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
            ("fh(rho=0,gamma=0.5)", WeightSpec.fleming_harrington(0, 0.5)),
            ("lr()", WeightSpec.constant()),
        ],
    )
    def test_accepts(self, text, expected):
        assert single_test_weight(text) == expected

    def test_unknown_family(self):
        with pytest.raises(GrammarError, match="offset 0"):
            single_test_weight("welch(0.5)")

    def test_wrong_arity(self):
        with pytest.raises(GrammarError, match="takes 1 parameter"):
            single_test_weight("mw(0.5,0.6)")

    def test_not_a_number(self):
        with pytest.raises(GrammarError, match="not a number"):
            single_test_weight("mw(abc)")
        with pytest.raises(GrammarError, match="offset 3: not a number: '0_5'"):
            single_test_weight("mw(0_5)")

    @pytest.mark.parametrize(
        "text,message",
        [
            ("fh(gamma=0.5,rho=0)", "offset 3: parameter 1 of fh is 'rho', got 'gamma'"),
            ("fh(0,rho=0.5)", "offset 5: parameter 2 of fh is 'gamma', got 'rho'"),
            ("mw(x=0.5)", "offset 3: parameter 1 of mw is 's*', got 'x'"),
        ],
    )
    def test_named_parameter_must_be_at_its_position(self, text, message):
        with pytest.raises(GrammarError, match=re.escape(message)):
            single_test_weight(text)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("mw(0.5", "offset 6: expected ',' or ')', got end of input"),
            ("mw(0.5) x", "offset 8: expected end of input, got 'x'"),
            ("", "offset 0: expected a weight family, got end of input"),
        ],
    )
    def test_structure_errors_carry_offset(self, text, message):
        with pytest.raises(GrammarError, match=re.escape(message)):
            single_test_weight(text)

    def test_semantic_error_carries_offset(self):
        with pytest.raises(GrammarError, match="offset 3"):
            single_test_weight("mw(1.5)")
