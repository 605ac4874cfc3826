"""Tests for subject columns, risk-table construction, and CSV I/O."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from rmwtest.dataset import (
    RiskArrays,
    RiskTableRow,
    build_risk_table,
    parse_number,
    read_survival_csv,
    risk_arrays,
    rows_to_arrays,
    write_survival_csv,
)
from rmwtest.errors import DataError
from rmwtest.simulator import BUILTIN_SCENARIOS, simulate_trial

from oracles import risk_arrays_checks_reference, risk_table_matrix_oracle, risk_table_oracle

# Small worked example with ties and censoring at an event time:
# arm 0: events at 1, 2, 2; censored at 3
# arm 1: event at 2; censored at 1, 4
EX_TIME = [1.0, 2.0, 2.0, 3.0, 2.0, 1.0, 4.0]
EX_EVENT = [1, 1, 1, 0, 1, 0, 0]
EX_ARM = [0, 0, 0, 0, 1, 1, 1]

# Small-grid times force ties; the rest stay normal after scaling by 2**+-10.
TIMES = st.one_of(st.integers(0, 6).map(float), st.floats(1e-3, 1e3))
SUBJECT = st.tuples(TIMES, st.integers(0, 1), st.integers(0, 1))


@st.composite
def trials(draw):
    """(time, event, arm) records with at least one event and both arms."""
    records = draw(st.lists(SUBJECT, max_size=40))
    records.append((draw(TIMES), 1, 0))
    records.append((draw(TIMES), draw(st.integers(0, 1)), 1))
    return records


# 0/1 columns of each dtype a caller may pass: (valid values, values the checks reject)
ZERO_ONE_VALUES = {
    "int64": ([0, 1], [2, -1]),
    "int32": ([0, 1], [2, -1]),
    "bool": ([False, True], []),
    "float64": ([0.0, -0.0, 1.0], [0.5, 2.0, math.nan, math.inf]),
    "object": ([0, 1, 0.0, True], [None, 2, ""]),
    "str": ([], ["0", "1", ""]),
}


@st.composite
def subject_columns(draw):
    """(time, event, arm) columns of up to 7 subjects, each column valid or
    not at random: bad values, mixed dtypes, now and then one length longer."""
    n = draw(st.integers(0, 6))

    def column(good, bad, dtype):
        size = draw(st.sampled_from([n, n, n, n + 1]))
        values = draw(st.sampled_from([good, good + bad] if good else [bad]))
        return np.array(draw(st.lists(st.sampled_from(values), min_size=size, max_size=size)), dtype=dtype)

    time = column([0.0, 1.0, 2.5, -0.0], [-1.0, math.nan, math.inf], np.float64)
    kinds = [draw(st.sampled_from(sorted(ZERO_ONE_VALUES))) for _ in range(2)]
    return (time, *(column(*ZERO_ONE_VALUES[kind], kind) for kind in kinds))


def columns(records):
    time, event, arm = zip(*records)
    return np.array(time), np.array(event), np.array(arm)


def assert_same_columns(got, want):
    """Equal values and the reader's dtypes: float64 time, int64 event and arm."""
    for col, ref, dtype in zip(got, want, (np.float64, np.int64, np.int64), strict=True):
        assert col.dtype == dtype
        assert np.array_equal(col, ref)


class TestSubjectColumns:
    """risk_arrays checks every subject value before building a table."""

    def test_valid(self):
        risk = risk_arrays([3.5, 1.0], [1, 0], [0, 1])
        assert risk.tau.tolist() == [3.5]

    def test_zero_time_allowed(self):
        # events exactly at entry are legal (and occur with tiny probability
        # in the simulator)
        risk = risk_arrays([0.0, 1.0], [1, 0], [1, 0])
        assert risk.tau.tolist() == [0.0]

    @pytest.mark.parametrize("time", [-1.0, float("nan"), float("inf")])
    def test_bad_time(self, time):
        with pytest.raises(DataError, match="time must be finite and >= 0"):
            risk_arrays([1.0, time], [1, 0], [0, 1])

    @pytest.mark.parametrize("event", [-1, 2, 0.5])
    def test_bad_event(self, event):
        with pytest.raises(DataError, match="event must be 0 or 1"):
            risk_arrays([1.0, 2.0], [1, event], [0, 1])

    @pytest.mark.parametrize("arm", [-1, 2, 0.5])
    def test_bad_arm(self, arm):
        with pytest.raises(DataError, match="arm must be 0 or 1"):
            risk_arrays([1.0, 2.0], [1, 0], [0, arm])

    @given(cols=subject_columns())
    @example(cols=([-1.0, 1.0], [2, 1], [0, 1]))  # a bad time and a bad event
    @example(cols=([1.0, 2.0], [2, 1], [-1, 1]))  # event 2 with arm -1
    @example(cols=([1.0, 2.0], [1, 0], [0, 2]))  # a bad arm alone
    @example(cols=([1.0, 2.0], [math.nan, 1.0], [0, 1]))
    @example(cols=([1.0, 2.0], [True, False], [0.0, 1.0]))
    @example(cols=([1.0, 2.0], [1, None], [0, 1]))  # None is falsy but not 0
    def test_errors_match_frozen_checks(self, cols):
        """Each input fails the first check it failed before, with the same message."""
        try:
            risk_arrays_checks_reference(*cols)
        except DataError as exc:
            with pytest.raises(DataError) as got:
                risk_arrays(*cols)
            assert str(got.value) == str(exc)
        else:
            risk_arrays(*cols)

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8, bool, np.float64, object])
    def test_count_columns_are_int64(self, dtype):
        want = risk_arrays(EX_TIME, EX_EVENT, EX_ARM)
        got = risk_arrays(EX_TIME, np.array(EX_EVENT, dtype=dtype), np.array(EX_ARM, dtype=dtype))
        assert [col.dtype for col in got] == [np.float64] + [np.int64] * 4 + [np.float64]
        for col, ref in zip(got, want, strict=True):
            assert col.tobytes() == ref.tobytes()


class TestRiskTable:
    def test_worked_example(self):
        """Hand-checked counts for the tied example above.

        tau=1: everyone at risk (n=7, n1=3), one event in arm 0.
        tau=2: the arm-1 subject censored at 1 has left; n=5, n1=2,
               three events of which one in arm 1. KM just before 2 is 6/7.
        """
        table = build_risk_table(EX_TIME, EX_EVENT, EX_ARM)
        assert [row.tau for row in table] == [1.0, 2.0]
        first, second = table
        assert (first.n_total, first.n_arm1, first.d_total, first.d_arm1) == (7, 3, 1, 0)
        assert (second.n_total, second.n_arm1, second.d_total, second.d_arm1) == (5, 2, 3, 1)
        assert first.km_left == 1.0
        assert_allclose(second.km_left, 6.0 / 7.0, rtol=1e-15)

    def test_censored_at_event_time_still_at_risk(self):
        """A subject censored exactly at tau counts in the risk set at tau."""
        table = build_risk_table([2.0, 2.0, 3.0], [1, 0, 0], [0, 1, 1])
        assert table[0].n_total == 3
        assert table[0].n_arm1 == 2

    def test_censoring_only_times_contribute_no_row(self):
        table = build_risk_table([1.0, 2.0, 3.0], [1, 0, 1], [0, 1, 1])
        assert [row.tau for row in table] == [1.0, 3.0]

    def test_matches_oracle_on_random_data(self):
        """Exact counting-oracle agreement on edge cases and 200 random tied datasets."""
        from oracles import random_dataset

        edge_cases = [
            # all events tied at one time
            ([3.0, 3.0, 3.0, 3.0, 5.0], [1, 1, 1, 1, 0], [0, 1, 0, 1, 1]),
            # a risk set of size one at the last event time
            ([1.0, 2.0, 3.0, 4.0], [1, 0, 1, 1], [0, 1, 1, 0]),
            # an event at time 0
            ([0.0, 0.0, 1.0, 2.0], [1, 0, 1, 0], [1, 0, 0, 1]),
            # a censoring tied with an event in the other arm
            ([2.0, 2.0, 3.0, 1.0], [1, 0, 1, 1], [0, 1, 1, 0]),
        ]
        rng = np.random.default_rng(42)
        datasets = edge_cases + [random_dataset(rng) for _ in range(200)]
        for time, event, arm in datasets:
            rows = risk_arrays(time, event, arm)
            expected = risk_table_oracle(time, event, arm)
            assert len(rows.tau) == len(expected)
            for i, ref in enumerate(expected):
                assert rows.tau[i] == ref["tau"]
                assert rows.n_total[i] == ref["n"]
                assert rows.n_arm1[i] == ref["n1"]
                assert rows.d_total[i] == ref["d"]
                assert rows.d_arm1[i] == ref["d1"]
                assert rows.km_left[i] == ref["km_left"]

    def test_matches_matrix_oracle_on_full_size_trials(self):
        """Exact agreement on one replicate of every built-in scenario (N up to 6,000)."""
        for scenario in BUILTIN_SCENARIOS.values():
            time, event, arm = simulate_trial(scenario, seed=11)
            got = risk_arrays(time, event, arm)
            expected = risk_table_matrix_oracle(time, event, arm)
            for name, col, ref in zip(got._fields, got, expected):
                assert np.array_equal(col, ref), (scenario.name, name)

    @given(records=trials(), data=st.data())
    def test_record_order_does_not_matter(self, records, data):
        base = risk_arrays(*columns(records))
        shuffled = risk_arrays(*columns(data.draw(st.permutations(records))))
        for col, other in zip(base, shuffled):
            assert col.dtype == other.dtype
            assert col.tobytes() == other.tobytes()

    @given(records=trials(), power=st.integers(-10, 10))
    def test_power_of_two_time_scale(self, records, power):
        """Scaling times by 2**k scales tau exactly and changes nothing else."""
        time, event, arm = columns(records)
        base = risk_arrays(time, event, arm)
        scaled = risk_arrays(time * 2.0**power, event, arm)
        assert scaled.tau.tobytes() == (base.tau * 2.0**power).tobytes()
        for col, other in zip(base[1:], scaled[1:]):
            assert col.tobytes() == other.tobytes()

    def test_row_fields_follow_the_columns(self):
        """build_risk_table fills each row positionally from the columns."""
        assert RiskArrays._fields == tuple(f.name for f in dataclasses.fields(RiskTableRow))

    def test_rows_equal_the_per_cell_conversion(self):
        """Each row holds the Python float or int that float() or int() of
        its column's cell gives."""
        columns = simulate_trial(BUILTIN_SCENARIOS["high_delayed"], seed=2)
        arrays = risk_arrays(*columns)
        kinds = (float, int, int, int, int, float)
        want = [RiskTableRow(*(kind(col[i]) for kind, col in zip(kinds, arrays))) for i in range(len(arrays))]
        got = build_risk_table(*columns)
        assert got == want
        assert all(tuple(map(type, dataclasses.astuple(row))) == kinds for row in got)

    def test_rows_round_trip(self):
        table = build_risk_table(EX_TIME, EX_EVENT, EX_ARM)
        arrays = rows_to_arrays(table)
        assert list(arrays.tau) == [row.tau for row in table]
        assert list(arrays.d_arm1) == [row.d_arm1 for row in table]

    def test_empty_input_rejected(self):
        with pytest.raises(DataError, match="no data"):
            build_risk_table([], [], [])

    def test_no_events_rejected(self):
        with pytest.raises(DataError, match="no events"):
            build_risk_table([1.0, 2.0], [0, 0], [0, 1])

    def test_single_arm_rejected(self):
        with pytest.raises(DataError, match="one arm"):
            build_risk_table([1.0, 2.0], [1, 1], [0, 0])

    def test_event_must_be_binary(self):
        with pytest.raises(DataError, match="event must be 0 or 1"):
            risk_arrays([1.0, 2.0], [2, 0], [0, 1])

    def test_columns_must_have_equal_length(self):
        with pytest.raises(DataError, match="equal length"):
            risk_arrays([1.0, 2.0, 3.0], [1, 0], [0, 1, 1])

    def test_row_invariants_enforced(self):
        with pytest.raises(DataError):
            RiskTableRow(tau=1.0, n_total=2, n_arm1=3, d_total=1, d_arm1=0, km_left=1.0)
        with pytest.raises(DataError):
            RiskTableRow(tau=1.0, n_total=5, n_arm1=2, d_total=1, d_arm1=0, km_left=1.5)

    def test_row_needs_someone_at_risk(self):
        """An empty risk set would make the null moments 0/0 downstream."""
        with pytest.raises(DataError, match=r"empty risk set at tau=2\.0"):
            RiskTableRow(tau=2.0, n_total=0, n_arm1=0, d_total=0, d_arm1=0, km_left=0.8)


class TestCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trial.csv"
        write_survival_csv(path, EX_TIME, EX_EVENT, EX_ARM)
        assert_same_columns(read_survival_csv(path), (EX_TIME, EX_EVENT, EX_ARM))

    def test_float_times_round_trip_exactly(self, tmp_path):
        time = [0.1 + 0.2, 1.0 / 3.0, 12.000000000000002]
        path = tmp_path / "trial.csv"
        write_survival_csv(path, time, [1, 0, 1], [0, 1, 1])
        back, _, _ = read_survival_csv(path)
        assert back.tolist() == time

    def test_byte_order_mark_and_crlf_accepted(self, tmp_path):
        # spreadsheets save CSV with a UTF-8 byte order mark and CRLF line ends
        expected = ([1.5, 2.0], [1, 0], [0, 1])
        for name, raw in [
            ("bom.csv", b"\xef\xbb\xbftime,event,arm\n1.5,1,0\n2.0,0,1\n"),
            ("crlf.csv", b"time,event,arm\r\n1.5,1,0\r\n2.0,0,1\r\n"),
        ]:
            path = tmp_path / name
            path.write_bytes(raw)
            assert_same_columns(read_survival_csv(path), expected)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,status,arm\n1.0,1,0\n")
        with pytest.raises(DataError, match=r":1"):
            read_survival_csv(path)
        path.write_bytes(b"\xef\xbb\xbftime,status,arm\n1.0,1,0\n")
        with pytest.raises(DataError, match=r":1"):
            read_survival_csv(path)

    @pytest.mark.parametrize("raw", ["nan", "inf", "-1", "oops", "1_0", "\u0661\u0660"])
    def test_bad_time_reports_line(self, tmp_path, raw):
        path = tmp_path / "bad.csv"
        path.write_text(f"time,event,arm\n1.0,1,0\n{raw},1,1\n", encoding="utf-8")
        with pytest.raises(DataError, match=r":3: time"):
            read_survival_csv(path)

    def test_event_must_be_binary(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,event,arm\n1.0,yes,0\n")
        with pytest.raises(DataError, match=r":2"):
            read_survival_csv(path)

    def test_arm_must_be_binary(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,event,arm\n1.0,1,0\n2.0,0,2\n")
        with pytest.raises(DataError, match=r":3: arm must be 0 or 1"):
            read_survival_csv(path)

    @pytest.mark.parametrize("raw", [
        b"",
        b"time,event,arm\n1.0,1,0\n2.0,0,1\xe9\n",
        b"time,event,arm\n" + b"1" * 200_000 + b",1,0\n",  # past the csv module's field limit
    ], ids=["empty", "not-utf8", "huge-field"])
    def test_unreadable_file_names_path(self, tmp_path, raw):
        path = tmp_path / "bad.csv"
        path.write_bytes(raw)
        with pytest.raises(DataError) as info:
            read_survival_csv(path)
        assert str(info.value).startswith(f"{path}")

    def test_line_number_counts_file_lines(self, tmp_path):
        # the quoted time spans lines 2 and 3, so the bad row is on line 4
        path = tmp_path / "bad.csv"
        path.write_text('time,event,arm\n"1.0\n",1,0\nbad,1,1\n')
        with pytest.raises(DataError, match=r":4: time is not a number: 'bad'"):
            read_survival_csv(path)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,event,arm\n1.0,1\n")
        with pytest.raises(DataError, match=r":2"):
            read_survival_csv(path)


class TestNumberSyntax:
    """parse_number is the one number reader of every text input."""

    @pytest.mark.parametrize("text,kind,want", [
        ("10", int, 10), ("-3", int, -3), (" 7 ", int, 7), ("+2", int, 2),
        ("1.5", float, 1.5), (".5", float, 0.5), ("1e-3", float, 0.001), ("2E+16", float, 2e16),
        ("-inf", float, -math.inf), ("Infinity", float, math.inf),
    ])
    def test_accepts(self, text, kind, want):
        got = parse_number(text, kind)
        assert type(got) is kind and got == want

    def test_accepts_nan(self):
        assert math.isnan(parse_number("nan", float))

    @pytest.mark.parametrize("text,kind", [
        ("1_0", int), ("1_0", float), ("0.0_25", float), ("\u0661\u0660", int), ("\u0660.5", float),
        ("1.5", int), ("1e3", int), ("nan", int), ("0x10", int), ("", float), (".", float),
        ("e5", float), ("1e", float), ("1,5", float), ("\u20031\u2003", float),
    ])
    def test_rejects_with_one_message(self, text, kind):
        with pytest.raises(ValueError) as info:
            parse_number(text, kind)
        assert str(info.value) == f"not a number: {text!r}"

    @given(x=st.floats(allow_nan=False, allow_infinity=False))
    def test_repr_round_trips(self, x):
        assert parse_number(repr(x), float) == x

    # the number syntax written out as one regex per kind: ASCII sign, digits,
    # point, exponent, inf/nan and surrounding whitespace
    SYNTAX = {
        int: re.compile(r"\s*[+-]?[0-9]+\s*", re.ASCII),
        float: re.compile(
            r"\s*[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|inf(?:inity)?|nan)\s*",
            re.ASCII | re.IGNORECASE,
        ),
    }

    @given(text=st.text(st.sampled_from(
        list("0123456789+-.eE_xinfatyINFATY") + list(" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\u0661\u2003")
    ), max_size=12), kind=st.sampled_from([int, float]))
    def test_accepts_what_the_syntax_regex_accepts(self, text, kind):
        try:
            got = parse_number(text, kind)
        except ValueError as exc:
            assert str(exc) == f"not a number: {text!r}"
            assert self.SYNTAX[kind].fullmatch(text) is None
        else:
            assert self.SYNTAX[kind].fullmatch(text) is not None
            want = kind(text)
            assert type(got) is kind and (got == want or math.isnan(got) and math.isnan(want))
