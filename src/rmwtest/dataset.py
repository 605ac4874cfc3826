"""Two-arm survival data and its reduction to a risk table.

The risk table is the single summary that every downstream statistic
consumes: one row per distinct event time, carrying at-risk counts, event
counts, and the pooled Kaplan-Meier survival just before that time.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import DataError

CSV_HEADER = ("time", "event", "arm")


@dataclass(frozen=True)
class RiskTableRow:
    """Risk-set summary at one distinct event time.

    ``km_left`` is the pooled Kaplan-Meier estimate of survival just prior
    to ``tau``, i.e. the product of (1 - d/n) over strictly earlier rows.
    """

    tau: float
    n_total: int
    n_arm1: int
    d_total: int
    d_arm1: int
    km_left: float

    def __post_init__(self) -> None:
        if self.n_total < 1:
            raise DataError(f"empty risk set at tau={self.tau}: need n_total >= 1, got {self.n_total}")
        if not 0 <= self.d_arm1 <= self.d_total <= self.n_total:
            raise DataError(
                f"need 0 <= d_arm1 <= d_total <= n_total at tau={self.tau}, got "
                f"d_arm1={self.d_arm1}, d_total={self.d_total}, n_total={self.n_total}"
            )
        if not 0 <= self.n_arm1 <= self.n_total:
            raise DataError(
                f"need 0 <= n_arm1 <= n_total at tau={self.tau}, got "
                f"n_arm1={self.n_arm1}, n_total={self.n_total}"
            )
        if not 0.0 <= self.km_left <= 1.0:
            raise DataError(f"km_left must lie in [0, 1], got {self.km_left}")


class RiskArrays(NamedTuple):
    """Columnar risk table used on hot paths; same content as the row form."""

    tau: np.ndarray
    n_total: np.ndarray
    n_arm1: np.ndarray
    d_total: np.ndarray
    d_arm1: np.ndarray
    km_left: np.ndarray

    def __len__(self) -> int:
        return len(self.tau)


def risk_arrays(time: np.ndarray, event: np.ndarray, arm: np.ndarray) -> RiskArrays:
    """Build the columnar risk table from raw subject-level columns.

    Ties follow the standard right-censoring convention: a subject censored
    at an event time is still at risk for events at that time. Only times
    with at least one event get a row; censoring-only times contribute
    through the at-risk counts alone.

    The table is built from four value sorts (all times, arm-1 times, event
    times, arm-1 event times) and binary-search counts on them: ``tau`` and
    ``d_total`` are the runs of equal sorted event times, ``d_arm1`` is the
    number of sorted arm-1 event times equal to ``tau``, and the at-risk
    counts are the subjects whose time is not below ``tau`` (a left-side
    ``searchsorted``, which is the tie rule above). Every column is an
    integer count that does not depend on the order of tied values, or
    ``km_left`` computed from those counts, so the result does not depend
    on the record order. ``event`` and ``arm`` must hold only 0 and 1, and
    all three columns must be 1-D and of equal length; anything else
    raises ``DataError``.
    """
    time = np.asarray(time, dtype=np.float64)
    event = np.asarray(event)
    arm = np.asarray(arm)
    if time.ndim != 1 or event.shape != time.shape or arm.shape != time.shape:
        raise DataError("time, event and arm must be 1-D columns of equal length")
    if time.size == 0:
        raise DataError("no data")
    # min/max are NaN when any time is NaN, which fails both comparisons
    if not (time.min() >= 0.0 and time.max() < math.inf):
        raise DataError("time must be finite and >= 0")
    is_event = event == 1
    n_events = np.count_nonzero(is_event)
    if n_events + np.count_nonzero(event == 0) != event.size:
        raise DataError("event must be 0 or 1")
    in_arm1 = arm == 1
    arm1_count = np.count_nonzero(in_arm1)
    if arm1_count + np.count_nonzero(arm == 0) != arm.size:
        raise DataError("arm must be 0 or 1")
    if n_events == 0:
        raise DataError("no events")
    if arm1_count in (0, arm.size):
        raise DataError("one arm missing")

    t_all = np.sort(time)
    t_arm1 = np.sort(time[in_arm1])
    t_event = np.sort(time[is_event])
    t_event1 = np.sort(time[is_event & in_arm1])

    # tau and d_total are the runs of equal sorted event times
    starts = np.flatnonzero(np.concatenate(([True], t_event[1:] != t_event[:-1])))
    tau = t_event[starts]
    d_total = np.diff(starts, append=t_event.size)
    # every arm-1 event time is some tau, so the arm-1 events at tau are
    # those at or after tau less those at or after the next tau
    d_arm1 = np.diff(np.searchsorted(t_event1, tau, side="left"), append=t_event1.size)
    # at risk at tau: time >= tau, so a subject censored at tau still counts
    n_total = t_all.size - np.searchsorted(t_all, tau, side="left")
    n_arm1 = t_arm1.size - np.searchsorted(t_arm1, tau, side="left")

    km = np.cumprod(1.0 - d_total / n_total)
    km_left = np.concatenate(([1.0], km[:-1]))

    return RiskArrays(
        tau=tau,
        n_total=n_total.astype(np.int64),
        n_arm1=n_arm1.astype(np.int64),
        d_total=d_total.astype(np.int64),
        d_arm1=d_arm1.astype(np.int64),
        km_left=km_left,
    )


def build_risk_table(time: np.ndarray, event: np.ndarray, arm: np.ndarray) -> list[RiskTableRow]:
    """Reduce subject-level columns to the per-event-time risk table.

    Takes the same columns as ``risk_arrays`` and applies its checks.
    Requires at least one event and subjects on both arms. The result is
    sorted strictly increasing in ``tau`` and is invariant to the subject
    order.
    """
    arrays = risk_arrays(time, event, arm)
    return [
        RiskTableRow(
            tau=float(arrays.tau[i]),
            n_total=int(arrays.n_total[i]),
            n_arm1=int(arrays.n_arm1[i]),
            d_total=int(arrays.d_total[i]),
            d_arm1=int(arrays.d_arm1[i]),
            km_left=float(arrays.km_left[i]),
        )
        for i in range(len(arrays))
    ]


def rows_to_arrays(table: Sequence[RiskTableRow]) -> RiskArrays:
    """Convert the row form back to columns (no validation beyond emptiness)."""
    if len(table) == 0:
        raise DataError("no data")
    return RiskArrays(
        tau=np.array([r.tau for r in table], dtype=np.float64),
        n_total=np.array([r.n_total for r in table], dtype=np.int64),
        n_arm1=np.array([r.n_arm1 for r in table], dtype=np.int64),
        d_total=np.array([r.d_total for r in table], dtype=np.int64),
        d_arm1=np.array([r.d_arm1 for r in table], dtype=np.int64),
        km_left=np.array([r.km_left for r in table], dtype=np.float64),
    )


# the spec grammar's punctuation; a word of a spec string, such as a scenario
# name, is a run of characters that are neither punctuation nor whitespace
SPEC_PUNCTUATION = "(),;=:"
SPEC_WORD = f"[^\\s{re.escape(SPEC_PUNCTUATION)}]+"


def parse_number(text: str, kind: type[float] | type[int]) -> float | int:
    """``kind(text)`` if ``text`` has the number syntax every input shares: ASCII
    digits, no digit-group underscores. Otherwise ``ValueError("not a number:
    '<text>'")``; callers say where the text came from and check its range."""
    if text.isascii() and "_" not in text:
        try:
            return kind(text)
        except ValueError:
            pass
    raise ValueError(f"not a number: {text!r}")


def _csv_rows(path, header: tuple[str, ...]) -> Iterator[tuple[int, Iterator[str]]]:
    """``(line number, stripped fields)`` of each nonblank data row of a UTF-8
    CSV file, with or without a byte order mark, whose stripped first row is
    ``header``. A bad header, field count, encoding or field raises ``DataError``."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = csv.reader(fh)
        try:
            first = next(rows, [])
            if tuple(map(str.strip, first)) != header:
                raise DataError(f"{path}:1: expected header {','.join(header)}, got {','.join(first)!r}")
            for row in rows:  # line_num is the file line a row ends on
                if not row:
                    continue
                if len(row) != len(header):
                    raise DataError(f"{path}:{rows.line_num}: expected {len(header)} fields, got {len(row)}")
                yield rows.line_num, map(str.strip, row)
        except (UnicodeDecodeError, csv.Error) as exc:  # not UTF-8, or a field past csv's size limit
            raise DataError(f"{path}: {exc}") from None


def read_survival_csv(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read ``(time, event, arm)`` columns from a ``time,event,arm`` CSV file.

    Returns float64 times and int64 event and arm columns, in file order.
    Malformed rows are hard errors that report the 1-based line number; a
    byte order mark and CRLF line ends, as spreadsheets write them, are accepted.
    """
    times: list[float] = []
    events: list[bool] = []
    arms: list[bool] = []
    for lineno, (raw_time, raw_event, raw_arm) in _csv_rows(path, CSV_HEADER):
        try:
            time = parse_number(raw_time, float)
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: time is {exc}") from None
        if not (math.isfinite(time) and time >= 0):
            raise DataError(f"{path}:{lineno}: time must be finite and >= 0, got {raw_time}")
        if raw_event not in ("0", "1"):
            raise DataError(f"{path}:{lineno}: event must be 0 or 1, got {raw_event!r}")
        if raw_arm not in ("0", "1"):
            raise DataError(f"{path}:{lineno}: arm must be 0 or 1, got {raw_arm!r}")
        times.append(time)
        events.append(raw_event == "1")
        arms.append(raw_arm == "1")
    return (
        np.array(times, dtype=np.float64),
        np.array(events, dtype=np.int64),
        np.array(arms, dtype=np.int64),
    )


def write_survival_csv(path: str, time: np.ndarray, event: np.ndarray, arm: np.ndarray) -> None:
    """Write columns in the same ``time,event,arm`` schema the reader accepts.

    Times are written in shortest round-trip form, so reading the file back
    gives the same float64 values.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for t, e, a in zip(time, event, arm, strict=True):
            writer.writerow([repr(float(t)), int(e), int(a)])
