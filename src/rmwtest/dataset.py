"""Two-arm survival data and its reduction to a risk table.

The risk table is the single summary that every downstream statistic
consumes: one entry per distinct event time, carrying at-risk counts, event
counts, and the pooled Kaplan-Meier survival just before that time.
"""

from __future__ import annotations

import csv
import math
import re
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import DataError

CSV_HEADER = ("time", "event", "arm")


class RiskArrays(NamedTuple):
    """The risk table as columns, one entry per distinct event time, strictly increasing in ``tau``.

    ``n_total``/``n_arm1`` count the subjects at risk at ``tau`` and ``d_total``/``d_arm1`` its
    events (int64); ``km_left`` is the pooled Kaplan-Meier survival just prior to ``tau``, the
    product of (1 - d/n) over earlier entries (float64, as is ``tau``).
    """

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

    The table is built from four value sorts (arm-0 times, arm-1 times,
    event times, arm-1 event times) and binary-search counts on them:
    ``tau`` and ``d_total`` are the runs of equal sorted event times,
    ``d_arm1`` is the number of sorted arm-1 event times equal to ``tau``,
    and each arm's at-risk count is its subjects whose time is not below
    ``tau`` (a left-side ``searchsorted``, which is the tie rule above);
    ``n_total`` is the sum of the two arm counts. Every column is an
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
    if n_events != np.count_nonzero(event != 0):
        raise DataError("event must be 0 or 1")
    in_arm1 = arm == 1
    arm1_count = np.count_nonzero(in_arm1)
    if arm1_count != np.count_nonzero(arm != 0):
        raise DataError("arm must be 0 or 1")
    if n_events == 0:
        raise DataError("no events")
    if arm1_count in (0, arm.size):
        raise DataError("one arm missing")

    t_arm0 = np.sort(time[~in_arm1])
    t_arm1 = np.sort(time[in_arm1])
    t_event = np.sort(time[is_event])
    t_event1 = np.sort(time[is_event & in_arm1])

    # tau and d_total are the runs of equal sorted event times; an end marker closes the last
    is_edge = np.empty(t_event.size + 1, dtype=bool)
    is_edge[0] = is_edge[-1] = True
    np.not_equal(t_event[1:], t_event[:-1], out=is_edge[1:-1])
    edges = np.flatnonzero(is_edge)
    tau = t_event[edges[:-1]]
    d_total = edges[1:] - edges[:-1]
    # every arm-1 event time is some tau, so the arm-1 events at tau are
    # those at or after tau less those at or after the next tau
    below = np.searchsorted(t_event1, tau, side="left")
    d_arm1 = np.empty_like(below)
    np.subtract(below[1:], below[:-1], out=d_arm1[:-1])
    d_arm1[-1] = t_event1.size - below[-1]
    # at risk at tau: time >= tau, so a subject censored at tau still counts
    n_arm1 = t_arm1.size - np.searchsorted(t_arm1, tau, side="left")
    n_total = t_arm0.size - np.searchsorted(t_arm0, tau, side="left") + n_arm1

    km_left = np.empty(tau.size)
    km_left[0] = 1.0
    np.cumprod(1.0 - d_total[:-1] / n_total[:-1], out=km_left[1:])

    return RiskArrays(
        tau=tau,
        n_total=n_total.astype(np.int64, copy=False),
        n_arm1=n_arm1.astype(np.int64, copy=False),
        d_total=d_total.astype(np.int64, copy=False),
        d_arm1=d_arm1.astype(np.int64, copy=False),
        km_left=km_left,
    )


def build_risk_table(time: np.ndarray, event: np.ndarray, arm: np.ndarray) -> RiskArrays:
    """The risk table of subject-level columns, checked as ``risk_arrays`` checks them (it needs
    an event and both arms). It is strictly increasing in ``tau``, has someone at risk at every
    ``tau`` and does not depend on the subject order."""
    # a call, not an alias: perfbench's traced analyze run divides the event times counted
    # through this module's risk_arrays by its calls (ROADMAP item 1 folds the two names)
    return risk_arrays(time, event, arm)


def rows_to_arrays(rows: Iterable[Sequence[float]]) -> RiskArrays:
    """The risk table of hand-built rows ``(tau, n_total, n_arm1, d_total, d_arm1, km_left)``.

    The first row with ``n_total < 1``, or outside ``0 <= d_arm1 <= d_total <= n_total``,
    ``0 <= n_arm1 <= n_total`` or ``0 <= km_left <= 1``, raises ``DataError``, as does an
    empty table. Counts become int64 columns, and ``tau`` and ``km_left`` float64.
    """
    rows = [tuple(row) for row in rows]
    if not rows:
        raise DataError("no data")
    for tau, n_total, n_arm1, d_total, d_arm1, km_left in rows:
        if n_total < 1:
            raise DataError(f"empty risk set at tau={tau}: need n_total >= 1, got {n_total}")
        if not 0 <= d_arm1 <= d_total <= n_total:
            raise DataError(
                f"need 0 <= d_arm1 <= d_total <= n_total at tau={tau}, got "
                f"d_arm1={d_arm1}, d_total={d_total}, n_total={n_total}"
            )
        if not 0 <= n_arm1 <= n_total:
            raise DataError(f"need 0 <= n_arm1 <= n_total at tau={tau}, got n_arm1={n_arm1}, n_total={n_total}")
        if not 0.0 <= km_left <= 1.0:
            raise DataError(f"km_left must lie in [0, 1], got {km_left}")
    dtypes = (np.float64, np.int64, np.int64, np.int64, np.int64, np.float64)
    return RiskArrays(*(np.array(col, dtype=dtype) for col, dtype in zip(zip(*rows), dtypes)))


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
