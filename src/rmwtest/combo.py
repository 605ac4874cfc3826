"""Weighted log-rank statistics and joint inference for the maximum of two.

Covers the one statistic core that analyze and the power harness share:
the hypergeometric null moments of the arm-1 event count at each event
time, the weighted statistic (g, variance, z) of several weight specs on
one risk table and each test's (z1, z2, correlation); then upper-tail
probabilities of the standard bivariate normal, critical values for equal
and unequal alpha splits, the rejection decision, and the max-combo
p-value.

Z is oriented so that fewer events than expected on arm 1 (treatment
benefit) maps to positive evidence, i.e. the one-sided p-value is
1 - Phi(z) and large positive z rejects. A single weighted log-rank test
is ``run_combo_test(ComboSpec(w, w, k1=1.0), table)``.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import ndtr, ndtri

from .dataset import RiskArrays
# unused: perfbench/layers.py wraps it by name here; it goes once perfbench traces functions
from .dataset import rows_to_arrays
from .errors import NumericalError
from .weights import WeightSpec, weights_from_km_left

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_TAIL_Z = 9.0     # |z| beyond which the conditional tail factor is 0 or 1 to ~1e-19
_FAR_X = 12.5     # |x| beyond which phi(x) mass is negligible at any tolerance used here
_QUAD_TOL = 1e-13


def _row_sums(x: np.ndarray) -> list[float]:
    """``math.fsum`` of each row of a 2-D float64 array, bit for bit.

    Every nonzero value is an integer multiple of 2**e_lo, the last bit of a
    53-bit mantissa at the smallest nonzero magnitude, so x / 2**e_lo holds
    integers below 2**bits. They are cut from the top into limbs of
    ``53 - T.bit_length()`` bits, T the row length, so a row's sum of one
    limb stays below 2**53 and numpy sums it exactly in any order. A row's
    limb sums make its exact sum as a Python int, which one correctly
    rounded int division turns into the float fsum returns. Fallbacks: all
    rows go to ``math.fsum`` when no value is nonzero, when a magnitude is
    not below 2**960 (inf and NaN included), or when the span exceeds 1000
    bits, which keeps x / 2**e_lo finite; a row whose exact sum is 0 goes to
    it too, so the sign of zero is fsum's.
    """
    a = np.abs(x)
    top = float(a.max(initial=0.0))
    low = float(np.min(a, where=a > 0.0, initial=math.inf))
    e_lo = math.frexp(low)[1] - 53
    bits = math.frexp(top)[1] - e_lo
    if not top < 2.0**960 or low == math.inf or bits > 1000:
        return [math.fsum(row) for row in x.tolist()]
    y = np.ldexp(x, -e_lo)
    limb = 53 - x.shape[1].bit_length()
    totals = [0] * len(x)
    for shift in range(limb * ((bits - 1) // limb), 0, -limb):
        d = np.trunc(y * 2.0**-shift)
        y -= d * 2.0**shift
        totals = [(t << limb) + int(s) for t, s in zip(totals, d.sum(axis=1).tolist())]
    totals = [(t << limb) + int(s) for t, s in zip(totals, y.sum(axis=1).tolist())]
    num, den = max(e_lo, 0), 1 << max(-e_lo, 0)
    return [(t << num) / den if t else math.fsum(row) for t, row in zip(totals, x)]


def moment_arrays(risk: RiskArrays) -> tuple[np.ndarray, np.ndarray]:
    """Null mean and variance of the arm-1 event count at every event time.

    Mean is n1*d/n; variance is n1*(n-n1)*d*(n-d) / (n^2*max(n-1, 1)),
    which is +0.0 when the risk set has a single subject (n1 is 0 or 1).
    """
    n = risk.n_total.astype(np.float64)
    n1 = risk.n_arm1.astype(np.float64)
    d = risk.d_total.astype(np.float64)
    mean = n1 * d / n
    var = n1 * (n - n1) * d * (n - d) / (n * n * np.maximum(n - 1.0, 1.0))
    return mean, var


def statistic_from_arrays(
    w: np.ndarray, risk: RiskArrays, mean: np.ndarray, var: np.ndarray, pairs: Sequence[tuple[int, int]]
) -> tuple[list[tuple[float, float, float]], list[float]]:
    """(g, variance, z) of each row of the (k, T) weight matrix ``w`` over a
    columnar risk table, and the cross-sum of w_i * w_j * var of each index
    pair ``(i, j)`` in ``pairs``: all 2k + len(pairs) sums in one exact pass.

    Zero-variance rows (risk sets of size one) still contribute their
    weighted observed-minus-expected term to ``g``. A zero total variance
    raises NumericalError("degenerate variance").
    """
    k = len(w)
    terms = np.empty((2 * k + len(pairs), w.shape[1]))
    np.multiply(w, risk.d_arm1 - mean, out=terms[:k])
    np.multiply(w, w, out=terms[k : 2 * k])
    for row, (i, j) in enumerate(pairs, 2 * k):
        np.multiply(w[i], w[j], out=terms[row])
    terms[k:] *= var
    sums = _row_sums(terms)
    stats = []
    for g, variance in zip(sums[:k], sums[k : 2 * k]):
        if variance <= 0.0:
            raise NumericalError("degenerate variance")
        stats.append((g, variance, -g / math.sqrt(variance)))
    return stats, sums[2 * k :]


def one_sided_p(z: float) -> float:
    """Upper-tail normal p-value for a standardized statistic."""
    return float(ndtr(-z))


@dataclass(frozen=True)
class ComboSpec:
    """Definition of a two-component max-combo test.

    ``k1`` of the one-sided level ``alpha`` goes to the w1 statistic and
    ``k2 = 1 - k1`` to the w2 statistic; k1 = 1 degenerates to the w1 test
    alone. Each positive share ``k_i * alpha`` must exceed 2**-54 (about
    5.6e-17), so that its normal quantile ndtri(1 - k_i * alpha) is finite.
    """

    w1: WeightSpec
    w2: WeightSpec
    k1: float = 0.5
    alpha: float = field(default=0.025, kw_only=True)

    def __post_init__(self) -> None:
        if not 0.5 <= self.k1 <= 1.0:
            raise ValueError(f"require 0.5 <= k1 <= 1, got k1={self.k1}")
        if not 0.0 < self.alpha < 0.5:
            raise ValueError(f"require 0 < alpha < 0.5, got {self.alpha}")
        for share in (self.k1 * self.alpha, self.k2 * self.alpha):
            if share > 0.0 and not 1.0 - share < 1.0:
                raise ValueError(
                    f"alpha={self.alpha} with k1={self.k1} gives a share of {share:g}, "
                    "too small for a finite normal quantile (1 - share rounds to 1)"
                )

    @property
    def k2(self) -> float:
        """The w2 statistic's share of ``alpha``."""
        return 1.0 - self.k1

    @property
    def components(self) -> tuple[WeightSpec, ...]:
        """The weight specs the test reads: (w1,) when k1 = 1 or w2 == w1,
        else (w1, w2); an equal-weight combo reads its one weight once."""
        return (self.w1,) if self.k1 == 1.0 or self.w2 == self.w1 else (self.w1, self.w2)


@dataclass(frozen=True)
class ComboResult:
    """Full inference output of a max-combo test on one dataset."""

    z1: float
    z2: float
    correlation: float
    c: float
    threshold1: float
    threshold2: float
    reject: bool
    p_value: float


_GL_X, _GL_W = leggauss(16)
_QUAD_LEVELS = 9  # panel-count doublings tried before the quadrature gives up


@functools.lru_cache(maxsize=256)
def _panel_table(n_panels: int) -> tuple[np.ndarray, np.ndarray]:
    """(0.0, 1.0, ..., n_panels) and the Gauss-Legendre weights tiled once per panel."""
    table = np.arange(n_panels + 1, dtype=float), np.tile(_GL_W, n_panels)
    for array in table:
        array.flags.writeable = False  # shared by every call at this panel count
    return table


def _edges(lo: float, hi: float, n_panels: int) -> np.ndarray:
    """``np.linspace(lo, hi, n_panels + 1)`` bit for bit, from the cached integers.

    The same arithmetic as linspace: the step times the integers plus lo,
    with the last edge set to hi; a step that underflows to 0 takes
    linspace's own branch for that case.
    """
    step = (hi - lo) / n_panels
    if step == 0.0:
        return np.linspace(lo, hi, n_panels + 1)
    edges = _panel_table(n_panels)[0] * step + lo
    edges[-1] = hi
    return edges


def _level_nodes(lo: float, hi: float, n_panels: int) -> tuple[np.ndarray, float, np.ndarray]:
    """Nodes, half panel width and node weights of one quadrature level."""
    edges = _edges(lo, hi, n_panels)
    centers = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (hi - lo) / n_panels
    return (centers[:, None] + half * _GL_X[None, :]).ravel(), half, _panel_table(n_panels)[1]


def _middle_integral(lo: float, hi: float, b: float, rho: float, s: float) -> float:
    """Refined quadrature of the conditional-tail integrand over the transition band.

    Starts from at least 64 nodes with panel width tied to the transition
    scale s/|rho| and doubles the panel count until two successive levels
    agree to _QUAD_TOL. The first two levels, which every call needs, share
    one pass of the integrand.
    """
    if hi <= lo:
        return 0.0

    def integrand(x):
        return np.exp(-0.5 * x * x) / _SQRT_2PI * ndtr(-(b - rho * x) / s)

    width = min(0.5, 0.5 * s / abs(rho))
    n_panels = max(4, int(math.ceil((hi - lo) / width)))
    x1, half1, w1 = _level_nodes(lo, hi, n_panels)
    x2, half2, w2 = _level_nodes(lo, hi, 2 * n_panels)
    f = integrand(np.concatenate((x1, x2)))
    previous = half1 * float(np.dot(f[: x1.size], w1))
    value = half2 * float(np.dot(f[x1.size :], w2))
    levels = 2
    # "not <=" keeps a NaN level unconverged
    while not abs(value - previous) <= _QUAD_TOL * max(1.0, abs(value)):
        if levels == _QUAD_LEVELS:
            raise NumericalError("bvn quadrature failed to converge")
        levels += 1
        n_panels *= 2
        x, half, w = _level_nodes(lo, hi, 2 * n_panels)
        previous, value = value, half * float(np.dot(integrand(x), w))
    return value


def bvn_upper(a: float, b: float, rho: float) -> float:
    """P(X > a, Y > b) for a standard bivariate normal with correlation rho.

    Computed by reducing to a one-dimensional integral of the conditional
    normal tail over the transition band, with exact normal-tail pieces
    outside the band. Absolute error is well below 1e-10.
    """
    if not -1.0 <= rho <= 1.0:  # a NaN fails the comparison
        raise ValueError(f"correlation must lie in [-1, 1], got {rho}")
    if math.isnan(a) or math.isnan(b):
        raise ValueError(f"limits must not be NaN, got a={a}, b={b}")
    if a == math.inf or b == math.inf:
        return 0.0
    if a == -math.inf and b == -math.inf:
        return 1.0
    if a == -math.inf:
        return one_sided_p(b)
    if b == -math.inf:
        return one_sided_p(a)
    if rho == 1.0:
        return one_sided_p(max(a, b))
    if rho == -1.0:
        # Y = -X: the event is a < X < -b
        return max(0.0, float(ndtr(-b) - ndtr(a)))
    if rho == 0.0:
        return one_sided_p(a) * one_sided_p(b)

    s = math.sqrt((1.0 - rho) * (1.0 + rho))
    edge_lo = (b - _TAIL_Z * s) / rho
    edge_hi = (b + _TAIL_Z * s) / rho
    x1, x2 = min(edge_lo, edge_hi), max(edge_lo, edge_hi)

    mid_lo = min(max(max(a, x1), -_FAR_X), _FAR_X)
    mid_hi = min(max(max(a, x2), -_FAR_X), _FAR_X)
    middle = _middle_integral(mid_lo, mid_hi, b, rho, s)

    if rho > 0.0:
        # conditional tail ~1 above the band
        value = middle + one_sided_p(max(a, x2))
    else:
        # conditional tail ~1 below the band
        value = (one_sided_p(a) - one_sided_p(max(a, x1))) + middle
    return min(1.0, max(0.0, value))


def union_tail(t1: float, t2: float, rho: float) -> float:
    """P(Z1 > t1 or Z2 > t2) under the standard bivariate normal null."""
    return min(1.0, max(0.0, one_sided_p(t1) + one_sided_p(t2) - bvn_upper(t1, t2, rho)))


def evaluate(
    specs: Sequence[WeightSpec], tests: Sequence[tuple[int, int]], risk: RiskArrays
) -> list[tuple[float, float, float]]:
    """(z1, z2, correlation) on one risk table of each test ``(i, j)``, a pair
    of indices into ``specs``. Each spec's z and each distinct pair's
    correlation is computed once, all from one exact pass over the stacked
    weights (statistic_from_arrays); a test (i, i) has correlation 1, unsummed.

    A correlation is the weighted cross-sum of per-time null variances over
    the geometric mean of the two component variances: the root of their
    product, or the product of their roots where the product underflows.
    Every weight and null variance is >= 0, so the exactly rounded cross-sum
    is too; rounding can put the quotient just above 1, hence the cap.
    """
    mean, var = moment_arrays(risk)
    w = np.array([weights_from_km_left(spec, risk.km_left) for spec in specs])
    pairs = list(dict.fromkeys(t for t in tests if t[0] != t[1]))
    stats, cross = statistic_from_arrays(w, risk, mean, var, pairs)
    rho = {}
    for (i, j), c in zip(pairs, cross):
        vi, vj = stats[i][1], stats[j][1]
        root = math.sqrt(vi * vj) if vi * vj >= sys.float_info.min else math.sqrt(vi) * math.sqrt(vj)
        rho[i, j] = min(c / root, 1.0)
    return [(stats[i][2], stats[j][2], rho.get((i, j), 1.0)) for i, j in tests]


def _ray(spec: ComboSpec, alpha: float) -> tuple[float, float]:
    """Direction of the threshold pair: (1, 1) for an equal split, otherwise
    the per-component quantiles ndtri(1 - k_i * alpha)."""
    if spec.k1 == 0.5:
        return 1.0, 1.0
    return float(ndtri(1.0 - spec.k1 * alpha)), float(ndtri(1.0 - spec.k2 * alpha))


def _bisect(holds, lo: float, hi: float, width: float) -> tuple[float, float]:
    """Halve [lo, hi], where ``holds`` is false at lo and true at hi, until it
    is at most ``width`` wide; return (the final hi, the last midpoint)."""
    mid = hi
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi, mid


def critical_values(spec: ComboSpec, correlation: float) -> tuple[float, float, float]:
    """(c, threshold1, threshold2) for the max-combo test at level ``spec.alpha``.

    Equal split solves P(max(Z1, Z2) > c) = alpha with both thresholds
    equal to c. Unequal split solves for the common scaling c applied to
    the per-component quantiles ndtri(1 - k_i * alpha). With k1 = 1 the
    test degenerates: threshold1 = ndtri(1 - alpha), threshold2 = +inf.

    c is the last midpoint of a bisection of [0, 10] to width 1e-12. At 0 the
    union tail is at least 1/2 > alpha; at 10 it is below alpha, since
    ComboSpec keeps each quantile q_i finite, so P(Z_i > 10 q_i) < k_i * alpha
    (on an equal split, at most 2 P(Z > 10) = 1.5e-23 in all).
    """
    if not 0.0 <= correlation <= 1.0:  # a NaN fails the comparison
        raise ValueError(f"correlation must lie in [0, 1], got {correlation}")
    alpha = spec.alpha
    if spec.k1 == 1.0:
        return 1.0, float(ndtri(1.0 - alpha)), math.inf
    q1, q2 = _ray(spec, alpha)
    _, c = _bisect(lambda t: union_tail(t * q1, t * q2, correlation) < alpha, 0.0, 10.0, 1e-12)
    return c, c * q1, c * q2


def _observed_tail(spec: ComboSpec, z1: float, z2: float, rho: float, alpha: float) -> float:
    """Union tail at the observed statistics scaled onto the level-alpha threshold ray.

    Both combo_reject and combo_pvalue pass through here, so both refuse a
    NaN statistic and a correlation outside [0, 1] with ``ValueError``.
    """
    if math.isnan(z1) or math.isnan(z2):
        raise ValueError(f"statistics must not be NaN, got z1={z1}, z2={z2}")
    if not 0.0 <= rho <= 1.0:  # a NaN fails the comparison
        raise ValueError(f"correlation must lie in [0, 1], got {rho}")
    if spec.k1 == 1.0:
        return one_sided_p(z1)
    q1, q2 = _ray(spec, alpha)
    m = max(z1 / q1, z2 / q2)
    return union_tail(m * q1, m * q2, rho)


def _rejects(spec: ComboSpec, z1: float, z2: float, rho: float, alpha: float) -> bool:
    """The one rejection rule: some statistic reaches its level-alpha threshold."""
    return _observed_tail(spec, z1, z2, rho, alpha) <= alpha


def combo_reject(spec: ComboSpec, z1: float, z2: float, correlation: float) -> bool:
    """Rejection decision at level ``spec.alpha``, without solving for thresholds.

    Uses the monotone equivalence: z reaches its threshold iff the union
    tail evaluated at the observed statistics (scaled onto the component
    quantiles) is at most alpha. This is the rule combo_pvalue inverts, so
    ``combo_pvalue(...) <= spec.alpha`` implies rejection.
    """
    return _rejects(spec, z1, z2, correlation, spec.alpha)


def combo_pvalue(spec: ComboSpec, z1: float, z2: float, correlation: float) -> float:
    """Smallest level at which the test would reject the observed statistics.

    For single tests and the equal split the threshold ray does not depend
    on the level, so this is the union tail at the observed statistics; for
    unequal splits it is found by bisecting the rejection rule over the
    level, to absolute tolerance 1e-10, clamped to [lo, 0.5] with
    lo = max(1e-12, 2**-53 / k2): below lo the w2 share k2 * level rounds
    1 - share to 1, and its quantile would be infinite.
    """
    if spec.k1 in (1.0, 0.5):
        p = _observed_tail(spec, z1, z2, correlation, spec.alpha)
        return min(max(p, 1e-300), 1.0 - 1e-16)
    lo, hi = max(1e-12, 2.0**-53 / spec.k2), 0.5
    if _rejects(spec, z1, z2, correlation, lo):
        return lo
    if not _rejects(spec, z1, z2, correlation, hi):
        return hi
    return _bisect(lambda a: _rejects(spec, z1, z2, correlation, a), lo, hi, 1e-10)[0]


def run_combo_test(spec: ComboSpec, table: RiskArrays) -> ComboResult:
    """Run the full max-combo test on one risk table, as ``build_risk_table``
    or ``rows_to_arrays`` return it.

    Only ``spec.components`` are evaluated, so a k1 = 1 test or an
    equal-weight combo reads w1 alone: its z is both z1 and z2, with
    correlation 1.
    """
    ws = spec.components
    (z1, z2, correlation), = evaluate(ws, [(0, len(ws) - 1)], table)
    c, t1, t2 = critical_values(spec, correlation)
    return ComboResult(
        z1=z1,
        z2=z2,
        correlation=correlation,
        c=c,
        threshold1=t1,
        threshold2=t2,
        reject=combo_reject(spec, z1, z2, correlation),
        p_value=combo_pvalue(spec, z1, z2, correlation),
    )
