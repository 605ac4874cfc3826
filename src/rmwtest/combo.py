"""Joint inference for the maximum of two weighted log-rank statistics.

Covers the one statistic core that analyze and the power harness share
(the standardized statistics of several weight specs on one risk table and
the null correlation of each pair), upper-tail probabilities of the
standard bivariate normal, critical values for equal and unequal alpha
splits, the rejection decision, and the max-combo p-value.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import ndtr, ndtri

from .dataset import RiskArrays, RiskTableRow, rows_to_arrays
from .errors import NumericalError
from .weights import WeightSpec, weights_from_km_left
from .wlrt import _acc_sum, moment_arrays, one_sided_p, statistic_from_arrays

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_TAIL_Z = 9.0     # |z| beyond which the conditional tail factor is 0 or 1 to ~1e-19
_FAR_X = 12.5     # |x| beyond which phi(x) mass is negligible at any tolerance used here
_QUAD_TOL = 1e-13


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


def _middle_integral(lo: float, hi: float, b: float, rho: float, s: float) -> float:
    """Refined quadrature of the conditional-tail integrand over the transition band.

    Starts from at least 64 nodes with panel width tied to the transition
    scale s/|rho| and doubles the panel count until two successive levels
    agree to _QUAD_TOL.
    """
    if hi <= lo:
        return 0.0
    width = min(0.5, 0.5 * s / abs(rho))
    n_panels = max(4, int(math.ceil((hi - lo) / width)))
    previous = None
    for _ in range(9):
        edges = np.linspace(lo, hi, n_panels + 1)
        centers = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (hi - lo) / n_panels
        x = (centers[:, None] + half * _GL_X[None, :]).ravel()
        f = np.exp(-0.5 * x * x) / _SQRT_2PI * ndtr(-(b - rho * x) / s)
        value = half * float(np.dot(f, np.tile(_GL_W, n_panels)))
        if previous is not None and abs(value - previous) <= _QUAD_TOL * max(1.0, abs(value)):
            return value
        previous = value
        n_panels *= 2
    raise NumericalError("bvn quadrature failed to converge")


def bvn_upper(a: float, b: float, rho: float) -> float:
    """P(X > a, Y > b) for a standard bivariate normal with correlation rho.

    Computed by reducing to a one-dimensional integral of the conditional
    normal tail over the transition band, with exact normal-tail pieces
    outside the band. Absolute error is well below 1e-10.
    """
    if math.isnan(rho) or not -1.0 <= rho <= 1.0:
        raise ValueError(f"correlation must lie in [-1, 1], got {rho}")
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
    specs: Sequence[WeightSpec], pairs: Iterable[tuple[int, int]], risk: RiskArrays
) -> tuple[list[float], dict[tuple[int, int], float]]:
    """The z of each weight spec on one risk table, and the null correlation
    of each requested pair ``(i, j)`` of indices into ``specs``.

    A correlation is the weighted cross-sum of per-time null variances over
    the geometric mean of the two component variances, clamped to [0, 1]; a
    negative estimate, possible only with signed weights, warns and becomes 0.
    """
    mean, var = moment_arrays(risk)
    w = [weights_from_km_left(spec, risk.km_left) for spec in specs]
    stats = [statistic_from_arrays(wi, risk, mean, var) for wi in w]
    rho = {}
    for i, j in pairs:
        correlation = _acc_sum(w[i] * w[j] * var) / math.sqrt(stats[i][1] * stats[j][1])
        if correlation < 0.0:
            warnings.warn(
                f"estimated correlation {correlation:.6f} is negative; clamping to 0",
                RuntimeWarning,
                stacklevel=2,
            )
        rho[(i, j)] = min(max(correlation, 0.0), 1.0)
    return [z for _, _, z in stats], rho


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
    if math.isnan(correlation) or not 0.0 <= correlation <= 1.0:
        raise ValueError(f"correlation must lie in [0, 1], got {correlation}")
    alpha = spec.alpha
    if spec.k1 == 1.0:
        return 1.0, float(ndtri(1.0 - alpha)), math.inf
    q1, q2 = _ray(spec, alpha)
    _, c = _bisect(lambda t: union_tail(t * q1, t * q2, correlation) < alpha, 0.0, 10.0, 1e-12)
    return c, c * q1, c * q2


def _observed_tail(spec: ComboSpec, z1: float, z2: float, rho: float, alpha: float) -> float:
    """Union tail at the observed statistics scaled onto the level-alpha threshold ray."""
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
    level, to absolute tolerance 1e-10, clamped to (1e-12, 0.5].
    """
    if math.isnan(correlation) or not 0.0 <= correlation <= 1.0:
        raise ValueError(f"correlation must lie in [0, 1], got {correlation}")
    if spec.k1 in (1.0, 0.5):
        p = _observed_tail(spec, z1, z2, correlation, spec.alpha)
        return min(max(p, 1e-300), 1.0 - 1e-16)
    lo, hi = 1e-12, 0.5
    if _rejects(spec, z1, z2, correlation, lo):
        return lo
    if not _rejects(spec, z1, z2, correlation, hi):
        return hi
    return _bisect(lambda a: _rejects(spec, z1, z2, correlation, a), lo, hi, 1e-10)[0]


def run_combo_test(spec: ComboSpec, table: Sequence[RiskTableRow]) -> ComboResult:
    """Run the full max-combo test on one risk table."""
    (z1, z2), rhos = evaluate((spec.w1, spec.w2), ((0, 1),), rows_to_arrays(table))
    correlation = rhos[(0, 1)]
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
