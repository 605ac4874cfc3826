"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written in a different style from the
package internals: pure-Python loops over per-subject dictionaries, exact
combinatorics via math.comb, and generic scipy quadrature. Slow is fine.
"""

import math
import sys
from collections import Counter

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import integrate
from scipy.special import ndtr

from rmwtest.combo import critical_values, one_sided_p, union_tail
from rmwtest.errors import DataError, NumericalError
from rmwtest.simulator import _stream_key
from rmwtest.weights import weights_from_km_left


def risk_table_oracle(time, event, arm):
    """Per-event-time summaries computed by explicit counting.

    Returns a list of dicts with keys tau, n, n1, d, d1, km_left, in
    ascending tau order. km_left is the pooled Kaplan-Meier estimate just
    before tau.
    """
    subjects = list(zip(time, event, arm))
    taus = sorted({t for t, e, _ in subjects if e})
    rows = []
    surv = 1.0
    for tau in taus:
        n = sum(1 for t, _, _ in subjects if t >= tau)
        n1 = sum(1 for t, _, a in subjects if t >= tau and a == 1)
        d = sum(1 for t, e, _ in subjects if t == tau and e)
        d1 = sum(1 for t, e, a in subjects if t == tau and e and a == 1)
        rows.append({"tau": tau, "n": n, "n1": n1, "d": d, "d1": d1, "km_left": surv})
        surv *= 1.0 - d / n
    return rows


def risk_table_matrix_oracle(time, event, arm):
    """The same summaries as risk_table_oracle, by subject-by-time masks.

    Fast enough for full-size trials: one boolean (event time x subject)
    matrix per count, summed along subjects. Returns arrays
    (tau, n, n1, d, d1, km_left); km_left is built by a Python loop.
    """
    time = np.asarray(time, dtype=float)
    event = np.asarray(event) == 1
    arm1 = np.asarray(arm) == 1
    tau = np.array(sorted({float(t) for t, e in zip(time, event) if e}))
    at_risk = time[None, :] >= tau[:, None]
    dies = (time[None, :] == tau[:, None]) & event[None, :]
    n = at_risk.sum(axis=1)
    n1 = (at_risk & arm1[None, :]).sum(axis=1)
    d = dies.sum(axis=1)
    d1 = (dies & arm1[None, :]).sum(axis=1)
    km_left = []
    surv = 1.0
    for d_i, n_i in zip(d.tolist(), n.tolist()):
        km_left.append(surv)
        surv *= 1.0 - d_i / n_i
    return tau, n, n1, d, d1, np.array(km_left)


def weighted_logrank_oracle(time, event, arm, weight_of_km):
    """(g, variance, z) with weights given as a function of km_left.

    g sums w * (observed - expected) arm-1 events; z is the standardized
    statistic oriented so that fewer arm-1 events than expected gives
    z > 0 (arm 1 benefit).
    """
    g_terms, v_terms = [], []
    for row in risk_table_oracle(time, event, arm):
        w = weight_of_km(row["km_left"])
        n, n1, d, d1 = row["n"], row["n1"], row["d"], row["d1"]
        expected = n1 * d / n
        g_terms.append(w * (d1 - expected))
        if n > 1:
            v_terms.append(w * w * n1 * (n - n1) * d * (n - d) / (n * n * (n - 1)))
    g = math.fsum(g_terms)
    variance = math.fsum(v_terms)
    z = -g / math.sqrt(variance) if variance > 0.0 else math.nan
    return g, variance, z


def geometric_mean(va, vb):
    """sqrt(va * vb), or sqrt(va) * sqrt(vb) where the product underflows."""
    return math.sqrt(va * vb) if va * vb >= sys.float_info.min else math.sqrt(va) * math.sqrt(vb)


def correlation_oracle(time, event, arm, weight1_of_km, weight2_of_km):
    """Null correlation of two weighted statistics by direct triple sum."""
    num, va, vb = [], [], []
    for row in risk_table_oracle(time, event, arm):
        n, n1, d = row["n"], row["n1"], row["d"]
        if n <= 1:
            continue
        v = n1 * (n - n1) * d * (n - d) / (n * n * (n - 1))
        w1 = weight1_of_km(row["km_left"])
        w2 = weight2_of_km(row["km_left"])
        num.append(w1 * w2 * v)
        va.append(w1 * w1 * v)
        vb.append(w2 * w2 * v)
    return math.fsum(num) / geometric_mean(math.fsum(va), math.fsum(vb))


def bvn_upper_oracle(a, b, rho):
    """P(X > a, Y > b) by 2-D adaptive quadrature of the density.

    The upper limits are truncated at 9 standard deviations, which is far
    below the comparison tolerances used in the tests.
    """
    det = 1.0 - rho * rho

    def density(y, x):
        q = (x * x - 2.0 * rho * x * y + y * y) / det
        return math.exp(-0.5 * q) / (2.0 * math.pi * math.sqrt(det))

    value, _ = integrate.dblquad(
        density, a, 9.0, lambda _x: b, lambda _x: 9.0, epsabs=1e-13, epsrel=1e-11
    )
    return value


def hypergeometric_moments_oracle(n, n1, d):
    """Mean and variance of the arm-1 event count by full enumeration.

    The count of arm-1 events among d events drawn without replacement
    from n subjects of which n1 are in arm 1.
    """
    total = math.comb(n, d)
    mean_terms, sq_terms = [], []
    for k in range(max(0, d - (n - n1)), min(n1, d) + 1):
        p = math.comb(n1, k) * math.comb(n - n1, d - k) / total
        mean_terms.append(k * p)
        sq_terms.append(k * k * p)
    mean = math.fsum(mean_terms)
    return mean, math.fsum(sq_terms) - mean * mean


def expected_event_fraction(hazard_survival, study_length, recruit_duration):
    """P(event observed) for one arm: average the survivor function over
    uniform entry and complement.

    hazard_survival: callable t -> S(t) for that arm.
    """
    integral, _ = integrate.quad(
        lambda entry: hazard_survival(study_length - entry) / recruit_duration,
        0.0,
        recruit_duration,
        epsabs=1e-12,
    )
    return 1.0 - integral


def random_dataset(rng, max_n=50):
    """Small random two-arm dataset with ties, for oracle comparisons.

    Integer-valued times force heavy tying; both arms and at least one
    event are guaranteed.
    """
    while True:
        n = int(rng.integers(4, max_n + 1))
        time = rng.integers(1, 9, size=n).astype(float)
        event = (rng.random(n) < 0.7).astype(int)
        arm = (rng.random(n) < 0.5).astype(int)
        counts = Counter(arm.tolist())
        if event.sum() > 0 and counts[0] > 0 and counts[1] > 0:
            return time, event, arm


def constant_weight(_km):
    return 1.0


def modest_weight(s_star):
    return lambda km: 1.0 / max(km, s_star)


def fleming_harrington_weight(rho, gamma):
    def w(km):
        lead = 1.0 if rho == 0.0 else km**rho
        tail = 1.0 if gamma == 0.0 else (1.0 - km) ** gamma
        return lead * tail

    return w


# ---------------------------------------------------------------------------
# combo.bvn_upper as it stood before its quadrature cached the per-level
# set-up: a linspace and a tile per level and one integrand pass per level.
# The package's kernel must stay equal to it bit for bit. Only the two
# function names differ from that text.

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_TAIL_Z = 9.0     # |z| beyond which the conditional tail factor is 0 or 1 to ~1e-19
_FAR_X = 12.5     # |x| beyond which phi(x) mass is negligible at any tolerance used here
_QUAD_TOL = 1e-13
_GL_X, _GL_W = leggauss(16)


def _middle_integral_reference(lo: float, hi: float, b: float, rho: float, s: float) -> float:
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


def bvn_upper_reference(a: float, b: float, rho: float) -> float:
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
    middle = _middle_integral_reference(mid_lo, mid_hi, b, rho, s)

    if rho > 0.0:
        # conditional tail ~1 above the band
        value = middle + one_sided_p(max(a, x2))
    else:
        # conditional tail ~1 below the band
        value = (one_sided_p(a) - one_sided_p(max(a, x1))) + middle
    return min(1.0, max(0.0, value))


# ---------------------------------------------------------------------------
# Large-sample operating characteristics, with no simulation (Lakatos 1988,
# Biometrics 44:229-241; Yung & Liu 2020, Biometrics 76:939-950).


def asymptotic_power(scenario, methods, slices=20_000):
    """Limiting rejection rate of each method under a scenario, keyed by label.

    On a midpoint grid of ``slices`` slices over [0, study_length], arm j is
    at risk with fraction y_j = S_j(t) G(t) / 2, where G(t) = clip((L - t)/R,
    0, 1) is the chance that follow-up reaches t. A slice of width dt adds
    n y0 y1/y (h1 - h0) dt to the drift of arm 1's observed-minus-expected
    event count and n y0 y1/y^2 (y0 h0 + y1 h1) dt to its null variance v,
    with y = y0 + y1. Weights are taken at the limit of the pooled
    Kaplan-Meier left-limit, exp(-integral of (y0 h0 + y1 h1)/y). Statistic
    i is then normal with mean mu_i = -sum(w_i drift)/sqrt(V_i), where
    V_i = sum(w_i^2 v), and unit variance; a pair has correlation
    sum(w1 w2 v)/sqrt(V1 V2), and a method rejects with probability
    union_tail(t1 - mu1, t2 - mu2, rho) at its critical values.
    """
    n, length = scenario.n_total, scenario.study_length
    dt = length / slices
    t = (np.arange(slices) + 0.5) * dt
    follow = np.clip((length - t) / scenario.recruit_duration, 0.0, 1.0)
    y0, y1 = (0.5 * np.exp(-arm.cumulative_hazard(t)) * follow for arm in (scenario.arm0, scenario.arm1))
    h0, h1 = (_slice_hazard(arm, t) for arm in (scenario.arm0, scenario.arm1))
    y = y0 + y1
    pooled = (y0 * h0 + y1 * h1) / y * dt
    km_left = np.exp(-(np.cumsum(pooled) - 0.5 * pooled))  # the left limit at each midpoint
    drift = n * y0 * y1 / y * (h1 - h0) * dt
    var = n * y0 * y1 / (y * y) * (y0 * h0 + y1 * h1) * dt
    rates = {}
    for method in methods:
        spec = method.combo
        w1, w2 = (weights_from_km_left(w, km_left) for w in (spec.w1, spec.w2))
        v1, v2 = float(np.dot(w1 * w1, var)), float(np.dot(w2 * w2, var))
        mu1 = -float(np.dot(w1, drift)) / math.sqrt(v1)
        mu2 = -float(np.dot(w2, drift)) / math.sqrt(v2)
        rho = min(float(np.dot(w1 * w2, var)) / geometric_mean(v1, v2), 1.0)
        _, t1, t2 = critical_values(spec, rho)  # a single test's t2 is +inf
        rates[method.label] = union_tail(t1 - mu1, t2 - mu2, rho)
    return rates


def _slice_hazard(hazard, t):
    """The piecewise-constant hazard at times t, from its segment table."""
    starts, _, rates = hazard._segments
    return rates[np.searchsorted(starts, t, side="right") - 1]


# ---------------------------------------------------------------------------
# The trial data layer as it stood before its hot bodies were rewritten:
# a searchsorted and three gathers per hazard evaluation, two uniform draws
# per trial, and the risk table's checks as two comparisons per 0/1 column.
# The package must stay equal to these bit for bit and message for message.
# Only names differ from that text: ``self`` is ``hazard``, the functions
# carry a ``_reference`` suffix and call each other by it, and the
# signatures lost their annotations.


def cumulative_hazard_reference(hazard, t):
    """Integrated hazard at time(s) t >= 0."""
    t_arr = np.asarray(t, dtype=np.float64)
    if (t_arr < 0).any():
        raise ValueError("time must be >= 0")
    starts, cum, rates = hazard._segments
    seg = np.searchsorted(starts, t_arr, side="right") - 1
    out = cum[seg] + (t_arr - starts[seg]) * rates[seg]
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def inverse_cumulative_hazard_reference(hazard, y):
    """Time at which the integrated hazard reaches y >= 0."""
    y_arr = np.asarray(y, dtype=np.float64)
    if (y_arr < 0).any():
        raise ValueError("cumulative hazard must be >= 0")
    starts, cum, rates = hazard._segments
    seg = np.searchsorted(cum, y_arr, side="right") - 1
    out = starts[seg] + (y_arr - cum[seg]) / rates[seg]
    return float(out) if np.isscalar(y) or y_arr.ndim == 0 else out


def simulate_trial_reference(scenario, seed, replicate=0):
    """Simulate one trial as (time, event, arm) columns, deterministic in (seed, replicate).

    Times are float64; event (1 observed, 0 censored) and arm (0 control,
    1 experimental) are int64. Draw order is fixed: entry uniforms for all
    subjects, then event uniforms for all subjects, with the control arm in
    the first half.
    """
    n = scenario.n_total
    half = n // 2
    rng = np.random.Generator(np.random.Philox(key=_stream_key(seed, replicate)))
    entry = rng.random(n) * scenario.recruit_duration
    # map draws onto (0, 1] so the inverted hazard is finite
    u = 1.0 - rng.random(n)
    cum = -np.log(u)
    event_time = np.empty(n)
    event_time[:half] = inverse_cumulative_hazard_reference(scenario.arm0, cum[:half])
    event_time[half:] = inverse_cumulative_hazard_reference(scenario.arm1, cum[half:])
    cap = scenario.study_length - entry
    event = event_time <= cap
    time = np.where(event, event_time, cap)
    arm = np.zeros(n, dtype=np.int64)
    arm[half:] = 1
    return time, event.astype(np.int64), arm


def risk_arrays_checks_reference(time, event, arm):
    """The checks ``risk_arrays`` makes before it builds a table, in order."""
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
