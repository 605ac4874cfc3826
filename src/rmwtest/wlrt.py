"""Weighted log-rank statistic, null variance, and standardized Z.

The per-time event count on arm 1 is compared with its hypergeometric
null moments; the weighted sum of (observed - expected) and its variance
give the test statistic. Z is oriented so that fewer events than expected
on arm 1 (treatment benefit) maps to positive evidence, i.e. the one-sided
p-value is 1 - Phi(z) and large positive z rejects.

A single weighted log-rank test is ``run_combo_test(ComboSpec(w, w, k1=1.0),
table)`` in ``combo``, which calls these functions through ``evaluate``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

from .dataset import RiskArrays
from .errors import NumericalError


def _acc_sum(values: np.ndarray) -> float:
    # exactly-rounded accumulation, taken in ascending-tau order
    return math.fsum(values.tolist())


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
    w: np.ndarray, risk: RiskArrays, mean: np.ndarray, var: np.ndarray
) -> tuple[float, float, float]:
    """(g, variance, z) for one weight vector over a columnar risk table.

    Zero-variance rows (risk sets of size one) still contribute their
    weighted observed-minus-expected term to ``g``. A zero total variance
    raises NumericalError("degenerate variance").
    """
    g = _acc_sum(w * (risk.d_arm1 - mean))
    variance = _acc_sum(w * w * var)
    if variance <= 0.0:
        raise NumericalError("degenerate variance")
    return g, variance, -g / math.sqrt(variance)


def one_sided_p(z: float) -> float:
    """Upper-tail normal p-value for a standardized statistic."""
    return float(ndtr(-z))
