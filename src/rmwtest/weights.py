"""Weight functions evaluated on risk-table rows.

Three families are supported: constant weights (the standard log-rank
test), modest weights 1 / max(S(t-), s*) which rise from 1 to 1/s* and
then stay flat, and Fleming-Harrington (rho, gamma) weights
S(t-)^rho * (1 - S(t-))^gamma. All of them are functions of the pooled
Kaplan-Meier left-limit stored in the risk table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

CONSTANT = "constant"
MODEST = "modest"
FLEMING_HARRINGTON = "fh"


@dataclass(frozen=True)
class WeightSpec:
    """Selector for one weight family, with its parameters.

    Use the classmethod constructors; they validate the parameters.
    """

    family: str
    s_star: float | None = None
    rho: float | None = None
    gamma: float | None = None

    def __post_init__(self) -> None:
        if self.family == CONSTANT:
            if self.s_star is not None or self.rho is not None or self.gamma is not None:
                raise ValueError("constant weights take no parameters")
        elif self.family == MODEST:
            if self.s_star is None or not 0.0 < self.s_star <= 1.0:
                raise ValueError(f"modest weights require 0 < s_star <= 1, got {self.s_star!r}")
        elif self.family == FLEMING_HARRINGTON:
            if not all(p is not None and math.isfinite(p) and p >= 0 for p in (self.rho, self.gamma)):
                raise ValueError(
                    f"Fleming-Harrington weights require finite rho >= 0 and gamma >= 0, "
                    f"got rho={self.rho!r}, gamma={self.gamma!r}"
                )
        else:
            raise ValueError(f"unknown weight family {self.family!r}")

    @classmethod
    def constant(cls) -> "WeightSpec":
        return cls(family=CONSTANT)

    @classmethod
    def modest(cls, s_star: float) -> "WeightSpec":
        return cls(family=MODEST, s_star=float(s_star))

    @classmethod
    def fleming_harrington(cls, rho: float, gamma: float) -> "WeightSpec":
        return cls(family=FLEMING_HARRINGTON, rho=float(rho), gamma=float(gamma))

    def label(self) -> str:
        """Canonical config string, numbers in shortest round-trip form without
        a trailing ``.0``; ``cli.parse_method_grammar`` reads it back as the
        weight of a single test (``combo.w1``) equal to this spec."""
        if self.family == CONSTANT:
            return "constant"
        params = (self.s_star,) if self.family == MODEST else (self.rho, self.gamma)
        args = ",".join(repr(float(p)).removesuffix(".0") for p in params)
        return f"{'mw' if self.family == MODEST else 'fh'}({args})"


def weights_from_km_left(spec: WeightSpec, km_left: np.ndarray) -> np.ndarray:
    """Evaluate the weight function on an array of pooled KM left-limits.

    0**0 is taken as 1, which makes fh(0,0) coincide exactly with constant
    weights at every row.
    """
    km_left = np.asarray(km_left, dtype=np.float64)
    if spec.family == CONSTANT:
        return np.ones_like(km_left)
    if spec.family == MODEST:
        return 1.0 / np.maximum(km_left, spec.s_star)
    return km_left**spec.rho * (1.0 - km_left) ** spec.gamma

