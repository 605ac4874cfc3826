"""Weight functions evaluated on pooled Kaplan-Meier left-limits.

Three families are supported: constant weights (the standard log-rank
test), modest weights 1 / max(S(t-), s*) which rise from 1 to 1/s* and
then stay flat, and Fleming-Harrington (rho, gamma) weights
S(t-)^rho * (1 - S(t-))^gamma, where S(t-) is the pooled Kaplan-Meier
left-limit at each event time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# family name -> its parameter names by position, as the method grammar and
# WeightSpec.label write them
FAMILIES = {"constant": (), "mw": ("s*",), "fh": ("rho", "gamma")}


@dataclass(frozen=True)
class WeightSpec:
    """One weight family of ``FAMILIES`` with its parameters, in order."""

    family: str
    params: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        params = tuple(map(float, self.params))
        object.__setattr__(self, "params", params)
        if self.family not in FAMILIES:
            raise ValueError(f"unknown weight family {self.family!r}")
        names = FAMILIES[self.family]
        if len(params) != len(names):
            raise ValueError(
                f"{self.family} weights take {len(names)} parameter(s), got {len(params)}"
            )
        if self.family == "mw" and not 0.0 < params[0] <= 1.0:
            raise ValueError(f"modest weights require 0 < s_star <= 1, got {params[0]!r}")
        if self.family == "fh" and not all(math.isfinite(p) and p >= 0 for p in params):
            raise ValueError(
                f"Fleming-Harrington weights require finite rho >= 0 and gamma >= 0, "
                f"got rho={params[0]!r}, gamma={params[1]!r}"
            )

    @classmethod
    def constant(cls) -> "WeightSpec":
        return cls("constant")

    @classmethod
    def modest(cls, s_star: float) -> "WeightSpec":
        return cls("mw", (s_star,))

    @classmethod
    def fleming_harrington(cls, rho: float, gamma: float) -> "WeightSpec":
        return cls("fh", (rho, gamma))

    def label(self) -> str:
        """Canonical config string, numbers in shortest round-trip form without
        a trailing ``.0``; ``cli.parse_method_grammar`` reads it back as the
        weight of a single test (``combo.w1``) equal to this spec."""
        if not self.params:
            return self.family
        args = ",".join(repr(p).removesuffix(".0") for p in self.params)
        return f"{self.family}({args})"


def weights_from_km_left(spec: WeightSpec, km_left: np.ndarray) -> np.ndarray:
    """Evaluate the weight function on an array of pooled KM left-limits.

    0**0 is taken as 1, which makes fh(0,0) coincide exactly with constant
    weights at every row.
    """
    km_left = np.asarray(km_left, dtype=np.float64)
    if spec.family == "constant":
        return np.ones_like(km_left)
    if spec.family == "mw":
        return 1.0 / np.maximum(km_left, spec.params[0])
    rho, gamma = spec.params
    return km_left**rho * (1.0 - km_left) ** gamma
