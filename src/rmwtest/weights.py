"""Weight functions evaluated on risk-table rows.

Three families are supported: constant weights (the standard log-rank
test), modest weights 1 / max(S(t-), s*) which rise from 1 to 1/s* and
then stay flat, and Fleming-Harrington (rho, gamma) weights
S(t-)^rho * (1 - S(t-))^gamma. All of them are functions of the pooled
Kaplan-Meier left-limit stored in the risk table.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import GrammarError

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
            if self.rho is None or self.gamma is None or self.rho < 0 or self.gamma < 0:
                raise ValueError(
                    f"Fleming-Harrington weights require rho >= 0 and gamma >= 0, "
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
        """Canonical config-string form; round-trips through parse_weight_spec."""
        if self.family == CONSTANT:
            return "constant"
        if self.family == MODEST:
            return f"mw({self.s_star:g})"
        return f"fh({self.rho:g},{self.gamma:g})"


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


_SPEC_RE = re.compile(r"^\s*(?P<name>[A-Za-z_][A-Za-z_0-9]*)\s*(?:\((?P<args>[^)]*)\)\s*)?$")
_ARG_RE = re.compile(r"^\s*(?:(?P<key>[A-Za-z_*][A-Za-z_0-9*]*)\s*=)?\s*(?P<value>[^\s=]+)\s*$")

_FAMILY_ARITY = {
    "constant": ("constant", 0),
    "lr": ("constant", 0),
    "mw": ("modest", 1),
    "fh": ("fh", 2),
}


def parse_weight_spec(text: str, offset: int = 0) -> WeightSpec:
    """Parse a weight config string: ``constant``, ``lr``, ``mw(0.5)``, ``fh(0,0.5)``.

    Numeric parameters may carry an optional name (``mw(s*=0.5)``). Errors
    report the byte offset of the problem within the original input;
    ``offset`` shifts reported positions when the string is embedded in a
    larger grammar.
    """
    m = _SPEC_RE.match(text)
    if m is None:
        raise GrammarError(f"offset {offset}: cannot parse weight spec {text!r}")
    name = m.group("name").lower()
    if name not in _FAMILY_ARITY:
        raise GrammarError(
            f"offset {offset + m.start('name')}: unknown weight family {name!r} "
            f"(expected one of {sorted(_FAMILY_ARITY)})"
        )
    family, arity = _FAMILY_ARITY[name]
    raw_args = m.group("args")
    if raw_args is None:
        args: list[str] = []
        args_at = offset + len(text)
    else:
        args = raw_args.split(",") if raw_args.strip() else []
        args_at = offset + m.start("args")
    if len(args) != arity:
        raise GrammarError(
            f"offset {args_at}: {name} takes {arity} parameter(s), got {len(args)}"
        )
    values: list[float] = []
    pos = args_at
    for arg in args:
        am = _ARG_RE.match(arg)
        if am is None:
            raise GrammarError(f"offset {pos}: cannot parse parameter {arg.strip()!r}")
        try:
            values.append(float(am.group("value")))
        except ValueError:
            raise GrammarError(
                f"offset {pos + am.start('value')}: not a number: {am.group('value')!r}"
            ) from None
        pos += len(arg) + 1
    try:
        if family == "constant":
            return WeightSpec.constant()
        if family == "modest":
            return WeightSpec.modest(values[0])
        return WeightSpec.fleming_harrington(values[0], values[1])
    except ValueError as exc:
        raise GrammarError(f"offset {args_at}: {exc}") from None
