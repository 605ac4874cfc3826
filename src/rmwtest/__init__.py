"""Weighted log-rank and max-combo tests for survival data under
non-proportional hazards, with a piecewise-exponential trial simulator
and a Monte Carlo harness for power, type-I error, and assurance.
"""

from .combo import (
    ComboResult,
    ComboSpec,
    bvn_upper,
    combo_pvalue,
    combo_reject,
    critical_values,
    run_combo_test,
    union_tail,
)
from .dataset import (
    CSV_HEADER,
    RiskTableRow,
    build_risk_table,
    read_survival_csv,
    write_survival_csv,
)
from .errors import DataError, GrammarError, NumericalError
from .harness import (
    AssuranceSpec,
    MethodSpec,
    OperatingCharacteristics,
    assurance,
    estimate_power,
    paper_methods,
    read_power_csv,
    write_power_csv,
    write_power_json,
)
from .simulator import (
    BUILTIN_SCENARIOS,
    PiecewiseHazard,
    Scenario,
    get_scenario,
    read_scenario,
    scenario_hash,
    simulate_trial,
    write_scenario,
)
from .weights import WeightSpec
from .wlrt import one_sided_p

__version__ = "0.1.0"

__all__ = [
    "AssuranceSpec",
    "BUILTIN_SCENARIOS",
    "CSV_HEADER",
    "ComboResult",
    "ComboSpec",
    "DataError",
    "GrammarError",
    "MethodSpec",
    "NumericalError",
    "OperatingCharacteristics",
    "PiecewiseHazard",
    "RiskTableRow",
    "Scenario",
    "WeightSpec",
    "assurance",
    "build_risk_table",
    "bvn_upper",
    "combo_pvalue",
    "combo_reject",
    "critical_values",
    "estimate_power",
    "get_scenario",
    "one_sided_p",
    "paper_methods",
    "read_power_csv",
    "read_scenario",
    "read_survival_csv",
    "run_combo_test",
    "scenario_hash",
    "simulate_trial",
    "union_tail",
    "write_power_csv",
    "write_power_json",
    "write_scenario",
    "write_survival_csv",
    "__version__",
]
