"""Write pins.json: the outputs every benchmark run checks against.

    python3 perfbench/make_pins.py

Run it only at a commit whose outputs are known to be right; the pins exist
so that later commits are held to them. It records
- the rejection counts of the first operations of power_high and power_low
  under the default seed;
- the result bytes of each analyze test on data/example_trial.csv;
- hashes of the CSV and JSON report of the first power_grid operation under
  the default seed;
- reference rejection counts, 10,000 replicates per built-in scenario, under
  a seed no workload operation uses.
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

REFERENCE_SEED = 999_999  # op_seed(seed, k) reaches it only at k = 999,999
REFERENCE_REPS = 10_000


def main():
    from rmwtest.harness import estimate_power, paper_methods
    from rmwtest.simulator import BUILTIN_SCENARIOS

    work = HERE / ".work" / "pins"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        pins = {
            name: workloads.make(name, workloads.DEFAULT_SEED, work).pinned_outputs()
            for name in workloads.WORKLOADS
        }
        methods = paper_methods()
        rejections = {}
        for scenario in BUILTIN_SCENARIOS.values():
            oc = estimate_power(scenario, methods, REFERENCE_REPS, REFERENCE_SEED, workers=2)
            rejections[scenario.name] = {
                m.label: round(oc.rates[m.label] * REFERENCE_REPS) for m in methods
            }
        pins["reference"] = {
            "seed": REFERENCE_SEED, "replicates": REFERENCE_REPS, "rejections": rejections,
        }
        workloads.PINS.write_text(json.dumps(pins, indent=1) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
