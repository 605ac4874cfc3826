"""Time one set-up of a workload in a fresh interpreter and print it in seconds.

Set-up is importing the package modules the workload uses, making its
inputs, and one warm-up operation, which fills the lazy Gauss-Legendre
cache and finishes scipy's imports. ``run.py`` starts this several times.

    python3 perfbench/setup_probe.py <workload> <seed> <work directory>
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402


def main(argv):
    name, seed, work = argv
    workloads.make(name, int(seed), work).warm_up()
    print(time.perf_counter() - START)


if __name__ == "__main__":
    main(sys.argv[1:])
