"""Benchmark of rmwtest: runs one workload, checks its outputs, prints its metrics.

    python3 perfbench/run.py --workload power_high --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics with nothing
wrapped; with ``--trace 1`` it measures the per-layer metrics instead (see
README.md in this directory). The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. The exit code
is 0 when every check passed, 1 when one failed, and 2 when the checkout
holds no package source to benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# these load neither numpy nor the package, so the thread settings below still apply
import layers
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"
END_TO_END = (
    ("reps_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p95", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
SETUP_PROBES = 5
# (span marking a path, workload that calls it, operations) for the traced
# side pass run when the workload itself never enters that path
SIDE_PASSES = (("simulator.trial", "power_high", 1), ("combo.test", "analyze", 30))
# One BLAS/OpenMP thread per process, so two harness workers fit two cores.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MAX_REPORTED_ERRORS = 10


class Checks:
    """Tally of attempted and failed operations and checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, error):
        self.attempted += 1
        if error:
            self.failed += 1
            if self.failed <= MAX_REPORTED_ERRORS:
                print(f"FAILED: {error}", file=sys.stderr)

    def attempt(self, fn, *args, **kwargs):
        """fn's result, or None with the traceback recorded as a failure."""
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.record(traceback.format_exc())
            return None


def measure(wl, checks, seconds=None, count=None, digests=None, pooled=None, **kwargs):
    """Run operations 0, 1, ... for ``seconds``, or exactly ``count`` of them.

    Returns each operation's latency, None where it failed. Outputs are
    checked and then dropped, so that memory does not grow with the
    operation count; ``digests`` collects a hash of each (None where the
    operation raised) and ``pooled`` sums the rejection tallies.
    """
    deadline = time.perf_counter() + (seconds or 0.0)
    latencies = []
    k = 0
    while k < count if count is not None else (k == 0 or time.perf_counter() < deadline):
        result = checks.attempt(wl.run, k, **kwargs)
        out = latency = None
        if result is not None:
            elapsed, out = result
            error = wl.check(out)
            checks.record(error)
            if error is None:
                latency = elapsed
            if pooled is not None:
                for key, (hits, n) in wl.tallies(out).items():
                    h0, n0 = pooled.get(key, (0, 0))
                    pooled[key] = (h0 + hits, n0 + n)
        if digests is not None:
            digests.append(None if out is None else hashlib.sha256(repr(out).encode()).digest())
        latencies.append(latency)
        k += 1
    return latencies


def same_outputs(checks, *passes):
    """Record whether passes over the same operations gave identical outputs."""
    differ = [k for k, digests in enumerate(zip(*passes)) if len(set(digests)) > 1]
    checks.record(f"passes over the same operations differ at operations {differ}" if differ else None)


def verify(wl, pooled, checks):
    """Pooled rejection rates against the reference, then the pinned default-seed run."""
    if pooled:
        checks.record("; ".join(workloads.band_failures(pooled)))
    got = checks.attempt(wl.pinned_outputs)
    if got is not None:
        pinned = workloads.load_pins()[wl.name]
        checks.record(None if got == pinned else f"default-seed outputs {got} differ from the pins {pinned}")


def setup_seconds(args, work):
    times = []
    for i in range(SETUP_PROBES):
        probe_work = work / f"probe{i}"
        probe_work.mkdir()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), args.workload, str(args.seed), str(probe_work)],
            capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def untraced(wl, args, checks, work):
    """Two passes over the same operations; each operation's latency is the
    lower of its two, so a stall of the shared machine during one pass
    does not count as the program's."""
    wl.warm_up()
    pooled, first, second = {}, [], []
    first_lat = measure(wl, checks, seconds=args.seconds / 2, digests=first, pooled=pooled)
    second_lat = measure(wl, checks, count=len(first), digests=second)
    same_outputs(checks, first, second)
    latencies = [min(a, b) for a, b in zip(first_lat, second_lat) if a is not None and b is not None]
    verify(wl, pooled, checks)
    # read before the set-up probes start, so only pool workers count as children
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if wl.workers > 1:
        rss += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    setup = checks.attempt(setup_seconds, args, work)
    if not latencies or setup is None:
        return {}
    print(f"latency samples: {len(latencies)} operations of {wl.datasets_per_op} datasets, each run twice")
    p50 = statistics.median(latencies)
    # "inclusive" interpolates between order statistics as numpy.percentile does
    p95 = statistics.quantiles(latencies, n=20, method="inclusive")[18] if len(latencies) > 1 else p50
    return {
        "reps_per_s": wl.datasets_per_op / p50,
        "latency_ms_p50": p50 * 1e3,
        "latency_ms_p95": p95 * 1e3,
        "setup_s": setup,
        "peak_rss_mb": rss / 1024,
    }


def replace_existing_ms(checks, work):
    """Median time of one atomic write onto an existing file by ``analyze --out``."""
    from rmwtest import cli

    out = work / "existing.json"
    argv = ["analyze", "--data", str(workloads.DATA), "--out", str(out)]
    times = []
    for i in range(4):  # the first call creates the result and its manifest
        with Tracer({"cli.write": layers.spans()["cli.write"]}) as tr:
            code = cli.main(argv)
        checks.record(None if code == 0 else f"analyze onto an existing output: exit code {code}")
        if i:
            times.append(tr.total("cli.write") / tr.calls("cli.write"))
    return statistics.median(times) * 1e3


def traced(wl, args, checks, work):
    """Untraced pass, then the same operations traced; plus side passes for
    the layers this workload does not call."""
    wl.warm_up()
    scenario = None
    pooled, base_out, traced_out = {}, [], []
    if wl.workers > 1:
        parallel = []
        with layers.scenario_tracer() as scenario:
            parallel_lat = measure(wl, checks, seconds=args.seconds / 4, digests=parallel, pooled=pooled)
        one_worker = {"workers": 1}
        base_lat = measure(wl, checks, count=len(parallel), digests=base_out, **one_worker)
    else:
        one_worker = {}
        base_lat = measure(wl, checks, seconds=args.seconds / 2, digests=base_out, pooled=pooled)
        parallel_lat, parallel = None, base_out
    with layers.layer_tracer() as own:
        traced_lat = measure(wl, checks, count=len(base_out), digests=traced_out, **one_worker)
    same_outputs(checks, parallel, base_out, traced_out)
    verify(wl, pooled, checks)

    side = []
    for span, name, count in SIDE_PASSES:
        if own.calls(span):
            continue
        (work / name).mkdir(exist_ok=True)
        side_wl = workloads.make(name, args.seed, work / name)
        side_wl.warm_up()
        with layers.layer_tracer() as tr:
            measure(side_wl, checks, count=count)
        side.append(tr)

    missing = layers.missing_spans([own, *side])
    if missing:
        checks.record(
            f"traced spans with no calls: {missing}; the functions they wrap were "
            "probably renamed, so perfbench/layers.py must follow"
        )
    if checks.failed:
        return {}
    for line in layers.self_time_table(own, sum(base_lat)):
        print(line)
    overhead = sum(traced_lat) / sum(base_lat) - 1.0
    speedup = sum(base_lat) / sum(parallel_lat) if parallel_lat else checks.attempt(wl.speedup_w2)
    replace_ms = checks.attempt(replace_existing_ms, checks, work)
    if speedup is None or replace_ms is None:
        return {}
    return layers.layer_metrics([own, *side], speedup, replace_ms, overhead, scenario=scenario)


def environment(load):
    import multiprocessing

    import numpy
    import scipy

    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg_at_start": load,
        "mp_start_method": multiprocessing.get_start_method(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads_pinned": {var: os.environ[var] for var in THREAD_VARS},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rmwtest" / "__init__.py").is_file():
        print(f"error: no rmwtest package source under {SRC}", file=sys.stderr)
        return 2
    load = os.getloadavg()
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy is first imported, here and in children
    sys.path.insert(0, str(SRC))
    work = WORK / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    (work / args.workload).mkdir(parents=True)
    checks = Checks()
    try:
        wl = workloads.make(args.workload, args.seed, work / args.workload)
        metrics = (traced if args.trace else untraced)(wl, args, checks, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run's directory is still there
            pass

    print("env " + json.dumps(environment(load), sort_keys=True))
    units = {name: unit for name, unit, _ in layers.PER_LAYER} if args.trace else dict(END_TO_END)
    for name, value in metrics.items():
        print(f"{name:28} {value:14.6g} {units[name]}")
    print(f"{'fail_frac':28} {checks.failed / max(checks.attempted, 1):14.6g} failed/attempted")
    correct = checks.failed == 0 and metrics.keys() == units.keys()
    result = {
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
