"""Sensitivity self-test of the benchmark.

Injects a 2x busy-wait slowdown, from the benchmark side, into one layer
at a time (the targets of ``harness.predictions.SLOWDOWNS``) and checks
that only what the benchmark predicts moves:

* the predicted per-layer metric grows by at least half;
* the predicted workload's end-to-end metric gets worse by more than
  its bound in BENCHMARK.json;
* every end-to-end metric of every other workload stays within its
  bound: those workloads bypass the layer or spend little time in it.
  (The moved workload's other metrics measure the same work and may
  move with it.)

Set-up time is left out of the comparison: the corpus set-up runs the
simulator for every workload but campaign.  Like the benchmark itself,
every measurement runs in a fresh process, one after another; baselines
and the moved workload's slowed runs are medians of REPEATS processes.
Run from the repository root (takes about 40 minutes):

    python3 perfbench/tests/check_sensitivity.py [--seed N] [--seconds S]

Exits 0 when every prediction holds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)

#: A 2x slowdown of a layer's calls should grow its metric by this much.
LAYER_MOVE = 0.5
#: Processes per median, for baselines and the moved workload.
REPEATS = 3


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def worse_by(base: float, new: float, better: str) -> float:
    """How much worse *new* is than *base*, as a share of *base*."""
    change = (new - base) / base
    return change if better == "lower" else -change


def measure_one(workload, seed, seconds, slow, traced) -> dict:
    """One measurement in this process: end-to-end metrics, or per-layer
    metrics when *traced*, with *slow* (a target name or None) doubled."""
    sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]
    from harness import bench
    from harness.host import HostSpeed
    from harness.tracing import slowed
    from harness.workloads import WORKLOADS

    spec = WORKLOADS[workload]
    workdir = os.path.join(BENCH, "out", f"sensitivity-{os.getpid()}")
    try:
        inputs = spec.setup(seed, workdir)
        with slowed(slow):
            if traced:
                return bench.traced_run(spec, inputs).metrics
            result = spec.run(inputs, seconds=seconds, host=HostSpeed())
            return bench.measured_metrics(result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(workload, args, slow=None, traced=False, repeats=1) -> dict:
    """Median over *repeats* fresh processes of :func:`measure_one`."""
    runs = [_measure(workload, args, slow, traced) for _ in range(repeats)]
    return {name: statistics.median(r[name] for r in runs)
            for name in runs[0]}


def _measure(workload, args, slow, traced) -> dict:
    command = [
        sys.executable, os.path.abspath(__file__), "--one", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
    ]
    if slow is not None:
        command += ["--slow", slow]
    if traced:
        command.append("--traced")
    done = subprocess.run(
        command, capture_output=True, text=True, check=True, timeout=600
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def check(args, spec) -> list:
    """Run every slowdown of SLOWDOWNS; return the failed predictions."""
    sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]
    from harness.predictions import SLOWDOWNS

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    base = {w: measure(w, args, repeats=REPEATS) for w in workloads}
    failures = []
    for target, (layer_metric, moved, e2e) in SLOWDOWNS.items():
        print(f"== 2x slowdown of {target}", flush=True)
        before = measure(moved, args, traced=True)[layer_metric]
        after = measure(moved, args, slow=target, traced=True)[layer_metric]
        grew = (after - before) / before
        print(f"  {moved:<15} {layer_metric} {before:.3f} -> {after:.3f} "
              f"({grew:+.0%}, must grow by {LAYER_MOVE:.0%})")
        if grew < LAYER_MOVE:
            failures.append(f"{target}: {layer_metric} on {moved}")
        for workload in workloads:
            slow = measure(
                workload,
                args,
                slow=target,
                repeats=REPEATS if workload == moved else 1,
            )
            for name, value in slow.items():
                bound = bounds[name]["bound"]
                worse = worse_by(
                    base[workload][name], value, bounds[name]["better"]
                )
                if workload != moved:
                    rule, ok = "stay within", worse <= bound
                elif name == e2e:
                    rule, ok = "exceed", worse > bound
                else:
                    rule, ok = "any", True
                print(f"  {workload:<15} {name:<18} worse by {worse:+6.1%} "
                      f"(bound {bound:.0%}, must {rule})", flush=True)
                if not ok:
                    failures.append(f"{target}: {name} on {workload}")
    return failures


def main(argv=None) -> int:
    spec = benchmark_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument(
        "--seconds", type=float, default=float(spec["run_seconds"])
    )
    parser.add_argument("--one", help=argparse.SUPPRESS)
    parser.add_argument("--slow", help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one:
        print(json.dumps(measure_one(
            args.one, args.seed, args.seconds, args.slow, args.traced
        )))
        return 0
    failures = check(args, spec)
    for failure in failures:
        print(f"FAILED {failure}")
    print("all predictions hold" if not failures else
          f"{len(failures)} prediction(s) failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
