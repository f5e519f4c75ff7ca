"""Seeded, layer-attributed benchmark of Domino's campaign, analyze and
live paths.

Run from the repository root:

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics for ``--seconds`` seconds;
``--trace 1`` runs a fixed amount of work twice, untraced and with
per-layer timing wrappers, and reports the per-layer metrics.
``--workload all`` runs every workload untraced and, with ``--trace 1``,
traced too, each in a fresh process (peak RSS is per workload).  A table
of every metric (with unit and sample count) and notes go to standard
output; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Each run also writes its
result and output digest to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("campaign", "analyze_trace", "analyze_bundle", "live_replay")


def _import_program() -> None:
    """Put the checkout's own ``src/`` first on the path, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(f"program source not found under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"imported repro from {repro.__file__}, not {SRC}\n")
        raise SystemExit(2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=WORKLOADS + ("all",),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_program()
    if args.workload == "all":
        return run_all(args)
    from harness import bench

    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        result = bench.run(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    kind = "per-layer (traced)" if result.trace else "end-to-end"
    print(f"# {args.workload} seed={args.seed} {kind}")
    print(f"{'metric':<36} {'value':>14} {'unit':<9} samples")
    for name, value in result.metrics.items():
        print(
            f"{name:<36} {value:>14.6g} {result.units[name]:<9} "
            f"{result.samples[name]}"
        )
    for note in result.notes:
        print(f"# {note}")
    print(f"# digest {' '.join(result.digests)}")
    line = result.json_line()
    with open(
        os.path.join(OUT, f"{args.workload}-trace{args.trace}.json"), "w"
    ) as handle:
        json.dump(
            dict(line, seed=args.seed, digests=result.digests), handle, indent=1
        )
    print(json.dumps(line))
    return 0 if result.correct else 1


def run_all(args) -> int:
    """Run every workload in its own process; print their tables and one
    combined result line whose metrics are named ``workload.metric``."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in range(args.trace + 1):
            done = subprocess.run(
                [
                    sys.executable, os.path.abspath(__file__),
                    "--workload", workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace),
                ],
                stdout=subprocess.PIPE,
                text=True,
                timeout=600,
            )
            lines = done.stdout.splitlines()
            if done.returncode not in (0, 1) or not lines:
                sys.stderr.write(f"{workload} --trace {trace} failed\n")
                return 2
            print("\n".join(lines[:-1]), flush=True)
            result = json.loads(lines[-1])
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
