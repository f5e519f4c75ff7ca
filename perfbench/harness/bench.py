"""One benchmark run: set up, measure, check, and report one workload.

An untraced run (``trace=False``) reports the end-to-end metrics; a
traced run reports the per-layer metrics from a traced pass, next to an
untraced pass over the same work that gives the tracing overhead and
must produce the same output digest.
"""

from __future__ import annotations

import resource
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from harness import host
from harness.predictions import MOVES
from harness.tracing import Tracer
from harness.workloads import LATE_LIMIT_S, WORKLOADS, Pass

#: (name, unit) of the end-to-end metrics, reported by untraced runs.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("x_realtime", "x"),
    ("latency_mean_ms", "ms"),
    ("sessions_per_core", "x"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

#: A live run needs this many windows before its p99 is reported.
P99_MIN_WINDOWS = 1000

#: Layer metrics that are plain self times: metric -> layer.
SELF_TIME_METRICS: Dict[str, str] = {
    "sim.ran.self_s": "sim.ran",
    "sim.phy.channel_s": "sim.phy.channel",
    "sim.mac.crosstraffic_s": "sim.mac.crosstraffic",
    "sim.mac.scheduler_s": "sim.mac.scheduler",
    "sim.mac.harq_s": "sim.mac.harq",
    "sim.mac.ulgrant_s": "sim.mac.ulgrant",
    "sim.rlc_s": "sim.rlc",
    "sim.rrc_s": "sim.rrc",
    "sim.session.self_s": "sim.session",
    "sim.net_s": "sim.net",
    "sim.rtc.client_self_s": "sim.rtc.client",
    "sim.rtc.gcc_s": "sim.rtc.gcc",
    "sim.rtc.receiver_s": "sim.rtc.receiver",
    "sim.rtc.pacer_s": "sim.rtc.pacer",
    "telemetry.collect_s": "telemetry.collect",
    "io.decode_s": "io.decode",
    "ingest_s": "ingest",
    "detect.build_s": "detect.build",
    "detect.features_s": "detect.features",
    "detect.trace_s": "detect.trace",
    "fleet.self_s": "fleet",
    "fleet.summarize_s": "fleet.summarize",
    "fleet.attribute_s": "fleet.attribute",
    "live.feed_s": "live.feed",
    "live.aggregate_s": "live.aggregate",
    "live.snapshot_s": "live.snapshot",
    "live.idle_s": "live.idle",
}

#: (name, unit) of every per-layer metric, reported by traced runs.
PER_LAYER: Tuple[Tuple[str, str], ...] = tuple(
    (name, "s") for name in SELF_TIME_METRICS
) + (
    ("sim.ran.slots", "count"),
    ("sim.session.ticks", "count"),
    ("sim.session.idle_tick_fraction", "fraction"),
    ("telemetry.dci_records", "count"),
    ("telemetry.dci_experiment_fraction", "fraction"),
    ("io.decode_mb_per_s", "MB/s"),
    ("ingest.records_per_s", "1/s"),
    ("detect.windows", "count"),
    ("detect.detected_windows", "count"),
    ("fleet.detect_s", "s"),
    ("live.advance_s", "s"),
    ("live.advance_p99_ms", "ms"),
    ("live.chunk_build_s", "s"),
    ("live.reingest_ratio", "ratio"),
    ("live.queue_depth_max", "count"),
    ("live.generator_late_ms_p99", "ms"),
    ("live.late_window_fraction", "fraction"),
    ("bench.tracing_overhead", "ratio"),
    ("bench.layer_coverage", "fraction"),
    ("host.calibration_s", "s"),
)


@dataclass
class Result:
    """What run.py prints: metric values, sample counts and checks."""

    workload: str
    trace: bool
    metrics: Dict[str, float]
    units: Dict[str, str]
    samples: Dict[str, int]
    attempted: int
    failed: int
    digests: List[str]
    notes: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def json_line(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": self.units[name]}
                for name, value in self.metrics.items()
            },
        }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _percentile(values: List[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def tail_percentile(n: int) -> Optional[float]:
    """Highest percentile with at least ten samples beyond it."""
    if n < 20:
        return None
    return float(np.floor(1000 * (1 - 10 / n)) / 10)


def run(
    workload: str, seed: int, seconds: float, trace: bool, workdir: str
) -> Result:
    """Set up and run *workload* once, traced or untraced."""
    spec = WORKLOADS[workload]
    if trace:
        return traced_run(spec, spec.setup(seed, workdir))
    setups = []
    for _ in range(spec.setup_repeats):
        speed = host.HostSpeed()
        with speed.sampling():
            start = speed.now("wall")
            inputs = spec.setup(seed, workdir)
            end = speed.now("wall")
        setups.append(speed.reference("wall", start, end))
    return untraced_run(spec, inputs, seconds, setups)


def _per_profile_mean(profiles, values) -> Dict[str, float]:
    by_profile: Dict[str, List[float]] = {}
    for profile, value in zip(profiles, values):
        by_profile.setdefault(profile, []).append(value)
    return {p: statistics.mean(v) for p, v in by_profile.items()}


def measured_metrics(result: Pass) -> Dict[str, float]:
    """The end-to-end metrics of one measured pass.

    Latency is the mean over profiles of each profile's mean: latencies
    cluster by profile (an FDD trace holds ten times the bytes of a
    wired one), so a statistic over the whole run would weigh the
    profiles by how many operations of each fit in it.  It is a mean,
    not a median, because a converted time still keeps a trace of the
    host's fast and slow phases, and a median jumps between those two
    clusters where a mean moves with the share of time spent in each.

    Closed loops divide the session-seconds they finished by the sum of
    their operations' wall or CPU times; those times, and the closed
    loops' latencies, are in reference-host seconds (see
    :mod:`harness.host`).  The open loop's wall time and latency are set
    by the feed schedule and stay as measured; its CPU time is
    converted.
    """
    latency = _per_profile_mean(result.profiles, result.latencies_s)
    latency_ms = 1e3 * statistics.mean(latency.values())
    if result.open_loop:
        return {
            "x_realtime": result.session_s / result.wall_s,
            "latency_mean_ms": latency_ms,
            "sessions_per_core": result.session_s / result.ref_cpu_s,
        }
    return {
        "x_realtime": result.session_s / sum(result.latencies_s),
        "latency_mean_ms": latency_ms,
        "sessions_per_core": result.session_s / sum(result.op_cpu_s),
    }


def untraced_run(spec, inputs, seconds: float, setups: List[float]) -> Result:
    """Measure *spec* on *inputs* for *seconds*; report end-to-end metrics
    (*setups* are the run's set-up times in reference-host seconds)."""
    result = spec.run(inputs, seconds=seconds, host=host.HostSpeed())
    latencies_ms = [value * 1e3 for value in result.latencies_s]
    metrics = measured_metrics(result)
    metrics["peak_rss_mb"] = peak_rss_mb()
    metrics["setup_s"] = statistics.median(setups)
    n = len(latencies_ms)
    samples = {
        "x_realtime": result.attempted,
        "latency_mean_ms": n,
        "sessions_per_core": result.attempted,
        "peak_rss_mb": 1,
        "setup_s": len(setups),
    }
    notes = [
        f"measured {result.wall_s:.2f} s wall, {result.cpu_s:.2f} s cpu, "
        f"{result.session_s:.0f} session-s; as measured: x_realtime "
        f"{result.session_s / result.wall_s:.4g}, sessions_per_core "
        f"{result.session_s / result.cpu_s:.4g}",
        f"host probe took {1e3 * result.mean_probe_s:.2f} ms on average, "
        f"{1e3 * host.REFERENCE_PROBE_S:.2f} ms on the reference host",
        f"error_rate {result.failed / max(result.attempted, 1):.4f} "
        f"({result.failed}/{result.attempted})",
    ]
    if n:
        notes.append(
            f"latency_p50_ms {statistics.median(latencies_ms):.4g} (median "
            f"over all {n} samples, unbounded)"
        )
    tail = tail_percentile(n)
    if tail is not None:
        notes.append(
            f"latency_p{tail:g}_ms {_percentile(latencies_ms, tail):.2f} "
            f"(highest percentile with >=10 samples beyond, n={n})"
        )
    if spec.name == "live_replay":
        if n >= P99_MIN_WINDOWS:
            notes.append(
                f"latency_p99_ms {_percentile(latencies_ms, 99):.2f} (n={n})"
            )
        else:
            notes.append(
                f"latency_p99_ms not reported: {n} windows, "
                f"p99 needs {P99_MIN_WINDOWS}"
            )
        notes.append(
            f"late_window_fraction {result.extra['late_window_fraction']:.4f}"
            f" (limit {LATE_LIMIT_S:g} s)"
        )
    return Result(
        workload=spec.name,
        trace=False,
        metrics=metrics,
        units=dict(END_TO_END),
        samples=samples,
        attempted=result.attempted,
        failed=result.failed,
        digests=[result.digest],
        notes=notes,
    )


def traced_run(spec, inputs) -> Result:
    """Run *spec*'s fixed work untraced, then traced; report per-layer
    metrics."""
    calibration = host.calibration_s()
    plain = spec.run(inputs, units=spec.traced_units)
    tracer = Tracer()
    traced = spec.run(inputs, units=spec.traced_units, tracer=tracer)
    metrics = layer_metrics(tracer, plain, traced, calibration)
    failed = plain.failed + traced.failed
    notes = [
        f"traced pass {traced.wall_s:.2f} s wall, {traced.cpu_s:.2f} s cpu; "
        f"untraced pass {plain.wall_s:.2f} s wall, {plain.cpu_s:.2f} s cpu",
    ]
    if plain.digest != traced.digest:
        failed += 1
        notes.append("DIGEST MISMATCH between traced and untraced passes")
    groups = top_layers(tracer)
    top = max(groups, key=groups.get)
    notes.append(
        f"top layer: {top} ({groups[top] / traced.wall_s:.0%} of traced "
        f"wall); "
        + ", ".join(
            f"{name} {value:.2f} s"
            for name, value in sorted(groups.items(), key=lambda kv: -kv[1])
            if value > 0
        )
    )
    predicted = sorted(
        {f"{layer} -> {e2e}" for layer, e2e, w in MOVES if w == spec.name}
    )
    notes.append("predicted to move here: " + "; ".join(predicted))
    return Result(
        workload=spec.name,
        trace=True,
        metrics=metrics,
        units=dict(PER_LAYER),
        samples={name: 1 for name, _ in PER_LAYER},
        attempted=plain.attempted + traced.attempted,
        failed=failed,
        digests=[plain.digest, traced.digest],
        notes=notes,
    )


def layer_metrics(
    tracer: Tracer, plain: Pass, traced: Pass, calibration: float
) -> Dict[str, float]:
    """The per-layer metrics of one traced pass."""
    self_s, incl, calls, counts = (
        tracer.self_s, tracer.incl_s, tracer.calls, tracer.counts
    )
    metrics = {name: self_s[layer] for name, layer in SELF_TIME_METRICS.items()}
    ticks = counts["sim.session.ticks"]
    dci = counts["telemetry.dci_records"]
    decode_s = self_s["io.decode"]
    ingest_s = self_s["ingest"]
    advance_s = incl["StreamingDomino.advance"]
    chunk_build_s = 0.0
    if calls["StreamingDomino.advance"]:
        # Ingest and detection inside the stream run only under advance.
        chunk_build_s = (
            advance_s
            - incl["Timeline.from_bundle"]
            - incl["DominoDetector.analyze_timeline"]
        )
    fed = calls["StreamingDomino.feed"]
    late = traced.extra.get("generator_late_s", [])
    metrics.update(
        {
            "sim.ran.slots": counts["sim.ran.slots"],
            "sim.session.ticks": ticks,
            "sim.session.idle_tick_fraction": (
                counts["sim.session.idle_ticks"] / ticks if ticks else 0.0
            ),
            "telemetry.dci_records": dci,
            "telemetry.dci_experiment_fraction": (
                counts["telemetry.dci_experiment_records"] / dci
                if dci
                else 0.0
            ),
            "io.decode_mb_per_s": (
                counts["io.decoded_bytes"] / 1e6 / decode_s if decode_s else 0.0
            ),
            "ingest.records_per_s": (
                counts["ingest.records"] / ingest_s if ingest_s else 0.0
            ),
            "detect.windows": counts["detect.windows"],
            "detect.detected_windows": counts["detect.detected_windows"],
            "fleet.detect_s": (
                incl["DominoDetector.analyze"] + incl["DominoDetector.__init__"]
                if calls["run_scenario"]
                else 0.0
            ),
            "live.advance_s": advance_s,
            "live.advance_p99_ms": 1e3 * _percentile(
                tracer.samples["StreamingDomino.advance"], 99
            ),
            "live.chunk_build_s": chunk_build_s,
            "live.reingest_ratio": (
                counts["ingest.records"] / fed if fed else 0.0
            ),
            "live.queue_depth_max": float(
                traced.extra.get("queue_depth_max", 0.0)
            ),
            "live.generator_late_ms_p99": 1e3 * _percentile(late, 99),
            "live.late_window_fraction": float(
                plain.extra.get("late_window_fraction", 0.0)
            ),
            "bench.tracing_overhead": traced.cpu_s / plain.cpu_s,
            "bench.layer_coverage": tracer.attributed_s / traced.wall_s,
            "host.calibration_s": calibration,
        }
    )
    return metrics


def top_layers(tracer: Tracer) -> Dict[str, float]:
    """Self time per coarse layer, for naming a workload's top layer.

    The stream's chunk build is its advance time minus the ingest and
    detection it calls; the collector calls it makes while rebuilding a
    chunk count there, not as simulator time.
    """
    s, incl = tracer.self_s, tracer.incl_s
    chunk_build = 0.0
    if tracer.calls["StreamingDomino.advance"]:
        chunk_build = (
            incl["StreamingDomino.advance"]
            - incl["Timeline.from_bundle"]
            - incl["DominoDetector.analyze_timeline"]
        )
    collect_in_stream = chunk_build - s["live.advance"]
    return {
        "simulator": sum(v for k, v in s.items() if k.startswith("sim."))
        + s["telemetry.collect"]
        - collect_in_stream,
        "decode": s["io.decode"],
        "ingest": s["ingest"],
        "detection": s["detect.build"]
        + s["detect.features"]
        + s["detect.trace"],
        "scenario assembly": s["fleet"]
        + s["fleet.summarize"]
        + s["fleet.attribute"],
        "streaming chunk build": chunk_build,
        "streaming feed": s["live.feed"],
        "live aggregation": s["live.aggregate"] + s["live.snapshot"],
    }
