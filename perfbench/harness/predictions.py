"""Which layer metric should move which end-to-end metric, and where.

Written down before any optimisation is measured: a change to one layer
should move that layer's metric and the end-to-end metrics listed for
it, on the workloads listed, and nothing on the workloads that bypass
the layer.  The sensitivity check (``perfbench/tests``) injects a 2x
slowdown into the targets named in ``SLOWDOWNS`` and holds the
benchmark to these predictions.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: (layer metric, end-to-end metric, workload) — the layer metric is
#: predicted to move the end-to-end metric on that workload.
MOVES: List[Tuple[str, str, str]] = [
    (m, "x_realtime", "campaign")
    for m in (
        "sim.ran.self_s",
        "sim.phy.channel_s",
        "sim.mac.crosstraffic_s",
        "sim.mac.scheduler_s",
        "sim.mac.harq_s",
        "sim.mac.ulgrant_s",
        "sim.rlc_s",
        "sim.rrc_s",
        "sim.ran.slots",
        "sim.session.self_s",
        "sim.session.ticks",
        "sim.session.idle_tick_fraction",
        "sim.net_s",
        "sim.rtc.client_self_s",
        "sim.rtc.gcc_s",
        "sim.rtc.receiver_s",
        "sim.rtc.pacer_s",
        "telemetry.collect_s",
        "telemetry.dci_records",
        "fleet.detect_s",
        "fleet.summarize_s",
        "fleet.attribute_s",
    )
] + [
    # The simulator also builds the corpus of the other three workloads.
    (m, "setup_s", w)
    for m in ("sim.ran.self_s", "sim.session.self_s", "telemetry.collect_s")
    for w in ("analyze_trace", "analyze_bundle", "live_replay")
] + [
    ("telemetry.collect_s", "peak_rss_mb", "campaign"),
    ("telemetry.dci_experiment_fraction", "peak_rss_mb", "campaign"),
    ("io.decode_s", "x_realtime", "analyze_trace"),
    ("io.decode_s", "latency_mean_ms", "analyze_trace"),
    ("io.decode_mb_per_s", "x_realtime", "analyze_trace"),
    ("ingest_s", "x_realtime", "analyze_bundle"),
    ("ingest_s", "sessions_per_core", "live_replay"),
    ("ingest_s", "x_realtime", "campaign"),
    ("ingest.records_per_s", "x_realtime", "analyze_bundle"),
    ("detect.build_s", "x_realtime", "analyze_bundle"),
    ("detect.features_s", "x_realtime", "analyze_bundle"),
    ("detect.features_s", "sessions_per_core", "live_replay"),
    ("detect.trace_s", "x_realtime", "analyze_bundle"),
    ("detect.trace_s", "sessions_per_core", "live_replay"),
    ("live.feed_s", "sessions_per_core", "live_replay"),
    ("live.advance_s", "sessions_per_core", "live_replay"),
    ("live.advance_s", "latency_mean_ms", "live_replay"),
    ("live.advance_p99_ms", "latency_mean_ms", "live_replay"),
    ("live.chunk_build_s", "sessions_per_core", "live_replay"),
    ("live.reingest_ratio", "sessions_per_core", "live_replay"),
    ("live.aggregate_s", "sessions_per_core", "live_replay"),
    ("live.snapshot_s", "sessions_per_core", "live_replay"),
]

#: Injected 2x slowdowns: target -> (layer metric that must move, the
#: one workload whose end-to-end metric must move beyond its bound, and
#: that metric).  Every other workload either bypasses the target or
#: spends too little time in it to leave its bounds.
SLOWDOWNS: Dict[str, Tuple[str, str, str]] = {
    "RanSimulator.step_to": ("sim.ran.self_s", "campaign", "x_realtime"),
    "load_bundle": ("io.decode_s", "analyze_trace", "x_realtime"),
    "Timeline.from_bundle": ("ingest_s", "analyze_bundle", "x_realtime"),
    "StreamingDomino.advance": (
        "live.advance_s",
        "live_replay",
        "sessions_per_core",
    ),
}
