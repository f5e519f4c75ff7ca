"""Benchmark-side tracing: timing wrappers around each layer's public API.

The program under test carries no tracing of its own for this benchmark.
Instead, :class:`Tracer` swaps timing wrappers onto the classes and
modules of ``repro`` for the duration of one traced pass and restores
the originals afterwards.  Every wrapper records

* the call's inclusive time under its *label* (``Class.method``), and
* the call's *self* time (inclusive minus the time of wrapped calls it
  made) under its *layer*.

A layer's self times therefore add up to the wall time spent in that
layer's own code, and the wall time not covered by any layer is what
the benchmark reports as unattributed.

:func:`slowed` installs the sensitivity checks' injected slowdown
through the same patching mechanism.
"""

from __future__ import annotations

import importlib
import os
import time
import weakref
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: (module, attribute path, layer).  Attribute paths are ``Class.method``
#: or a module-level function.  Functions other modules import by name
#: are patched where their caller looks them up (``repro.api.backends``
#: holds the ``run_scenario`` that ``InlineBackend`` calls).
LAYER_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    # -- the session loop (repro.rtc.session)
    ("repro.rtc.session", "TwoPartySession.advance_to", "sim.session"),
    ("repro.rtc.session", "TwoPartySession.run", "sim.session"),
    # -- the RAN (repro.ran, repro.phy, repro.mac, repro.rlc, repro.rrc)
    ("repro.ran.simulator", "RanSimulator.step_to", "sim.ran"),
    ("repro.ran.simulator", "RanSimulator.send_uplink", "sim.ran"),
    ("repro.ran.simulator", "RanSimulator.send_downlink", "sim.ran"),
    ("repro.ran.simulator", "RanSimulator.buffered_bytes", "sim.ran"),
    ("repro.phy.channel", "ChannelModel.sample", "sim.phy.channel"),
    ("repro.phy.channel", "ChannelModel.in_fade", "sim.phy.channel"),
    ("repro.mac.crosstraffic", "CrossTrafficModel.demands_at",
     "sim.mac.crosstraffic"),
    ("repro.mac.crosstraffic", "CrossTrafficModel.total_demand_at",
     "sim.mac.crosstraffic"),
    ("repro.mac.scheduler", "DlScheduler.allocate", "sim.mac.scheduler"),
    ("repro.mac.harq", "HarqEntity.submit", "sim.mac.harq"),
    ("repro.mac.harq", "HarqEntity.poll", "sim.mac.harq"),
    ("repro.mac.ulgrant", "UlGrantLoop.maybe_send_bsr", "sim.mac.ulgrant"),
    ("repro.mac.ulgrant", "UlGrantLoop.maybe_issue_proactive",
     "sim.mac.ulgrant"),
    ("repro.mac.ulgrant", "UlGrantLoop.grants_usable_at", "sim.mac.ulgrant"),
    ("repro.mac.ulgrant", "UlGrantLoop.reset", "sim.mac.ulgrant"),
    ("repro.rlc.buffer", "RlcSendBuffer.enqueue", "sim.rlc"),
    ("repro.rlc.buffer", "RlcSendBuffer.take", "sim.rlc"),
    ("repro.rlc.buffer", "RlcSendBuffer.buffered_bytes", "sim.rlc"),
    ("repro.rlc.buffer", "RlcSendBuffer.packets_overlapping", "sim.rlc"),
    ("repro.rlc.buffer", "RlcSendBuffer.release_delivered", "sim.rlc"),
    ("repro.rlc.am", "ReassemblyEntity.register_packet", "sim.rlc"),
    ("repro.rlc.am", "ReassemblyEntity.on_range_received", "sim.rlc"),
    ("repro.rrc.state", "RrcManager.step", "sim.rrc"),
    ("repro.rrc.state", "RrcManager.is_connected", "sim.rrc"),
    # -- repro.net
    ("repro.net.link", "WiredAccess.send_up", "sim.net"),
    ("repro.net.link", "WiredAccess.send_down", "sim.net"),
    ("repro.net.link", "WiredAccess.poll", "sim.net"),
    ("repro.net.link", "CellularAccess.send_up", "sim.net"),
    ("repro.net.link", "CellularAccess.send_down", "sim.net"),
    ("repro.net.link", "CellularAccess.poll", "sim.net"),
    ("repro.net.link", "InternetSegment.send", "sim.net"),
    ("repro.net.link", "InternetSegment.poll", "sim.net"),
    # -- the WebRTC clients (repro.rtc)
    ("repro.rtc.client", "WebRtcClient.step", "sim.rtc.client"),
    ("repro.rtc.gcc.controller", "GccController.on_packet_sent",
     "sim.rtc.gcc"),
    ("repro.rtc.gcc.controller", "GccController.on_feedback", "sim.rtc.gcc"),
    ("repro.rtc.gcc.controller", "GccController.process", "sim.rtc.gcc"),
    ("repro.rtc.gcc.controller", "GccController.drop_stale", "sim.rtc.gcc"),
    ("repro.rtc.receiver", "MediaReceiver.on_packet", "sim.rtc.receiver"),
    ("repro.rtc.receiver", "MediaReceiver.step", "sim.rtc.receiver"),
    ("repro.rtc.receiver", "MediaReceiver.build_feedback",
     "sim.rtc.receiver"),
    ("repro.rtc.receiver", "MediaReceiver.inbound_fps", "sim.rtc.receiver"),
    ("repro.rtc.receiver", "MediaReceiver.inbound_resolution",
     "sim.rtc.receiver"),
    ("repro.rtc.jitter_buffer", "VideoJitterBuffer.current_delay_ms",
     "sim.rtc.receiver"),
    ("repro.rtc.jitter_buffer", "VideoJitterBuffer.is_frozen",
     "sim.rtc.receiver"),
    ("repro.rtc.jitter_buffer", "AudioJitterBuffer.current_delay_ms",
     "sim.rtc.receiver"),
    ("repro.rtc.pacer", "Pacer.set_rate", "sim.rtc.pacer"),
    ("repro.rtc.pacer", "Pacer.enqueue", "sim.rtc.pacer"),
    ("repro.rtc.pacer", "Pacer.drain", "sim.rtc.pacer"),
    # -- telemetry collection (repro.telemetry.collect)
    ("repro.telemetry.collect", "TelemetryCollector.record_dci",
     "telemetry.collect"),
    ("repro.telemetry.collect", "TelemetryCollector.record_gnb_log",
     "telemetry.collect"),
    ("repro.telemetry.collect", "TelemetryCollector.record_packet_sent",
     "telemetry.collect"),
    ("repro.telemetry.collect", "TelemetryCollector.record_packet_received",
     "telemetry.collect"),
    ("repro.telemetry.collect", "TelemetryCollector.record_webrtc_stats",
     "telemetry.collect"),
    ("repro.telemetry.collect", "TelemetryCollector.drain",
     "telemetry.collect"),
    ("repro.telemetry.collect", "TelemetryCollector.bundle",
     "telemetry.collect"),
    # -- decode (repro.telemetry.io) and ingest (repro.telemetry.timeline)
    ("repro.telemetry.io", "load_bundle", "io.decode"),
    ("repro.telemetry.timeline", "Timeline.from_bundle", "ingest"),
    # -- detection (repro.core)
    ("repro.core.detector", "DominoDetector.__init__", "detect.build"),
    ("repro.core.detector", "DominoDetector.analyze", "detect.trace"),
    ("repro.core.detector", "DominoDetector.analyze_timeline",
     "detect.trace"),
    ("repro.core.features", "BatchFeatureExtractor.extract_all",
     "detect.features"),
    ("repro.core.features", "FeatureExtractor.extract_all",
     "detect.features"),
    # -- scenario assembly (repro.fleet.executor, repro.analysis.summarize)
    ("repro.api.backends", "run_scenario", "fleet"),
    ("repro.fleet.executor", "summarize_session", "fleet.summarize"),
    ("repro.causal.score", "attribute_detectors", "fleet.attribute"),
    # -- streaming (repro.core.streaming, repro.live)
    ("repro.core.streaming", "StreamingDomino.feed", "live.feed"),
    ("repro.core.streaming", "StreamingDomino.advance", "live.advance"),
    ("repro.live.aggregator", "LiveAggregator.update", "live.aggregate"),
    ("repro.live.service", "LiveRcaService.snapshot", "live.snapshot"),
)

#: Labels whose per-call inclusive durations are kept (for percentiles).
SAMPLED_LABELS = frozenset({"StreamingDomino.advance"})

#: Cross-traffic UEs use RNTIs at or above this value; everything below
#: is the experiment UE (the convention ``Timeline`` ingest relies on).
CROSS_TRAFFIC_RNTI_FLOOR = 40_000


def _resolve(module_name: str, path: str):
    """(owner, attribute name) for ``Class.method`` or ``function``."""
    owner = importlib.import_module(module_name)
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name


class Patcher:
    """Swap attributes on classes/modules and put the originals back."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def patch(self, module_name: str, path: str, make: Callable) -> None:
        """Replace *path* with ``make(function)``, keeping its kind."""
        owner, name = _resolve(module_name, path)
        raw = vars(owner)[name]
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        setattr(owner, name, new)
        self._saved.append((owner, name, raw))

    def restore(self) -> None:
        while self._saved:
            owner, name, raw = self._saved.pop()
            setattr(owner, name, raw)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def busy_wait_double(fn: Callable) -> Callable:
    """*fn*, made to take twice as long by spinning after each call."""
    perf = time.perf_counter

    def doubled(*args, **kwargs):
        start = perf()
        result = fn(*args, **kwargs)
        until = perf() + (perf() - start)
        while perf() < until:
            pass
        return result

    return doubled


def slowed(target: Optional[str]) -> Patcher:
    """A patcher that doubles the time of *target*, an attribute path of
    :data:`LAYER_TARGETS` such as ``"RanSimulator.step_to"`` (None:
    no-op)."""
    patcher = Patcher()
    if target is not None:
        (module_name,) = [m for m, path, _ in LAYER_TARGETS if path == target]
        patcher.patch(module_name, target, busy_wait_double)
    return patcher


class Tracer(Patcher):
    """Per-layer self time, per-label inclusive time, and layer counts."""

    def __init__(self) -> None:
        super().__init__()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        # One child-time accumulator per active wrapped call; index 0
        # collects the time of top-level calls.
        self._stack: List[float] = [0.0]
        self._moved_this_tick = 0
        self._client_steps = 0
        self._ran_slot: "weakref.WeakKeyDictionary" = (
            weakref.WeakKeyDictionary()
        )

    @property
    def attributed_s(self) -> float:
        """Wall time spent inside any wrapped call."""
        return self._stack[0]

    def wrap(
        self,
        label: str,
        layer: str,
        fn: Callable,
        after: Optional[Callable] = None,
    ) -> Callable:
        stack = self._stack
        self_s = self.self_s
        incl_s = self.incl_s
        calls = self.calls
        samples = self.samples[label] if label in SAMPLED_LABELS else None
        perf = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf() - start
                self_s[layer] += duration - stack.pop()
                stack[-1] += duration
                incl_s[label] += duration
                calls[label] += 1
                if samples is not None:
                    samples.append(duration)
            if after is not None:
                after(args, result)
            return result

        return traced

    def install(self) -> "Tracer":
        """Wrap every target in :data:`LAYER_TARGETS`."""
        hooks = {
            "RanSimulator.step_to": self._count_slots,
            "WebRtcClient.step": self._count_tick,
            "WiredAccess.poll": self._count_moved,
            "CellularAccess.poll": self._count_moved,
            "InternetSegment.poll": self._count_moved,
            "TelemetryCollector.record_dci": self._count_dci,
            "load_bundle": self._count_decoded_bytes,
            "Timeline.from_bundle": self._count_ingested,
            "DominoDetector.analyze_timeline": self._count_windows,
        }
        for module_name, path, layer in LAYER_TARGETS:
            label = path

            def make(fn, label=label, layer=layer):
                return self.wrap(label, layer, fn, hooks.get(label))

            self.patch(module_name, path, make)
        return self

    # -- counters at layer boundaries ------------------------------------------

    def _count_slots(self, args, result) -> None:
        ran = args[0]
        slot = ran.now_us // ran.grid.slot_us
        before = self._ran_slot.get(ran, 0)
        if slot > before:
            self.counts["sim.ran.slots"] += slot - before
            self._ran_slot[ran] = slot

    def _count_moved(self, args, result) -> None:
        self._moved_this_tick += len(result)

    def _count_tick(self, args, result) -> None:
        # Each session tick polls the accesses and the internet, then
        # steps client A and client B, in that order: every second
        # client step closes a tick.
        self._moved_this_tick += len(args[2]) + len(result)
        self._client_steps += 1
        if self._client_steps % 2 == 0:
            self.counts["sim.session.ticks"] += 1
            if self._moved_this_tick == 0:
                self.counts["sim.session.idle_ticks"] += 1
            self._moved_this_tick = 0

    def _count_dci(self, args, result) -> None:
        self.counts["telemetry.dci_records"] += 1
        if args[1].rnti < CROSS_TRAFFIC_RNTI_FLOOR:
            self.counts["telemetry.dci_experiment_records"] += 1

    def _count_decoded_bytes(self, args, result) -> None:
        self.counts["io.decoded_bytes"] += os.path.getsize(args[0])

    def _count_ingested(self, args, result) -> None:
        bundle = args[1] if len(args) > 1 else args[0]
        self.counts["ingest.records"] += (
            len(bundle.dci)
            + len(bundle.gnb_log)
            + len(bundle.packets)
            + len(bundle.webrtc_stats)
        )

    def _count_windows(self, args, result) -> None:
        self.counts["detect.windows"] += result.n_windows
        self.counts["detect.detected_windows"] += sum(
            1 for window in result.windows if window.chain_ids
        )
