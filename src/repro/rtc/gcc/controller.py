"""The combined GCC controller (send side).

Wires the delay-based estimator (inter-arrival → trendline → overuse
detector → AIMD), the loss-based bound, the acknowledged-bitrate
estimator and the pushback controller into the single object the WebRTC
client talks to:

* :meth:`GccController.on_packet_sent` — accounts outstanding bytes;
* :meth:`GccController.on_feedback` — processes a transport-wide
  feedback batch and recomputes all rates;
* :meth:`GccController.process` — periodic (25 ms) window/pushback
  update so reverse-path silence alone can trigger pushback (Fig. 22).

The controller exposes every internal the paper's instrumented client
logs (§3): trendline slope, adaptive threshold, detector state, target
rate, pushback rate, congestion window, and outstanding bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.rtc.gcc.ack_bitrate import AckedBitrateEstimator
from repro.rtc.gcc.aimd import AimdRateControl
from repro.rtc.gcc.interarrival import InterArrival
from repro.rtc.gcc.loss_based import LossBasedControl
from repro.rtc.gcc.overuse import BandwidthUsage, OveruseDetector
from repro.rtc.gcc.pushback import PushbackController
from repro.rtc.gcc.trendline import TrendlineEstimator
from repro.rtc.rtcp import FeedbackEntry


#: One packet's fate as reported by transport-wide feedback: the
#: feedback entries themselves, so a feedback payload feeds
#: :meth:`GccController.on_feedback` as it arrives.
PacketResult = FeedbackEntry


@dataclass(frozen=True)
class GccOutput:
    """Snapshot of the controller state after an update."""

    target_bps: float
    pushback_bps: float
    state: BandwidthUsage
    trend_slope_ms_per_s: float
    modified_trend: float
    threshold: float
    congestion_window_bytes: int
    outstanding_bytes: int
    rtt_ms: float
    acked_bitrate_bps: Optional[float]


@dataclass
class GccController:
    """Send-side congestion controller for one media direction."""

    initial_bps: float = 1_000_000.0
    min_bps: float = 30_000.0
    max_bps: float = 8_000_000.0
    pushback_enabled: bool = True

    interarrival: InterArrival = field(default_factory=InterArrival)
    trendline: TrendlineEstimator = field(default_factory=TrendlineEstimator)
    detector: OveruseDetector = field(default_factory=OveruseDetector)
    aimd: AimdRateControl = field(init=False)
    loss: LossBasedControl = field(init=False)
    acked: AckedBitrateEstimator = field(default_factory=AckedBitrateEstimator)
    pushback: PushbackController = field(default_factory=PushbackController)

    rtt_ms: float = 100.0
    _in_flight: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    _outstanding_bytes: int = 0
    _overuse_events: int = 0

    def __post_init__(self) -> None:
        self.aimd = AimdRateControl(
            initial_bps=self.initial_bps,
            min_bps=self.min_bps,
            max_bps=self.max_bps,
        )
        self.loss = LossBasedControl(
            initial_bps=self.max_bps,  # loss bound starts unconstraining
            min_bps=self.min_bps,
            max_bps=self.max_bps,
        )

    # -- sender accounting --------------------------------------------------------

    def on_packet_sent(self, seq: int, size_bytes: int, now_us: int) -> None:
        self._in_flight[seq] = (now_us, size_bytes)
        self._outstanding_bytes += size_bytes

    # -- feedback processing ---------------------------------------------------------

    def on_feedback(
        self, results: List[PacketResult], now_us: int
    ) -> GccOutput:
        """Process one transport-wide feedback batch."""
        acked_tuples: List[Tuple[int, int, int]] = []
        n_lost = 0
        for result in results:
            entry = self._in_flight.pop(result.seq, None)
            if entry is not None:
                self._outstanding_bytes -= entry[1]
            if result.arrival_us is None:
                n_lost += 1
                continue
            self.acked.on_acked(result.arrival_us, result.size_bytes)
            acked_tuples.append(
                (result.send_us, result.arrival_us, result.size_bytes)
            )
            rtt_sample_ms = max(1.0, (now_us - result.send_us) / 1000.0)
            self.rtt_ms = 0.9 * self.rtt_ms + 0.1 * rtt_sample_ms
        self._outstanding_bytes = max(0, self._outstanding_bytes)

        state = self.detector.state
        for delta in self.interarrival.add_batch(acked_tuples):
            modified_trend = self.trendline.update(
                delta.delay_variation_us, delta.last_arrival_us
            )
            new_state = self.detector.detect(
                modified_trend, delta.last_arrival_us
            )
            if (
                new_state is BandwidthUsage.OVERUSE
                and state is not BandwidthUsage.OVERUSE
            ):
                self._overuse_events += 1
            state = new_state

        acked_bitrate = self.acked.bitrate_bps(now_us)
        delay_target = self.aimd.update(state, acked_bitrate, now_us)

        total = len(results)
        loss_fraction = n_lost / total if total else 0.0
        loss_target = self.loss.update(loss_fraction, now_us)

        return self._finalize(min(delay_target, loss_target), now_us)

    # -- periodic processing -----------------------------------------------------------

    def process(self, now_us: int) -> GccOutput:
        """Periodic update: refresh the pushback state without feedback.

        Outstanding bytes only grow while feedback is missing, so this is
        what lets reverse-path delay alone push the send rate down.
        """
        target = min(self.aimd.target_bps, self.loss.target_bps)
        return self._finalize(target, now_us)

    def _finalize(self, target_bps: float, now_us: int) -> GccOutput:
        self.pushback.update_window(target_bps, self.rtt_ms)
        self.pushback.set_outstanding(self._outstanding_bytes)
        if self.pushback_enabled:
            pushback_bps = self.pushback.pushback_rate(target_bps)
        else:
            pushback_bps = target_bps
        return GccOutput(
            target_bps=target_bps,
            pushback_bps=pushback_bps,
            state=self.detector.state,
            trend_slope_ms_per_s=self.trendline.slope_ms_per_s,
            modified_trend=self.trendline.modified_trend,
            threshold=self.detector.threshold,
            congestion_window_bytes=self.pushback.window_bytes,
            outstanding_bytes=self._outstanding_bytes,
            rtt_ms=self.rtt_ms,
            acked_bitrate_bps=self.acked.bitrate_bps(now_us),
        )

    # -- introspection ---------------------------------------------------------------------

    @property
    def outstanding_bytes(self) -> int:
        return self._outstanding_bytes

    @property
    def overuse_events(self) -> int:
        return self._overuse_events

    def drop_stale(self, now_us: int, timeout_us: int = 3_000_000) -> int:
        """Expire in-flight packets never covered by feedback.

        Returns the number of expired packets.  Keeps outstanding bytes
        from leaking when feedback packets themselves are lost.
        """
        stale = [
            seq
            for seq, (send_us, _) in self._in_flight.items()
            if now_us - send_us > timeout_us
        ]
        for seq in stale:
            _, size = self._in_flight.pop(seq)
            self._outstanding_bytes = max(0, self._outstanding_bytes - size)
        return len(stale)
