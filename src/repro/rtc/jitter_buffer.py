"""Adaptive jitter buffers for video frames and audio packets.

The receiver holds media briefly before playback to absorb network
jitter (§6.1).  The buffer's target delay adapts: it grows quickly when
frames arrive later than their playout time and decays slowly when the
network is stable — trading end-to-end (mouth-to-ear) latency against
smoothness, exactly the tension Figs. 3 and 20 illustrate.

Semantics used by the stats (matching the paper's event conditions):

* *jitter-buffer delay* of a played frame = how long it waited in the
  buffer (playout time − complete-arrival time, clamped at 0).  A value
  of 0 means the buffer drained — the frame was played the instant it
  arrived (Table 5, row 4).
* *freeze*: playout stalled longer than max(3 inter-frame intervals,
  150 ms) waiting for the next frame (the WebRTC freeze definition).
* audio packets missing at their playout tick are *concealed* (replaced
  by synthesized samples, §2.1/Fig. 4).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.units import NEVER_US


class _AdaptiveTarget:
    """The target delay both buffers adapt.

    It decays by ``decay_ms_per_s`` towards the floor ``base_delay_ms +
    jitter_multiplier * jitter`` on every step and never crosses it; a
    target at or below the floor stays put.  Playout wakes and idle
    ticks (:meth:`skip_ticks`) follow the same arithmetic, so a buffer
    stepped only on ticks with work ends in the same state as one
    stepped on every tick.
    """

    def minimum_delay_ms(self) -> float:
        """The adaptive floor (Fig. 3's 'minimum jitter-buffer delay')."""
        return self.base_delay_ms + self.jitter_multiplier * self._jitter_ms

    def _decay_target(self, now_us: int) -> None:
        dt_s = max(0, now_us - self._last_decay_us) / 1e6
        self._last_decay_us = now_us
        floor = self.base_delay_ms + self.jitter_multiplier * self._jitter_ms
        if self.target_delay_ms > floor:
            self.target_delay_ms = max(
                floor, self.target_delay_ms - self.decay_ms_per_s * dt_s
            )

    @staticmethod
    def _decayed(target: float, floor: float, step_ms: float, n_ticks: int) -> float:
        """*target* after *n_ticks* decays of *step_ms*, as
        :meth:`_decay_target` applies them (``x if x > floor else floor``
        is ``max(floor, x)``, NaN included)."""
        for _ in range(n_ticks):
            if not target > floor:
                break
            target -= step_ms
            if not target > floor:
                target = floor
        return target

    def skip_ticks(self, n_ticks: int, tick_us: int) -> None:
        """Apply *n_ticks* calls of ``step``, *tick_us* apart, on which
        nothing is due (see ``next_wake_us``): only the target decays."""
        floor = self.minimum_delay_ms()
        if self.target_delay_ms > floor:
            self.target_delay_ms = self._decayed(
                self.target_delay_ms,
                floor,
                self.decay_ms_per_s * (tick_us / 1e6),
                n_ticks,
            )
        self._last_decay_us += n_ticks * tick_us

    def _first_due_tick(
        self, now_us: int, tick_us: int, capture_us: int, not_before_us: int
    ) -> int:
        """First tick ``now_us + k * tick_us`` (k >= 1) at which a unit
        captured at *capture_us* is due: ``t >= max(capture_us +
        int(target_k * 1000), not_before_us)``, with ``target_k`` the
        target after k more ticks of decay.

        The target only shrinks, so the tick the current target makes
        due (``k_hi``) is due; by then it has shrunk by at most ``k_hi *
        step_ms`` (plus rounding), so no tick before the one that bound
        makes due can be, and only the ticks in between are checked.
        """
        target = self.target_delay_ms
        floor = self.minimum_delay_ms()
        step_ms = self.decay_ms_per_s * (tick_us / 1e6)
        due_us = max(capture_us + int(target * 1000), not_before_us)
        k_hi = max(1, -(-(due_us - now_us) // tick_us))
        if not target > floor:
            return now_us + k_hi * tick_us
        lowest = max(floor, target - k_hi * step_ms - 1e-6)
        earliest_us = max(capture_us + int(lowest * 1000), not_before_us)
        k = max(1, -(-(earliest_us - now_us) // tick_us))
        if k < k_hi:
            target = self._decayed(target, floor, step_ms, k)
            while now_us + k * tick_us < capture_us + int(target * 1000):
                k += 1
                target = self._decayed(target, floor, step_ms, 1)
        return now_us + k * tick_us


@dataclass
class PlayedFrame:
    """Record of one frame leaving the jitter buffer."""

    frame_id: int
    capture_us: int
    complete_us: int
    played_us: int
    resolution_p: int

    @property
    def buffer_delay_ms(self) -> float:
        return max(0.0, (self.played_us - self.complete_us) / 1000.0)


@dataclass
class _PendingFrame:
    capture_us: int
    n_packets: int
    received: int = 0
    complete_us: Optional[int] = None
    resolution_p: int = 0


@dataclass
class VideoJitterBuffer(_AdaptiveTarget):
    """Frame-level adaptive jitter buffer with freeze accounting.

    Args:
        base_delay_ms: minimum target delay.
        jitter_multiplier: how many jitter std-devs of headroom to keep.
        decay_ms_per_s: how fast the target delay shrinks when stable.
    """

    base_delay_ms: float = 70.0
    jitter_multiplier: float = 5.0
    decay_ms_per_s: float = 3.0
    max_delay_ms: float = 1_000.0

    target_delay_ms: float = field(init=False)
    #: Incomplete frames older than this are abandoned (decoder would
    #: drop them and request a keyframe); keeps playout from deadlocking
    #: on a lost packet.
    incomplete_timeout_us: int = 600_000

    _frames: Dict[int, _PendingFrame] = field(default_factory=dict)
    _next_frame_id: Optional[int] = None
    _jitter_ms: float = 5.0
    _last_complete: Optional[Tuple[int, int]] = None  # (capture, complete)
    _last_played_us: Optional[int] = None
    _last_decay_us: int = 0
    _frozen_since_us: Optional[int] = None
    _max_finished_frame_id: int = -1
    played: List[PlayedFrame] = field(default_factory=list)
    #: Min-heap of the played times at or after ``_fps_cutoff_us``, the
    #: cutoff of the last :meth:`fps_over` call.
    _recent_played_us: List[int] = field(default_factory=list)
    _fps_cutoff_us: Optional[int] = None
    total_freeze_us: int = 0
    freeze_count: int = 0
    dropped_frames: int = 0
    frame_interval_us: int = 33_333

    def __post_init__(self) -> None:
        self.target_delay_ms = self.base_delay_ms

    # -- ingest ---------------------------------------------------------------

    def on_packet(
        self,
        frame_id: int,
        capture_us: int,
        packets_in_frame: int,
        resolution_p: int,
        arrival_us: int,
    ) -> None:
        """Register one video packet arrival."""
        if frame_id <= self._max_finished_frame_id:
            return  # frame already played or abandoned
        frame = self._frames.get(frame_id)
        if frame is None:
            frame = _PendingFrame(
                capture_us=capture_us,
                n_packets=packets_in_frame,
                resolution_p=resolution_p,
            )
            self._frames[frame_id] = frame
            if self._next_frame_id is None or frame_id < self._next_frame_id:
                if self._last_played_us is None:
                    self._next_frame_id = frame_id
        frame.received += 1
        if frame.received >= frame.n_packets and frame.complete_us is None:
            frame.complete_us = arrival_us
            self._update_jitter(frame)

    def _update_jitter(self, frame: _PendingFrame) -> None:
        if self._last_complete is not None:
            prev_capture, prev_complete = self._last_complete
            variation_ms = abs(
                (frame.complete_us - prev_complete)
                - (frame.capture_us - prev_capture)
            ) / 1000.0
            # RTP-style jitter EWMA (1/16 gain).
            self._jitter_ms += (variation_ms - self._jitter_ms) / 16.0
        self._last_complete = (frame.capture_us, frame.complete_us)

    # -- playout ------------------------------------------------------------------

    def step(self, now_us: int) -> List[PlayedFrame]:
        """Advance the playout clock to *now_us*; returns played frames."""
        self._decay_target(now_us)
        out: List[PlayedFrame] = []
        while True:
            frame_id = self._due_frame_id()
            if frame_id is None:
                break
            frame = self._frames[frame_id]
            playout_us = frame.capture_us + int(self.target_delay_ms * 1000)
            if frame.complete_us is None:
                if now_us - frame.capture_us > self.incomplete_timeout_us:
                    # Abandon the frame; playout moves on (decoder drop).
                    self.dropped_frames += 1
                    self._max_finished_frame_id = max(
                        self._max_finished_frame_id, frame_id
                    )
                    del self._frames[frame_id]
                    continue
                break  # next frame in order is incomplete
            effective_playout = max(playout_us, frame.complete_us)
            if now_us < effective_playout:
                break  # not yet due
            self._play(frame_id, frame, effective_playout, now_us)
            out.append(self.played[-1])
        # Playout stalled — whether the next frame is incomplete or has
        # not even arrived yet (an empty buffer is still a freeze).
        self._note_frozen(now_us)
        return out

    def _due_frame_id(self) -> Optional[int]:
        if not self._frames:
            return None
        return min(self._frames.keys())

    def _play(
        self, frame_id: int, frame: _PendingFrame, playout_us: int, now_us: int
    ) -> None:
        was_late = frame.complete_us > (
            frame.capture_us + int(self.target_delay_ms * 1000)
        )
        if was_late:
            # Grow the target so the next frames are buffered longer.
            needed_ms = (frame.complete_us - frame.capture_us) / 1000.0
            self.target_delay_ms = min(
                self.max_delay_ms, max(self.target_delay_ms, needed_ms)
            )
        if self._frozen_since_us is not None:
            freeze = max(0, playout_us - self._frozen_since_us)
            self.total_freeze_us += freeze
            self._frozen_since_us = None
        self.played.append(
            PlayedFrame(
                frame_id=frame_id,
                capture_us=frame.capture_us,
                complete_us=frame.complete_us,
                played_us=playout_us,
                resolution_p=frame.resolution_p,
            )
        )
        if self._fps_cutoff_us is None or playout_us >= self._fps_cutoff_us:
            heapq.heappush(self._recent_played_us, playout_us)
        self._last_played_us = playout_us
        self._max_finished_frame_id = max(self._max_finished_frame_id, frame_id)
        del self._frames[frame_id]

    def _note_frozen(self, now_us: int) -> None:
        threshold_us = max(3 * self.frame_interval_us, 150_000)
        if self._last_played_us is None:
            return
        if now_us - self._last_played_us < threshold_us:
            return
        if self._frozen_since_us is None:
            self._frozen_since_us = self._last_played_us + threshold_us
            self.freeze_count += 1

    # -- wake ------------------------------------------------------------------

    def next_wake_us(self, now_us: int, tick_us: int) -> int:
        """First tick after *now_us* (the last :meth:`step`) at which
        ``step`` would play or drop a frame or start a freeze, assuming
        no packet arrives and ticks are *tick_us* apart."""
        wake = NEVER_US
        if self._last_played_us is not None and self._frozen_since_us is None:
            threshold_us = max(3 * self.frame_interval_us, 150_000)
            wake = self._last_played_us + threshold_us
        if not self._frames:
            return wake
        frame = self._frames[min(self._frames)]
        if frame.complete_us is None:
            return min(wake, frame.capture_us + self.incomplete_timeout_us + 1)
        return min(
            wake,
            self._first_due_tick(
                now_us, tick_us, frame.capture_us, frame.complete_us
            ),
        )

    # -- stats -------------------------------------------------------------------

    def is_frozen(self, now_us: int) -> bool:
        if self._frozen_since_us is None:
            return False
        return now_us >= self._frozen_since_us

    def current_delay_ms(self) -> float:
        """Jitter-buffer delay of the most recently played frame."""
        if not self.played:
            return self.target_delay_ms
        return self.played[-1].buffer_delay_ms

    def fps_over(self, now_us: int, window_us: int = 1_000_000) -> float:
        """Frames per second played at or after ``now_us - window_us``."""
        cutoff = now_us - window_us
        if self._fps_cutoff_us is not None and cutoff < self._fps_cutoff_us:
            # The cutoff moved back past times the heap has dropped.
            count = sum(1 for f in self.played if f.played_us >= cutoff)
            return count * 1e6 / window_us
        recent = self._recent_played_us
        while recent and recent[0] < cutoff:
            heapq.heappop(recent)
        self._fps_cutoff_us = cutoff
        return len(recent) * 1e6 / window_us

    def last_resolution(self) -> int:
        if not self.played:
            return 0
        return self.played[-1].resolution_p


@dataclass
class AudioJitterBuffer(_AdaptiveTarget):
    """Packet-level adaptive audio buffer with concealment accounting.

    Audio packets carry ``samples_per_packet`` samples (20 ms at 48 kHz =
    960).  A packet missing at its playout tick is concealed.
    """

    packet_interval_us: int = 20_000
    samples_per_packet: int = 960
    base_delay_ms: float = 40.0
    jitter_multiplier: float = 4.0
    decay_ms_per_s: float = 3.0
    max_delay_ms: float = 500.0

    target_delay_ms: float = field(init=False)
    _arrivals: Dict[int, int] = field(default_factory=dict)  # seq -> arrival
    _captures: Dict[int, int] = field(default_factory=dict)
    _next_play_seq: Optional[int] = None
    _jitter_ms: float = 2.0
    _last_arrival: Optional[Tuple[int, int]] = None
    _last_decay_us: int = 0
    concealed_samples: int = 0
    total_samples: int = 0
    played_packets: int = 0
    _last_buffer_delay_ms: float = 0.0

    def __post_init__(self) -> None:
        self.target_delay_ms = self.base_delay_ms

    def on_packet(self, audio_seq: int, capture_us: int, arrival_us: int) -> None:
        if self._next_play_seq is not None and audio_seq < self._next_play_seq:
            return  # arrived after its playout tick passed; already concealed
        self._arrivals[audio_seq] = arrival_us
        self._captures[audio_seq] = capture_us
        if self._last_arrival is not None:
            prev_capture, prev_arrival = self._last_arrival
            variation_ms = abs(
                (arrival_us - prev_arrival) - (capture_us - prev_capture)
            ) / 1000.0
            self._jitter_ms += (variation_ms - self._jitter_ms) / 16.0
        self._last_arrival = (capture_us, arrival_us)
        if self._next_play_seq is None:
            self._next_play_seq = audio_seq

    def step(self, now_us: int) -> None:
        """Play every packet whose playout tick has passed."""
        self._decay_target(now_us)
        if self._next_play_seq is None:
            return
        while True:
            seq = self._next_play_seq
            capture = self._captures.get(seq)
            if capture is None:
                # We have never seen this seq; estimate its capture time
                # from the previous one.
                capture = self._estimated_capture(seq)
                if capture is None:
                    return
            playout_us = capture + int(self.target_delay_ms * 1000)
            if now_us < playout_us:
                return
            arrival = self._arrivals.pop(seq, None)
            self._captures.pop(seq, None)
            self.total_samples += self.samples_per_packet
            if arrival is None or arrival > playout_us:
                self.concealed_samples += self.samples_per_packet
                if arrival is not None:
                    # Arrived too late: grow the target delay.
                    needed_ms = (arrival - capture) / 1000.0
                    self.target_delay_ms = min(
                        self.max_delay_ms,
                        max(self.target_delay_ms, needed_ms),
                    )
                self._last_buffer_delay_ms = 0.0
            else:
                self.played_packets += 1
                self._last_buffer_delay_ms = max(
                    0.0, (playout_us - arrival) / 1000.0
                )
            self._next_play_seq = seq + 1

    def _estimated_capture(self, seq: int) -> Optional[int]:
        if not self._captures:
            return None
        known_seq = min(self._captures.keys())
        known_capture = self._captures[known_seq]
        return known_capture - (known_seq - seq) * self.packet_interval_us

    def next_wake_us(self, now_us: int, tick_us: int) -> int:
        """First tick after *now_us* at which :meth:`step` would play or
        conceal a packet, assuming no arrivals."""
        if self._next_play_seq is None:
            return NEVER_US
        capture = self._captures.get(self._next_play_seq)
        if capture is None:
            capture = self._estimated_capture(self._next_play_seq)
            if capture is None:
                return NEVER_US
        return self._first_due_tick(now_us, tick_us, capture, now_us)

    def current_delay_ms(self) -> float:
        return self._last_buffer_delay_ms

    @property
    def concealment_fraction(self) -> float:
        if self.total_samples == 0:
            return 0.0
        return self.concealed_samples / self.total_samples
