"""Packet pacer.

WebRTC's pacer smooths frame bursts onto the wire at a multiple of the
target rate (the *pacing factor*, 2.5x by default) so a large keyframe
does not instantaneously flood the path.  Bursts still exist at the
5G grant granularity — which is why the paper's Fig. 14 shows clustered
transmit times — but the pacer bounds their rate.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Tuple

from repro.net.packet import Packet
from repro.telemetry.records import StreamKind

PACING_FACTOR = 2.5

#: Audio and RTCP bypass the pacer in WebRTC; we do the same.
_PACED_STREAMS = frozenset({StreamKind.VIDEO})


@dataclass
class Pacer:
    """Leaky-bucket pacer draining a FIFO queue at the pacing rate."""

    pacing_factor: float = PACING_FACTOR
    _queue: Deque[Packet] = field(default_factory=deque)
    _budget_bytes: float = 0.0
    _last_drain_us: int = 0
    rate_bps: float = 1_000_000.0

    def set_rate(self, rate_bps: float) -> None:
        self.rate_bps = max(rate_bps, 30_000.0)

    def enqueue(self, packet: Packet) -> None:
        self._queue.append(packet)

    def _accrual(self, dt_us: int) -> Tuple[float, float]:
        """Bytes of budget *dt_us* accrue at the pacing rate, and the
        cap that keeps idle periods from banking an unbounded burst."""
        per_s = self.rate_bps * self.pacing_factor / 8.0
        return per_s * dt_us / 1e6, per_s * 0.04

    def drain(self, now_us: int) -> List[Packet]:
        """Release packets allowed by the budget accumulated since the
        last drain; returns them stamped with their release time."""
        dt_us = max(0, now_us - self._last_drain_us)
        self._last_drain_us = now_us
        top_up, cap = self._accrual(dt_us)
        self._budget_bytes = min(self._budget_bytes + top_up, cap)
        released: List[Packet] = []
        while self._queue:
            head = self._queue[0]
            if head.stream in _PACED_STREAMS:
                if head.size_bytes > self._budget_bytes:
                    break
                self._budget_bytes -= head.size_bytes
            self._queue.popleft()
            head.sent_us = now_us
            released.append(head)
        return released

    def skip_ticks(self, n_ticks: int, tick_us: int) -> None:
        """Apply *n_ticks* calls of :meth:`drain`, *tick_us* apart, that
        release nothing: only the budget accrues, tick by tick, until it
        stops changing at its cap."""
        top_up, cap = self._accrual(tick_us)
        budget = self._budget_bytes
        for _ in range(n_ticks):
            topped = min(budget + top_up, cap)
            if topped == budget:
                break
            budget = topped
        self._budget_bytes = budget
        self._last_drain_us += n_ticks * tick_us

    def next_release_us(self, now_us: int, tick_us: int, until_us: int) -> int:
        """First tick after *now_us* (the last :meth:`drain`) whose drain
        releases a packet, at an unchanged rate; *until_us* if that is
        not before *until_us*."""
        if not self._queue:
            return until_us
        head = self._queue[0]
        if head.stream not in _PACED_STREAMS:
            return min(until_us, now_us + tick_us)
        top_up, cap = self._accrual(tick_us)
        budget = self._budget_bytes
        t = now_us + tick_us
        while t < until_us:
            budget = min(budget + top_up, cap)
            if not head.size_bytes > budget:
                return t
            t += tick_us
        return until_us

    @property
    def queue_bytes(self) -> int:
        return sum(p.size_bytes for p in self._queue)

    def __len__(self) -> int:
        return len(self._queue)
