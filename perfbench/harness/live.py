"""The open-loop feed for ``live_replay``.

:class:`ScheduledReplay` is a :class:`repro.live.sources.TelemetrySource`
that replays one recorded bundle on a fixed wall-clock schedule: batch
*k* is due at ``start + k * batch / speed`` whatever the consumer is
doing.  Each emitted batch records how late the generator ran, and every
window's latency is measured from the wall time its last batch was due
(:meth:`ScheduledReplay.window_due`), so a stall delays every window
behind it instead of hiding in a slower feed.
"""

from __future__ import annotations

import asyncio
import heapq
import math
from typing import List, Tuple

from repro.live.sources import TelemetryBatch
from repro.telemetry.records import TelemetryBundle, record_time_us

#: Telemetry time per batch, as `repro live --source replay` uses.
BATCH_US = 1_000_000


def split_batches(bundle: TelemetryBundle) -> List[Tuple[List[object], int]]:
    """(records, watermark_us) per batch, as ReplaySource cuts them.

    Records with timestamps in ``[(k-1)*BATCH_US, k*BATCH_US)`` form
    batch *k*; the last batch carries everything that remains and the
    trace's full duration as its watermark.
    """
    merged = heapq.merge(
        bundle.dci,
        bundle.gnb_log,
        bundle.packets,
        bundle.webrtc_stats,
        key=record_time_us,
    )
    n_batches = max(1, math.ceil(bundle.duration_us / BATCH_US))
    batches: List[List[object]] = [[] for _ in range(n_batches)]
    for record in merged:
        index = min(record_time_us(record) // BATCH_US, n_batches - 1)
        batches[max(index, 0)].append(record)
    return [
        (records, min((k + 1) * BATCH_US, bundle.duration_us))
        for k, records in enumerate(batches)
    ]


class Schedule:
    """The shared wall-clock origin every session's due times count from."""

    def __init__(self, speed: float) -> None:
        self.speed = speed
        self.origin = 0.0

    def due(self, start_offset_s: float, telemetry_us: int) -> float:
        """Wall time at which telemetry up to *telemetry_us* is due."""
        return self.origin + start_offset_s + telemetry_us / 1e6 / self.speed


class ScheduledReplay:
    """Replay one bundle as a live session on a fixed schedule."""

    def __init__(
        self,
        session_id: str,
        profile: str,
        impairment: str,
        bundle: TelemetryBundle,
        batches: List[Tuple[List[object], int]],
        schedule: Schedule,
        start_offset_s: float,
    ) -> None:
        self.session_id = session_id
        self.profile = profile
        self.impairment = impairment
        self.gnb_log_available = bundle.gnb_log_available
        self.duration_us = bundle.duration_us
        self._batches = batches
        self._schedule = schedule
        self._start_offset_s = start_offset_s
        self.late_s: List[float] = []

    def window_due(self, end_us: int) -> float:
        """Wall time at which the batch completing *end_us* was due."""
        k = min(math.ceil(end_us / BATCH_US), len(self._batches))
        return self._schedule.due(self._start_offset_s, k * BATCH_US)

    async def batches(self):
        loop = asyncio.get_running_loop()
        last = len(self._batches) - 1
        for k, (records, watermark_us) in enumerate(self._batches):
            due = self._schedule.due(self._start_offset_s, (k + 1) * BATCH_US)
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            self.late_s.append(loop.time() - due)
            yield TelemetryBatch(
                list(records), watermark_us=watermark_us, final=k == last
            )
