"""Telemetry collector the simulators write into during a session.

One collector instance is shared by the RAN simulator (DCI + gNB log),
the network path (packet records), and both WebRTC clients (stats
records).  At the end of a run :meth:`TelemetryCollector.bundle` freezes
everything into a :class:`~repro.telemetry.records.TelemetryBundle`,
sorted by timestamp — the input format Domino consumes.
"""

from __future__ import annotations

from dataclasses import replace
from heapq import merge
from operator import attrgetter
from typing import Dict, List, Optional

from repro.telemetry.records import (
    DciRecord,
    GnbLogRecord,
    PacketRecord,
    TelemetryBundle,
    WebRtcStatsRecord,
    record_time_us,
)


_BY_TS = attrgetter("ts_us")
_BY_SENT = attrgetter("sent_us")


class TelemetryCollector:
    """Accumulates telemetry records during one simulated session."""

    def __init__(
        self,
        session_name: str,
        cellular_client: str = "cellular",
        wired_client: str = "wired",
        gnb_log_available: bool = False,
    ) -> None:
        self.session_name = session_name
        self.cellular_client = cellular_client
        self.wired_client = wired_client
        self.gnb_log_available = gnb_log_available
        self._dci: List[DciRecord] = []
        self._gnb_log: List[GnbLogRecord] = []
        self._packets: Dict[int, PacketRecord] = {}
        self._packet_order: List[PacketRecord] = []  # send order
        self._webrtc: List[WebRtcStatsRecord] = []
        # Per-list cursors for drain(): everything before these indices
        # has already been handed to a live consumer.
        self._drained = [0, 0, 0, 0]

    # -- RAN-side records ---------------------------------------------------

    def record_dci(self, record: DciRecord) -> None:
        self._dci.append(record)

    def record_gnb_log(self, record: GnbLogRecord) -> None:
        if self.gnb_log_available:
            self._gnb_log.append(record)

    # -- packet trace ---------------------------------------------------------

    def record_packet_sent(self, record: PacketRecord) -> None:
        """Register a packet at its sender-side capture point."""
        self._packets[record.packet_id] = record
        self._packet_order.append(record)

    def record_packet_received(
        self, packet_id: int, received_us: int
    ) -> None:
        """Join the receiver-side capture for *packet_id*."""
        record = self._packets.get(packet_id)
        if record is not None:
            record.received_us = received_us

    # -- application stats ------------------------------------------------------

    def record_webrtc_stats(self, record: WebRtcStatsRecord) -> None:
        self._webrtc.append(record)

    # -- live draining ----------------------------------------------------------

    def drain(self, up_to_us: int) -> List[object]:
        """Hand out records with timestamp <= *up_to_us* not drained yet.

        The live feed API: a :class:`~repro.live.sources.SimSource`
        calls this as the simulation advances, leaving records newer
        than *up_to_us* for a later drain.  Each source list is
        timestamp-ordered by construction (the simulators append in
        simulated-time order), so the result is one merged time-ordered
        batch and every record is emitted exactly once.  Packet records
        are emitted as frozen copies keyed on their *send* time: the
        collector's own copy keeps mutating when the receive side joins,
        so callers should drain with enough settling lag for in-flight
        packets to land.
        """
        lists = (self._dci, self._gnb_log, self._packet_order, self._webrtc)
        runs = []
        for index, records in enumerate(lists):
            cursor = self._drained[index]
            run = []
            while cursor < len(records):
                record = records[cursor]
                is_packet = records is self._packet_order
                ts = record.sent_us if is_packet else record.ts_us
                if ts > up_to_us:
                    break
                run.append(replace(record) if is_packet else record)
                cursor += 1
            self._drained[index] = cursor
            runs.append(run)
        return list(merge(*runs, key=record_time_us))

    # -- output -----------------------------------------------------------------

    def bundle(self, duration_us: int) -> TelemetryBundle:
        """Freeze all records into a sorted TelemetryBundle."""
        return TelemetryBundle(
            session_name=self.session_name,
            duration_us=duration_us,
            cellular_client=self.cellular_client,
            wired_client=self.wired_client,
            gnb_log_available=self.gnb_log_available,
            dci=sorted(self._dci, key=_BY_TS),
            gnb_log=sorted(self._gnb_log, key=_BY_TS),
            packets=sorted(self._packets.values(), key=_BY_SENT),
            webrtc_stats=sorted(self._webrtc, key=_BY_TS),
        )
