"""Host-speed probes, so a slower host shows apart from slower code.

On a shared host the speed of a fixed pure-Python loop can swing by 2x
within seconds (seen on a 2-vCPU x86 host).  While a workload runs, a
timer signal interrupts it every :data:`PROBE_EVERY_S` to run a short
reference workload (:func:`probe`), sampling that speed.  Each span of
work between two probes is converted to the time it takes on a host
where the probe takes exactly :data:`REFERENCE_PROBE_S`, at the speed
the probes on either side of it measured (:meth:`HostSpeed.reference`).
The bounded end-to-end metrics are stated in those reference-host
seconds; probe time itself is left out of every measured time.
"""

from __future__ import annotations

import gc
import json
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

#: Iterations of the probe's integer loop and lines of its JSON decode:
#: about 1.5 ms each on a 2-vCPU x86 host.
PROBE_ITERATIONS = 20_000
PROBE_LINES = 400
#: Probe time of the reference host that normalized times refer to.
REFERENCE_PROBE_S = 0.003
#: Wall time between two probes (bounds their overhead to ~6%).
PROBE_EVERY_S = 0.05

_CLOCKS = {"wall": time.perf_counter, "cpu": time.process_time}
_PROBE_TEXT = "\n".join(
    json.dumps({"t_us": 1000 * i, "rnti": i % 50, "tbs": 7 * i,
                "mcs": i % 28, "dir": "dl", "v": [i, i + 1, i / 2]})
    for i in range(PROBE_LINES)
)


def probe() -> float:
    """Wall time of one fixed reference workload.

    It has two halves because the host's slow phases slow the program
    more than an interpreter-bound integer loop and less than a JSON
    decode, which allocates and touches more memory.  Against 10 s
    chunks of simulation, JSONL decode and in-memory analysis, the
    workloads' time grew as the 1.2-1.4th power of the loop's time, the
    0.8-0.9th power of the decode's, and the 0.95-1.13th power of their
    sum, which is what a converted time needs to stay level.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i % 7
    rows = [json.loads(line) for line in _PROBE_TEXT.splitlines()]
    took = time.perf_counter() - start
    del rows
    if enabled:
        gc.enable()
    return took


def calibration_s() -> float:
    """Median of five probes: the host's speed right now."""
    return statistics.median(probe() for _ in range(5))


class HostSpeed:
    """Probe samples taken while one measured region runs, stamped on
    the region's work clocks (wall and CPU time less probe time)."""

    def __init__(self) -> None:
        self.samples: list = []
        #: Total time spent probing, left out of both work clocks.
        self.probe_s = 0.0
        self._stamps = {clock: [] for clock in _CLOCKS}

    def now(self, clock: str) -> float:
        """Reading of the ``"wall"`` or ``"cpu"`` work clock."""
        return _CLOCKS[clock]() - self.probe_s

    @contextmanager
    def sampling(self):
        """Probe every :data:`PROBE_EVERY_S` of wall time in this block.

        The probes run in the main thread from a SIGALRM handler, so
        they interrupt the workload wherever it is.
        """

        def on_timer(signum, frame) -> None:
            for clock, stamps in self._stamps.items():
                stamps.append(self.now(clock))
            took = probe()
            self.samples.append(took)
            self.probe_s += took

        previous = signal.signal(signal.SIGALRM, on_timer)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def reference(self, clock: str, start, end):
        """Reference-host seconds of the work-clock spans [*start*, *end*]
        (scalars or arrays of readings of :meth:`now`).

        Between two probes the host runs at the mean of their speeds;
        before the first and after the last, at that probe's speed.
        """
        if not self.samples:
            # A region shorter than one probe period: probe it now.
            took = probe()
            self.samples.append(took)
            for stamps in self._stamps.values():
                stamps.append(0.0)
        stamps = np.asarray(self._stamps[clock])
        rate = REFERENCE_PROBE_S / np.asarray(self.samples)
        # Reference seconds from the first probe to each probe.
        cumulative = np.concatenate(
            ([0.0], np.cumsum(np.diff(stamps) * (rate[:-1] + rate[1:]) / 2))
        )

        def integral(t):
            t = np.asarray(t, dtype=float)
            inside = np.interp(t, stamps, cumulative)
            before = (t - stamps[0]) * rate[0]
            after = cumulative[-1] + (t - stamps[-1]) * rate[-1]
            return np.where(
                t < stamps[0], before, np.where(t > stamps[-1], after, inside)
            )

        spans = integral(end) - integral(start)
        return float(spans) if spans.ndim == 0 else spans.tolist()

    @property
    def mean_probe_s(self) -> float:
        return statistics.mean(self.samples) if self.samples else 0.0
