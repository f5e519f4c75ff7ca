"""The four workloads: what each runs, how much, and what it checks.

Each workload has a ``setup`` (input generation from the seed, timed as
``setup_s``) and a ``run`` that measures either for a number of seconds
(untraced runs) or over a fixed number of work units (the traced run's
untraced and traced passes, which must do identical work).  Outputs are
checked after the measured region; each operation whose output is wrong
counts as failed.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import os
import selectors
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import repro.api as api
import repro.causal.score  # noqa: F401  (imported lazily by run_scenario)
from repro import schema
from repro.live.service import canonical_detections

from harness import inputs
from harness.host import HostSpeed
from harness.live import Schedule, ScheduledReplay, split_batches

#: live_replay: each session replays its trace at this multiple of
#: realtime, and this many sessions overlap at steady state, so the
#: aggregate feed rate is SPEED * CONCURRENCY session-seconds per wall
#: second (18x, about half of one core's replay capacity on the six-
#: profile corpus).  Six overlapping sessions hold one of each profile.
SPEED = 3.0
CONCURRENCY = 6
#: Wall delay between building the service and the first due batch.
LEAD_S = 0.1
#: A window is late when its detection reaches the sink later than this
#: after its last batch was due.  Advance coalescing alone (one advance
#: per 5 s of telemetry) holds a window back up to 1.7 s at SPEED.
LATE_LIMIT_S = 4.0


@dataclass
class Pass:
    """What one measured pass did and how long it took."""

    session_s: float
    #: Wall and CPU time of the measured region, as measured.
    wall_s: float
    cpu_s: float
    #: Closed loops: reference-host wall time of each operation; open
    #: loop: each window's latency, as measured.
    latencies_s: List[float]
    #: Profile of the trace or scenario behind each latency sample.
    profiles: List[str]
    attempted: int
    failed: int
    digest: str
    #: Closed loops: reference-host CPU time of each operation, parallel
    #: to latencies_s.
    op_cpu_s: List[float] = field(default_factory=list)
    #: Reference-host CPU time of the measured region.
    ref_cpu_s: float = 0.0
    #: Mean host probe time during the measured region (0 if unprobed).
    mean_probe_s: float = 0.0
    #: Open loop: wall time is set by the feed schedule, not the host.
    open_loop: bool = False
    extra: Dict[str, object] = field(default_factory=dict)


def _digest(parts: List[str]) -> str:
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]


class _Measured:
    """The measured region: wall and CPU time, with host probes running
    (when *host* is given; their time is left out) and *tracer*
    installed for its duration.  Checks run after it, untraced."""

    def __init__(self, tracer=None, host: Optional[HostSpeed] = None):
        self.tracer = tracer
        self.host = host
        self.wall_s = self.cpu_s = self.ref_cpu_s = 0.0
        self._stack = ExitStack()

    def now(self, clock: str) -> float:
        """Reading of the ``"wall"`` or ``"cpu"`` work clock."""
        if self.host is not None:
            return self.host.now(clock)
        return time.perf_counter() if clock == "wall" else time.process_time()

    def reference(self, clock: str, start, end):
        """Reference-host seconds of work-clock spans (see
        :meth:`HostSpeed.reference`); as measured when unprobed."""
        if self.host is not None:
            return self.host.reference(clock, start, end)
        if isinstance(start, list):
            return [b - a for a, b in zip(start, end)]
        return end - start

    def __enter__(self) -> "_Measured":
        # Start every measured region from the same collector state,
        # not from whatever garbage set-up or a previous pass left.
        gc.collect()
        if self.tracer is not None:
            self.tracer.install()
            self._stack.callback(self.tracer.restore)
        if self.host is not None:
            self._stack.enter_context(self.host.sampling())
        self._raw0 = time.perf_counter()
        self._wall0, self._cpu0 = self.now("wall"), self.now("cpu")
        return self

    def elapsed(self) -> float:
        return time.perf_counter() - self._raw0

    def __exit__(self, *exc) -> None:
        wall1, cpu1 = self.now("wall"), self.now("cpu")
        self._stack.close()
        self.wall_s = wall1 - self._wall0
        self.cpu_s = cpu1 - self._cpu0
        self.ref_cpu_s = self.reference("cpu", self._cpu0, cpu1)

    def fields(self) -> dict:
        return {
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "ref_cpu_s": self.ref_cpu_s,
            "mean_probe_s": self.host.mean_probe_s if self.host else 0.0,
        }


class _Operations:
    """Work-clock spans of each closed-loop operation, with the profile
    it ran; converted to reference-host seconds after the region."""

    def __init__(self, clock: _Measured) -> None:
        self.clock = clock
        self.spans: Dict[str, List[List[float]]] = {
            "wall": [[], []],
            "cpu": [[], []],
        }
        self.profiles: List[str] = []

    @contextmanager
    def timed(self, profile: str):
        starts = {clock: self.clock.now(clock) for clock in self.spans}
        yield
        for clock, (begin, end) in self.spans.items():
            end.append(self.clock.now(clock))
            begin.append(starts[clock])
        self.profiles.append(profile)

    def fields(self) -> dict:
        wall, cpu = self.spans["wall"], self.spans["cpu"]
        return {
            "latencies_s": self.clock.reference("wall", *wall),
            "profiles": self.profiles,
            "op_cpu_s": self.clock.reference("cpu", *cpu),
            **self.clock.fields(),
        }


def _keep_going(clock: _Measured, done: int, seconds, units) -> bool:
    if units is not None:
        return done < units
    return done == 0 or clock.elapsed() < seconds


# -- campaign -------------------------------------------------------------------


def setup_campaign(seed: int, workdir: str):
    return inputs.as_received(
        inputs.scenario_slice(seed, per_profile=inputs.CAMPAIGN_PER_PROFILE)
    )


def run_campaign(
    specs, seconds=None, units=None, tracer=None, host=None
) -> Pass:
    """Closed loop, one caller: one api.campaign call per scenario,
    whole slices only, so every run holds the same scenario mix."""
    backend = api.InlineBackend()
    outcomes = []
    slices = 0
    with _Measured(tracer, host) as clock:
        ops = _Operations(clock)
        while _keep_going(clock, slices, seconds, units):
            for spec in specs:
                with ops.timed(spec.profile):
                    outcomes.extend(api.campaign([spec], backend=backend))
            slices += 1

    wires = [json.dumps(o.to_json(), sort_keys=True) for o in outcomes]
    reference = wires[: len(specs)]
    failed = 0
    for index, (outcome, wire) in enumerate(zip(outcomes, wires)):
        decoded = schema.session_outcome_from_wire(json.loads(wire))
        again = json.dumps(
            schema.session_outcome_to_wire(decoded), sort_keys=True
        )
        if (
            outcome.n_windows == 0
            or again != wire
            or wire != reference[index % len(specs)]
        ):
            failed += 1
    return Pass(
        session_s=slices * sum(spec.duration_s for spec in specs),
        attempted=len(outcomes),
        failed=failed,
        digest=_digest(reference),
        **ops.fields(),
    )


# -- analyze_trace / analyze_bundle ---------------------------------------------


def setup_corpus(seed: int, workdir: str):
    return inputs.build_corpus(seed, os.path.join(workdir, "corpus"))


def _run_analyze(corpus, from_paths, seconds, units, tracer, host) -> Pass:
    """Closed loop, one caller: api.analyze over every corpus trace in
    turn, whole corpus cycles only."""
    items = corpus.paths if from_paths else corpus.bundles
    reports = []
    cycles = 0
    with _Measured(tracer, host) as clock:
        ops = _Operations(clock)
        while _keep_going(clock, cycles, seconds, units):
            for item, spec in zip(items, corpus.specs):
                with ops.timed(spec.profile):
                    reports.append(api.analyze(item))
            cycles += 1

    # The reference comes from the other form of the same trace: the
    # in-memory bundle for JSONL runs and the JSONL file for bundle runs.
    others = corpus.bundles if from_paths else corpus.paths
    reference = [canonical_detections(api.analyze(o).windows) for o in others]
    outputs = [canonical_detections(report.windows) for report in reports]
    failed = sum(
        1
        for index, output in enumerate(outputs)
        if output != reference[index % len(items)]
    )
    return Pass(
        session_s=cycles * corpus.session_s,
        attempted=len(reports),
        failed=failed,
        digest=_digest(outputs[: len(items)]),
        **ops.fields(),
    )


def run_analyze_trace(
    corpus, seconds=None, units=None, tracer=None, host=None
) -> Pass:
    return _run_analyze(corpus, True, seconds, units, tracer, host)


def run_analyze_bundle(
    corpus, seconds=None, units=None, tracer=None, host=None
) -> Pass:
    return _run_analyze(corpus, False, seconds, units, tracer, host)


# -- live_replay -----------------------------------------------------------------


@dataclass
class LiveInputs:
    corpus: inputs.Corpus
    batches: list


def setup_live(seed: int, workdir: str) -> LiveInputs:
    corpus = setup_corpus(seed, workdir)
    return LiveInputs(corpus, [split_batches(b) for b in corpus.bundles])


def live_sessions(seconds: float) -> int:
    """Sessions whose whole schedule fits in *seconds* (at least one
    full overlap of CONCURRENCY sessions)."""
    session_wall = inputs.TRACE_S / SPEED
    spacing = session_wall / CONCURRENCY
    return max(CONCURRENCY, int((seconds - session_wall) / spacing) + 1)


def run_live(
    live: LiveInputs, seconds=None, units=None, tracer=None, host=None
) -> Pass:
    """Open loop: sessions start every TRACE_S / SPEED / CONCURRENCY
    seconds, rotating through the corpus, each fed on its own schedule."""
    corpus = live.corpus
    n_sessions = units if units is not None else live_sessions(seconds)
    spacing = inputs.TRACE_S / SPEED / CONCURRENCY
    schedule = Schedule(SPEED)
    sources = []
    for index in range(n_sessions):
        trace = index % len(corpus.bundles)
        spec = corpus.specs[trace]
        sources.append(
            ScheduledReplay(
                f"live-{index}",
                spec.profile,
                spec.impairment.name,
                corpus.bundles[trace],
                live.batches[trace],
                schedule,
                index * spacing,
            )
        )
    selector = selectors.DefaultSelector()
    loop = asyncio.SelectorEventLoop(selector)
    received: Dict[str, list] = {source.session_id: [] for source in sources}

    def sink(session_id, detections, chains, watermark_us):
        received[session_id].append((loop.time(), detections))

    queue_depth_max = 0.0

    def on_snapshot(snapshot) -> None:
        nonlocal queue_depth_max
        queue_depth_max = max(
            queue_depth_max, snapshot.health.get("queue_depth_max", 0.0)
        )

    if tracer is not None:
        # Time the loop spends waiting in select() is idle time.
        selector.select = tracer.wrap("selector.select", "live.idle",
                                      selector.select)
        sink = tracer.wrap("bench.sink", "bench.sink", sink)

    async def serve():
        service = api.serve(
            sources,
            detection_sink=sink,
            on_snapshot=on_snapshot,
            snapshot_every_s=0.5,
        )
        schedule.origin = loop.time() + LEAD_S
        return await service.run()

    try:
        with _Measured(tracer, host) as clock:
            final = loop.run_until_complete(serve())
    finally:
        loop.close()

    reference = [
        canonical_detections(api.analyze(bundle).windows)
        for bundle in corpus.bundles
    ]
    states = {s.session_id: s for s in final.sessions}
    latencies, profiles, failed, session_s = [], [], 0, 0.0
    outputs: List[str] = []
    for index, source in enumerate(sources):
        windows = []
        for arrived, detections in received[source.session_id]:
            for window in detections:
                windows.append(window)
                latencies.append(arrived - source.window_due(window.end_us))
                profiles.append(source.profile)
        output = canonical_detections(windows)
        if index < len(reference):
            outputs.append(output)
        state = states[source.session_id]
        if (
            state.state != "done"
            or state.lag_events
            or output != reference[index % len(reference)]
        ):
            failed += 1
        else:
            session_s += source.duration_us / 1e6
    generator_late = sorted(late for s in sources for late in s.late_s)
    return Pass(
        session_s=session_s,
        latencies_s=latencies,
        profiles=profiles,
        attempted=n_sessions,
        failed=failed,
        digest=_digest(outputs),
        open_loop=True,
        **clock.fields(),
        extra={
            "late_window_fraction": (
                sum(1 for value in latencies if value > LATE_LIMIT_S)
                / max(len(latencies), 1)
            ),
            "generator_late_s": generator_late,
            "queue_depth_max": queue_depth_max,
        },
    )


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    run: Callable
    #: Set-ups per untraced run; setup_s is their median.
    setup_repeats: int
    #: Work units of each traced-run pass: slices, corpus cycles or
    #: live sessions.
    traced_units: int


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("campaign", setup_campaign, run_campaign, 200, 1),
        Workload("analyze_trace", setup_corpus, run_analyze_trace, 2, 2),
        Workload("analyze_bundle", setup_corpus, run_analyze_bundle, 2, 20),
        Workload("live_replay", setup_live, run_live, 2, CONCURRENCY),
    )
}
