"""The command-line interface."""

import pytest

from repro.cli import main
from repro.telemetry.io import load_bundle, save_bundle


@pytest.fixture()
def trace_path(tmp_path, private_bundle):
    path = str(tmp_path / "trace.jsonl")
    save_bundle(private_bundle, path)
    return path


def test_simulate_writes_trace(tmp_path, capsys):
    out = str(tmp_path / "sim.jsonl")
    code = main(
        [
            "simulate",
            "--profile",
            "wired",
            "--duration",
            "5",
            "--seed",
            "3",
            "--out",
            out,
        ]
    )
    assert code == 0
    captured = capsys.readouterr().out
    assert "wrote" in captured
    bundle = load_bundle(out)
    assert bundle.duration_us == 5_000_000
    assert len(bundle.packets) > 100


def test_simulate_cellular_profile(tmp_path):
    out = str(tmp_path / "cell.jsonl")
    code = main(
        [
            "simulate",
            "--profile",
            "mosolabs",
            "--duration",
            "4",
            "--out",
            out,
        ]
    )
    assert code == 0
    bundle = load_bundle(out)
    assert len(bundle.dci) > 0


def test_analyze_prints_chains(trace_path, capsys):
    code = main(["analyze", trace_path])
    assert code == 0
    captured = capsys.readouterr().out
    assert "windows analysed" in captured
    assert "degradation events/min" in captured


def test_analyze_with_custom_chains(trace_path, tmp_path, capsys):
    chains = tmp_path / "chains.txt"
    chains.write_text(
        "ul_channel_degrades --> ul_delay_up --> remote_jitter_buffer_drain\n"
    )
    code = main(["analyze", trace_path, "--chains", str(chains)])
    assert code == 0


def test_report_prints_summary(trace_path, capsys):
    code = main(["report", trace_path])
    assert code == 0
    captured = capsys.readouterr().out
    assert "one-way delay" in captured
    assert "jitter buffer" in captured


def test_codegen_prints_python(tmp_path, capsys):
    chains = tmp_path / "chains.txt"
    chains.write_text(
        "dl_rlc_retx --> forward_delay_up --> local_jitter_buffer_drain\n"
    )
    code = main(["codegen", str(chains)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "def backward_trace(features):" in captured


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def _run_fleet(tmp_path, capsys, workers, out_name, extra_args=()):
    out = str(tmp_path / out_name)
    code = main(
        [
            "fleet",
            "--preset",
            "smoke",
            "--workers",
            str(workers),
            "--out",
            out,
            # Keep campaign runs hermetic (no .fleet-cache in the CWD)
            # and genuinely simulated unless a test opts in to caching.
            "--no-cache",
            *extra_args,
        ]
    )
    assert code == 0
    captured = capsys.readouterr().out
    # Everything after the bookkeeping lines is the aggregate report.
    report = captured.split("\n\n", 1)[1]
    with open(out, "rb") as handle:
        return report, handle.read()


def test_fleet_parallel_output_byte_identical(tmp_path, capsys):
    """--workers 4 must aggregate byte-identically to --workers 1."""
    serial_report, serial_jsonl = _run_fleet(tmp_path, capsys, 1, "w1.jsonl")
    parallel_report, parallel_jsonl = _run_fleet(
        tmp_path, capsys, 4, "w4.jsonl"
    )
    assert serial_jsonl == parallel_jsonl
    assert serial_report == parallel_report
    assert "Top root causes fleet-wide" in serial_report


def test_fleet_report_rerenders_saved_outcomes(tmp_path, capsys):
    report, _ = _run_fleet(tmp_path, capsys, 1, "w1.jsonl")
    code = main(["fleet-report", str(tmp_path / "w1.jsonl")])
    assert code == 0
    assert capsys.readouterr().out.strip() == report.strip()


def test_live_replay_service_and_watch(tmp_path, capsys):
    """`repro live` runs a replay fleet to completion and writes a
    snapshot `repro watch` can render."""
    snap = str(tmp_path / "snap.json")
    code = main(
        [
            "live",
            "--sessions",
            "2",
            "--duration",
            "8",
            "--quiet",
            "--snapshot",
            snap,
        ]
    )
    assert code == 0
    captured = capsys.readouterr().out
    assert "live fleet" in captured
    assert "rtf" in captured  # per-session realtime factor column
    code = main(["watch", snap])
    assert code == 0
    watched = capsys.readouterr().out
    assert "2 sessions" in watched
    assert "2 done" in watched


def test_live_sim_source(capsys):
    code = main(
        [
            "live",
            "--sessions",
            "1",
            "--duration",
            "6",
            "--source",
            "sim",
            "--quiet",
        ]
    )
    assert code == 0
    captured = capsys.readouterr().out
    assert "1 done" in captured


def test_fleet_cache_dir_rerun_skips_simulation(tmp_path, capsys):
    import time

    cache_dir = str(tmp_path / "cache")

    def run(out_name):
        out = str(tmp_path / out_name)
        start = time.perf_counter()
        code = main(
            [
                "fleet",
                "--preset",
                "smoke",
                "--out",
                out,
                "--cache-dir",
                cache_dir,
            ]
        )
        elapsed = time.perf_counter() - start
        assert code == 0
        capsys.readouterr()
        with open(out, "rb") as handle:
            return handle.read(), elapsed

    cold_bytes, cold_elapsed = run("cold.jsonl")
    warm_bytes, warm_elapsed = run("warm.jsonl")
    assert warm_bytes == cold_bytes
    assert warm_elapsed < cold_elapsed / 5  # cache hits, no simulation


def _cli_env():
    """Environment for a ``python -m repro.cli`` subprocess that imports
    this checkout's ``repro``."""
    import os

    import repro

    src_dir = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    return env


def test_sigterm_graceful_drain_flushes_metrics_file(tmp_path):
    """SIGTERM must unwind main()'s finally and flush --metrics-file.

    Runs the CLI as a real subprocess (signal dispositions are
    per-process state): a follow-mode watch blocked waiting on a
    snapshot that never appears is terminated mid-wait, and must still
    exit 143 (128 + SIGTERM) with its final metrics snapshot on disk.
    """
    import signal
    import subprocess
    import sys
    import time

    from repro.obs import parse_prom

    metrics_path = str(tmp_path / "final.prom")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "--metrics-file",
            metrics_path,
            "watch",
            str(tmp_path / "never-written-snap.json"),
            "--follow",
            "--interval",
            "0.2",
        ],
        env=_cli_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        time.sleep(1.5)  # let it start its poll loop
        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
    assert code == 143
    with open(metrics_path) as handle:
        parse_prom(handle.read())  # flushed snapshot is parseable


def test_causal_score_renders_saved_labeled_campaign(tmp_path, capsys):
    from repro.causal.confounders import GroundTruthLabel
    from repro.fleet.executor import SessionOutcome, save_outcomes

    outcomes = [
        SessionOutcome(
            scenario=f"adv/s{i}",
            profile="amarisoft",
            impairment="ul_fade",
            seed=i,
            duration_s=8.0,
            n_windows=10,
            n_detected_windows=3,
            degradation_events_per_min=1.0,
            ground_truth=GroundTruthLabel(
                cause="Poor Channel",
                impairment="ul_fade",
                axes=("reactive_control",),
                spurious=("Cross Traffic",),
                accepted=("Poor Channel", "HARQ ReTX"),
            ),
            attributions={
                "domino": "Poor Channel",
                "correlation": "Cross Traffic" if i else "Poor Channel",
            },
        )
        for i in range(2)
    ]
    path = str(tmp_path / "labeled.jsonl")
    save_outcomes(outcomes, path)
    assert main(["causal", "score", path]) == 0
    out = capsys.readouterr().out
    assert "| 1 | domino | 1.000 |" in out
    assert "reactive_control" in out


def test_causal_score_rejects_unlabeled_campaign(tmp_path, capsys):
    from repro.fleet.executor import SessionOutcome, save_outcomes

    outcome = SessionOutcome(
        scenario="plain/s0",
        profile="amarisoft",
        impairment="none",
        seed=0,
        duration_s=8.0,
        n_windows=10,
        n_detected_windows=0,
        degradation_events_per_min=0.0,
    )
    path = str(tmp_path / "plain.jsonl")
    save_outcomes([outcome], path)
    assert main(["causal", "score", path]) == 1
    assert "no outcome carries ground-truth labels" in capsys.readouterr().out


# -- obs ----------------------------------------------------------------------


def test_obs_report_over_events_file(trace_path, tmp_path, capsys):
    events = str(tmp_path / "events.jsonl")
    assert main(["--events-file", events, "analyze", trace_path]) == 0
    capsys.readouterr()
    assert main(["obs", "report", events]) == 0
    out = capsys.readouterr().out
    assert "obs report: 3 events" in out
    for stage in ("ingest.from_bundle", "detect.features", "detect.trace"):
        assert stage in out


def test_obs_trace_on_store_without_spans(tmp_path, capsys):
    from repro import api

    store_dir = str(tmp_path / "store")
    api.store_open(store_dir).close()
    assert main(["obs", "trace", "--store", store_dir]) == 1
    assert (
        f"no trace spans in {store_dir} for any" in capsys.readouterr().out
    )


# -- cluster queue / status / cancel ------------------------------------------


@pytest.fixture()
def standing_coordinator(monkeypatch):
    """A loopback standing coordinator on a background event loop.

    ``main()`` runs its own ``asyncio.run``, so the coordinator (and the
    worker ``add_worker`` attaches) live on a second loop in a thread.
    The ``smoke`` preset is swapped for one short wired scenario.
    """
    import asyncio
    import threading
    from types import SimpleNamespace

    from repro.cluster import ClusterCoordinator, ClusterWorker
    from repro.fleet.scenarios import PRESETS, ScenarioMatrix

    monkeypatch.setitem(
        PRESETS,
        "smoke",
        ScenarioMatrix(
            name="cli_tiny", profiles=("wired",), durations_s=(6.0,)
        ),
    )
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()

    def call(coro):
        return asyncio.run_coroutine_threadsafe(coro, loop).result(timeout=60)

    async def start():
        coordinator = ClusterCoordinator()
        await coordinator.start()
        return coordinator

    coordinator = call(start())
    tasks = []

    async def attach():
        worker = ClusterWorker("127.0.0.1", coordinator.port, slots=1)
        tasks.append(asyncio.ensure_future(worker.run()))
        await coordinator.wait_for_workers(1, timeout_s=60)

    async def stop():
        await coordinator.close()
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)

    try:
        yield SimpleNamespace(
            address=f"127.0.0.1:{coordinator.port}",
            add_worker=lambda: call(attach()),
        )
    finally:
        call(stop())
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
        assert not thread.is_alive()
        loop.close()


def test_cluster_queue_status_cancel(standing_coordinator, tmp_path, capsys):
    from repro import api
    from repro.fleet.executor import load_outcomes

    connect = ["--connect", standing_coordinator.address]
    assert main(["cluster", "status", *connect]) == 0
    assert capsys.readouterr().out == "queue is empty\n"

    # No worker yet: the campaign stays active until cancelled.
    held = ["--campaign-id", "held", "--no-cache"]
    assert main(["cluster", "queue", *connect, *held]) == 0
    assert capsys.readouterr().out == "queued campaign held: 1 scenario(s)\n"
    assert main(["cluster", "status", *connect]) == 0
    assert capsys.readouterr().out == "held  active     0/1\n"
    assert main(["cluster", "cancel", "held", *connect]) == 0
    assert capsys.readouterr().out == "cancelled campaign held\n"

    standing_coordinator.add_worker()
    out = str(tmp_path / "queued.jsonl")
    code = main(
        [
            "cluster",
            "queue",
            *connect,
            "--no-cache",
            "--wait",
            "--interval",
            "0.05",
            "--out",
            out,
        ]
    )
    assert code == 0
    captured = capsys.readouterr().out
    cid = captured.split()[2].rstrip(":")
    assert f"wrote {out}: 1 outcomes" in captured
    want = api.campaign("smoke")
    assert [o.to_json() for o in load_outcomes(out)] == [
        o.to_json() for o in want
    ]

    assert main(["cluster", "status", *connect]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "held  cancelled  0/1",
        f"{cid}  completed  1/1",
    ]
    # A finished (or unknown) campaign cannot be cancelled.
    for campaign_id in (cid, "nope"):
        assert main(["cluster", "cancel", campaign_id, *connect]) == 1
        assert "is not active" in capsys.readouterr().err


def test_cluster_status_unreachable_coordinator_exits_1():
    import socket

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    assert main(["cluster", "status", "--connect", f"127.0.0.1:{port}"]) == 1


# -- one error contract -------------------------------------------------------


def _run_cli(argv, cwd):
    """Run ``python -m repro.cli`` as a subprocess: what a user sees."""
    import subprocess
    import sys

    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        cwd=cwd,
        env=_cli_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "missing.jsonl"],
        ["analyze", "garbage.jsonl"],
        ["report", "garbage.jsonl"],
        ["codegen", "bad.txt"],
        ["analyze", "TRACE", "--chains", "bad.txt"],
    ],
    ids=["analyze-missing", "analyze-garbage", "report-garbage",
         "codegen-bad-dsl", "analyze-bad-chains"],
)
def test_bad_input_logs_one_error_line_without_traceback(
    argv, trace_path, tmp_path
):
    (tmp_path / "garbage.jsonl").write_text('{"garbage": 1}\n')
    (tmp_path / "bad.txt").write_text("this is not --> a chain ((\n")
    argv = [trace_path if arg == "TRACE" else arg for arg in argv]
    proc = _run_cli(argv, cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and " ERROR " in lines[0], proc.stderr


def test_fleet_journal_needs_cluster_dispatch(tmp_path, capsys):
    journal = str(tmp_path / "camp.journal")
    assert main(["fleet", "--journal", journal, "--no-cache"]) == 2
    assert not (tmp_path / "camp.journal").exists()


@pytest.mark.parametrize("journal", [False, True], ids=["plain", "journal"])
def test_fleet_cluster_dispatch_enforces_env_token(
    journal, tmp_path, monkeypatch, capsys
):
    """`fleet --dispatch cluster` must hand $REPRO_CLUSTER_TOKEN to its
    coordinator whether or not the campaign is journaled."""
    from repro import api

    seen = {}

    def fake_campaign(scenarios, *, backend, **kwargs):
        seen["backend"] = backend
        return []

    monkeypatch.setattr(api, "campaign", fake_campaign)
    monkeypatch.setenv("REPRO_CLUSTER_TOKEN", "env-s3cret")
    argv = ["fleet", "--dispatch", "cluster", "--no-cache"]
    path = str(tmp_path / "camp.journal")
    if journal:
        argv += ["--journal", path]
    assert main(argv) == 0
    backend = seen["backend"]
    assert isinstance(backend, api.ClusterBackend)
    assert backend.auth_token == "env-s3cret"
    assert backend.journal_path == (path if journal else None)


# -- docs ---------------------------------------------------------------------


def _readme_command_lines():
    """Every `python -m repro.cli ...` / `repro ...` line in README's
    fenced code blocks, with backslash continuations joined."""
    import pathlib
    import re

    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    commands = []
    for block in re.findall(r"```[^\n]*\n(.*?)```", readme.read_text(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            match = re.match(r"\s*(?:python -m repro\.cli|repro)\s+(.*)", line)
            if match:
                commands.append(match.group(1))
    return commands


def test_readme_command_lines_parse():
    import shlex

    from repro.cli import build_parser

    commands = _readme_command_lines()
    assert len(commands) > 40  # the extraction itself still works
    parser = build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command, comments=True))
        except SystemExit:
            pytest.fail(f"README command does not parse: repro {command}")
