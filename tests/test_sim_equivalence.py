"""Wake-time client stepping is exact.

A session steps each WebRTC client only on ticks with arrivals or at
its ``next_wake_us``; the skipped ticks are replayed when the client
next steps.  While ``tick_hooks`` is non-empty every client steps on
every tick.  Both must give the same telemetry and final client state,
and so must any split of a run into ``advance_to`` batches.
"""

from __future__ import annotations

import random

import pytest

from repro.fleet.scenarios import ScenarioSpec, get_preset
from repro.rtc.jitter_buffer import AudioJitterBuffer, VideoJitterBuffer
from repro.net.packet import Packet
from repro.rtc.pacer import Pacer
from repro.telemetry.io import dump_lines
from repro.telemetry.records import StreamKind

DURATION_US = 2_500_000
SEEDS = (3, 17, 101)
PROFILES = get_preset("campus_sweep").profiles


def _spec(profile: str, seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        name=f"equiv/{profile}/{seed}",
        profile=profile,
        seed=seed,
        duration_s=DURATION_US / 1e6,
    )


def client_state(client) -> tuple:
    video = client.receiver.video
    audio = client.receiver.audio
    return (
        client.now_us,
        list(video.played),
        video.freeze_count,
        video.total_freeze_us,
        video.dropped_frames,
        video.target_delay_ms,
        audio.concealed_samples,
        audio.total_samples,
        audio.played_packets,
        audio.target_delay_ms,
        client.pacer._budget_bytes,
        len(client.pacer),
    )


def outcome(session) -> tuple:
    bundle = session.collector.bundle(DURATION_US)
    return (
        list(dump_lines(bundle)),
        client_state(session.client_a),
        client_state(session.client_b),
    )


@pytest.mark.parametrize("profile", PROFILES)
def test_per_tick_stepping_equals_wake_stepping(profile):
    for seed in SEEDS:
        woken = _spec(profile, seed).build_session()
        woken.run(DURATION_US)
        per_tick = _spec(profile, seed).build_session()
        per_tick.tick_hooks.append(lambda session, now_us: None)
        per_tick.run(DURATION_US)
        assert outcome(woken) == outcome(per_tick), (profile, seed)


@pytest.mark.parametrize("profile", PROFILES)
def test_advance_in_batches_equals_one_run(profile):
    rng = random.Random(profile)
    for seed in SEEDS:
        whole = _spec(profile, seed).build_session()
        whole.run(DURATION_US)
        batched = _spec(profile, seed).build_session()
        while batched.now_us < DURATION_US:
            now = batched.advance_to(
                min(DURATION_US, batched.now_us + rng.randint(1, 90_000))
            )
            # Every advance returns with both clients caught up.
            assert batched.client_a.now_us == now
            assert batched.client_b.now_us == now
        assert outcome(whole) == outcome(batched), (profile, seed)


# -- the per-component replay and wake rules ---------------------------------


def _video_frame(buffer, frame_id, capture_us, arrival_us, n_packets=1):
    for _ in range(n_packets):
        buffer.on_packet(frame_id, capture_us, n_packets, 720, arrival_us)


def test_buffer_skip_ticks_equals_stepping_each_tick():
    for buffer_type in (VideoJitterBuffer, AudioJitterBuffer):
        stepped, skipped = buffer_type(), buffer_type()
        for buffer in (stepped, skipped):
            buffer.target_delay_ms = 180.0  # well above the floor
            buffer.step(1_000)
        for t in range(2_000, 400_000, 1_000):
            stepped.step(t)
        skipped.skip_ticks(398, 1_000)
        assert skipped.target_delay_ms == stepped.target_delay_ms
        assert skipped._last_decay_us == stepped._last_decay_us


def test_video_next_wake_is_the_first_tick_with_work():
    rng = random.Random(5)
    for trial in range(200):
        buffer = VideoJitterBuffer()
        buffer.target_delay_ms = rng.uniform(60.0, 400.0)
        capture = 0
        for frame_id in range(rng.randint(1, 6)):
            _video_frame(
                buffer,
                frame_id,
                capture,
                capture + rng.randint(1_000, 300_000),
                n_packets=rng.choice((1, 1, 2)),
            )
            capture += 33_333
        # Leave the last multi-packet frame incomplete sometimes.
        buffer.on_packet(99, capture, 3, 720, capture + 5_000)
        t = rng.randrange(0, 200_000, 1_000)
        buffer.step(t)
        wake = buffer.next_wake_us(t, 1_000)
        while True:
            t += 1_000
            before = (len(buffer.played), buffer.dropped_frames,
                      buffer.freeze_count)
            buffer.step(t)
            after = (len(buffer.played), buffer.dropped_frames,
                     buffer.freeze_count)
            if after != before:
                break
            assert t < wake, trial
        # The wake may fall between ticks; the session steps the first
        # tick at or after it.
        assert t - 1_000 < wake <= t, trial


def test_audio_next_wake_is_the_first_tick_with_work():
    rng = random.Random(7)
    for trial in range(200):
        buffer = AudioJitterBuffer()
        buffer.target_delay_ms = rng.uniform(40.0, 300.0)
        for seq in range(rng.randint(1, 5)):
            if rng.random() < 0.8:
                buffer.on_packet(seq, seq * 20_000,
                                 seq * 20_000 + rng.randint(1_000, 90_000))
        t = rng.randrange(0, 60_000, 1_000)
        buffer.step(t)
        wake = buffer.next_wake_us(t, 1_000)
        before = buffer.total_samples
        while buffer.total_samples == before:
            t += 1_000
            assert t <= wake, trial
            buffer.step(t)
            if t > 2_000_000:
                break
        assert t == wake or wake > 2_000_000, trial


def test_pacer_skip_and_release_match_draining_each_tick():
    def packet(size):
        return Packet(packet_id=0, stream=StreamKind.VIDEO,
                      size_bytes=size, sent_us=0, sender="a")

    for rate, size in ((30_000.0, 300), (400_000.0, 1_200), (2e6, 1_200)):
        drained, skipped = Pacer(), Pacer()
        for pacer in (drained, skipped):
            pacer.set_rate(rate)
            pacer.drain(1_000)
        for t in range(2_000, 60_000, 1_000):
            drained.drain(t)
        skipped.skip_ticks(58, 1_000)
        assert skipped._budget_bytes == drained._budget_bytes
        # A queued packet leaves on the tick next_release_us names.
        drained.enqueue(packet(size))
        drained._budget_bytes = 0.0
        wake = drained.next_release_us(59_000, 1_000, 10_000_000)
        t = 59_000
        while not drained.drain(t + 1_000):
            t += 1_000
            assert t < wake
        assert t + 1_000 == wake
