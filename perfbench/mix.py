"""mix: many LOUDs playing back-to-back queues on a static topology.

One thread steps the hub on a real-time schedule (one block per 20 ms
deadline) and times each block; the request path stays idle apart from
the E1 probe connection, so a request-path change should predict no
change here.  Each LOUD's queue is drawn from a small seeded pool of
mu-law 8 kHz, PCM16 8 kHz, PCM16 16 kHz and ADPCM sounds, so the render
backend, the decode cache, the resampler, the mixer and the conductor do
the work.  One sentinel LOUD plays marked segments on its own speaker
for the E2 gap check.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from arith import percentile, tail
from common import (
    BLOCK,
    BLOCK_S,
    RATE,
    SETUPS,
    E1Probe,
    Metric,
    Result,
    Schedule,
    counter_delta,
    median_setup,
    probe_sounds,
    stratified_phases,
)

LOUDS = 48
POOL = 8
#: Pool sounds last 1.5-2.5 s.  Each LOUD queues PLAYS of them and the
#: sentinel SENTINEL_SEGMENTS marked segments, enough for a traced run
#: at the standard length.  The counts are fixed rather than sized to
#: the run because a queue's per-block cost grows with every command it
#: has ever held: a longer queue would make a longer run slower.
POOL_SECONDS = (1.5, 2.5)
PLAYS = 24
SENTINEL_SEGMENT_S = 2.0
SENTINEL_SEGMENTS = 20
#: Blocks stepped unpaced at the end of setup, so every queue has
#: started, the render plan is compiled and the decode cache is warm.
SETUP_BLOCKS = 10
#: Paced blocks, probe running, before the measured window opens.
WARMUP_BLOCKS = 50


def sizes() -> dict:
    return {"setups": SETUPS, "louds": LOUDS, "pool_sounds": POOL,
            "plays_per_loud": PLAYS,
            "sentinel_segments": SENTINEL_SEGMENTS,
            "connections": 1, "stepping_threads": 1,
            "block_frames": BLOCK, "sample_rate": RATE}


def _pool(rng) -> list[tuple[np.ndarray, object]]:
    """The seeded sound pool: (linear samples at their own rate, type)."""
    from repro.protocol.types import (
        ADPCM_8K,
        MULAW_8K,
        PCM16_8K,
        Encoding,
        SoundType,
    )

    pcm16_16k = SoundType(Encoding.PCM16, 16, 16000)
    types = [MULAW_8K, PCM16_8K, pcm16_16k, ADPCM_8K]
    pool = []
    for index in range(POOL):
        sound_type = types[index % len(types)]
        rate = sound_type.samplerate
        seconds = float(rng.uniform(*POOL_SECONDS))
        frames = int(seconds * rate)
        pitch = float(rng.uniform(200.0, 900.0))
        samples = (np.sin(np.arange(frames) * 2 * np.pi * pitch / rate)
                   * rng.uniform(1000, 6000)).astype(np.int16)
        pool.append((samples, sound_type))
    return pool


class Mix:
    def __init__(self, seed: int, cover_s: float) -> None:
        from repro.alib.api import AudioClient
        from repro.hardware.config import HardwareConfig, SpeakerSpec
        from repro.protocol.types import PCM16_8K, DeviceClass
        from repro.server.core import AudioServer

        rng = np.random.default_rng(seed)
        config = HardwareConfig(speakers=(SpeakerSpec("speaker-0"),
                                          SpeakerSpec("probe"),
                                          SpeakerSpec("sentinel")))
        self.server = AudioServer(config)
        self.server.start(start_hub=False)
        self.client = client = AudioClient(port=self.server.port,
                                           client_name="mix")
        self.probe = E1Probe(client, self.server, "probe",
                             probe_sounds(rng, 4, 800))
        pool = _pool(rng)
        handles = [client.sound_from_samples(samples, sound_type)
                   for samples, sound_type in pool]
        plays = max(PLAYS, int(np.ceil(cover_s / POOL_SECONDS[0])))
        self.louds = []
        for _ in range(LOUDS):
            loud = client.create_loud()
            player = loud.create_device(DeviceClass.PLAYER)
            output = loud.create_device(DeviceClass.OUTPUT,
                                        {"name": "speaker-0"})
            loud.wire(player, 0, output, 0)
            loud.map()
            for _ in range(plays):
                player.play(handles[int(rng.integers(POOL))])
            loud.start_queue()
            self.louds.append(loud)
        # The sentinel: distinct marked segments, back to back.
        segment = int(SENTINEL_SEGMENT_S * RATE)
        self.segments = []
        loud = client.create_loud()
        player = loud.create_device(DeviceClass.PLAYER)
        output = loud.create_device(DeviceClass.OUTPUT,
                                    {"name": "sentinel"})
        loud.wire(player, 0, output, 0)
        loud.map()
        segments = max(SENTINEL_SEGMENTS,
                       int(np.ceil(cover_s / SENTINEL_SEGMENT_S)))
        for _ in range(segments):
            piece = rng.integers(1000, 20000, segment).astype(np.int16)
            self.segments.append(piece)
            player.play(client.sound_from_samples(piece, PCM16_8K))
        loud.start_queue()
        self.sentinel = loud
        client.sync()
        self.server.hub.step(SETUP_BLOCKS)
        client.sync()
        self.rng = rng
        self.sentinel_capture = self.server.hub.find_device(
            "sentinel").capture

    def close(self) -> None:
        self.client.close()
        self.server.stop()


def build(seed: int, cover_s: float):
    return median_setup(lambda: Mix(seed, cover_s), Mix.close)


def measure(mix: Mix, seconds: float, result: Result) -> None:
    """Step the hub on the real-time schedule for ``seconds``."""
    server = mix.server
    hub = server.hub
    blocks = int(round(seconds / BLOCK_S))
    stop = threading.Event()
    probe_latencies: list[float] = []
    probe_state = {"attempted": 0, "failed": 0}
    errors: list[Exception] = []
    phases = stratified_phases(mix.rng, BLOCK_S)

    def probe_loop() -> None:
        try:
            while not stop.is_set():
                latency, own, _requests = mix.probe.run(next(phases))
                probe_state["attempted"] += 1
                if latency is None or not own:
                    probe_state["failed"] += 1
                else:
                    probe_latencies.append(latency)
        except Exception as exc:    # reported, then the run fails
            errors.append(exc)

    block_times: list[float] = []
    block_cpu: list[float] = []
    probe = threading.Thread(target=probe_loop, name="mix-probe")
    schedule = Schedule()
    probe.start()
    for block in range(WARMUP_BLOCKS):
        schedule.wait(block)
        hub.run_block()
    mix.probe.depth_max = 0
    schedule.lateness = []
    before = server.stats_snapshot()
    cpu_started = time.process_time()
    clock = time.perf_counter
    cpu_clock = time.process_time
    for block in range(WARMUP_BLOCKS, WARMUP_BLOCKS + blocks):
        schedule.wait(block)
        started, cpu_before = clock(), cpu_clock()
        hub.run_block()
        block_times.append(clock() - started)
        block_cpu.append(cpu_clock() - cpu_before)
    cpu = time.process_time() - cpu_started
    stop.set()
    # The probe may be waiting on the sample clock: keep stepping on
    # schedule until it finishes (its cost is outside the CPU window).
    block = WARMUP_BLOCKS + blocks
    while probe.is_alive() and block < WARMUP_BLOCKS + blocks + 200:
        schedule.wait(block)
        hub.run_block()
        block += 1
        probe.join(timeout=0)
    probe.join(timeout=5.0)
    after = server.stats_snapshot()
    if errors or probe.is_alive():
        raise RuntimeError("mix generator failed: %r" % (errors[:1],))

    streams = LOUDS + 1
    stream_seconds = streams * blocks * BLOCK_S
    ms = [value * 1000.0 for value in block_times]
    cpu_ms = [value * 1000.0 for value in block_cpu]
    starts = [value * 1000.0 for value in probe_latencies]
    result.attempted += blocks + probe_state["attempted"]
    result.fail(probe_state["failed"])
    # E2: every sentinel segment that fully played did so gaplessly.
    gaps = _sentinel_gaps(mix)
    result.check("sentinel gap samples are 0", gaps == 0)
    if gaps != 0:
        result.fail()
    frames = counter_delta(before, after, "audio.frames")
    stepped = (block - WARMUP_BLOCKS) * BLOCK
    result.check("rendered frames equal blocks x block frames",
                 frames == stepped)
    playing = sum(1 for loud in mix.louds + [mix.sentinel]
                  if loud.query_queue().running >= 1)
    result.check("every stream played throughout", playing == streams)
    result.check("every E1 probe hears its own sound",
                 probe_state["failed"] == 0)
    m = result.metrics
    m["block_p50_ms"] = Metric(percentile(ms, 50), "ms", len(ms),
                               "wall time to render one hub block")
    m["block_p90_ms"] = Metric(tail(ms, 90), "ms", len(ms),
                               "wall time to render one hub block, p90")
    m["block_cpu_p90_ms"] = Metric(tail(cpu_ms, 90), "ms", len(cpu_ms),
                                   "process CPU to render one block, p90")
    m["cpu_per_stream_ms"] = Metric(cpu * 1000.0 / stream_seconds, "ms/s",
                                    streams,
                                    "process CPU ms per stream-second")
    m["play_start_p50_ms"] = Metric(percentile(starts, 50), "ms",
                                    len(starts),
                                    "E1 Play -> first sample under load")
    m["play_start_p90_ms"] = Metric(tail(starts, 90), "ms", len(starts),
                                    "E1 Play -> first sample, p90")
    result.notes["lateness_ms"] = [value * 1000.0
                                   for value in schedule.lateness]
    result.notes["deadline_misses"] = sum(
        1 for value in block_times if value > BLOCK_S)
    result.notes["outbound_depth_max"] = mix.probe.depth_max
    result.notes["sentinel_gap_samples"] = gaps
    result.notes["stats_before"] = before
    result.notes["stats_after"] = after
    result.notes["wall_s"] = blocks * BLOCK_S


def _sentinel_gaps(mix: Mix) -> int:
    """Gap samples between the sentinel segments that fully played."""
    from repro.bench.harness import count_gap_samples

    heard = mix.sentinel_capture.samples()
    played, pieces = 0, []
    for piece in mix.segments:
        played += len(piece)
        if played + 4 * BLOCK > len(heard):
            break
        pieces.append(piece)
    if len(pieces) < 2:
        return -1
    return count_gap_samples(heard, pieces)
