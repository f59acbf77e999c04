"""Parallel rendering: byte-equivalence with the serial oracle.

The procs render backend's contract is strong: whatever the worker
count, the device output and the client-visible event order must be
*identical* to the serial block cycle.  These tests build randomized
wire graphs (many LOUDs, mixed players/recorders, sync marks firing
mid-consume), drive a manually-stepped hub through both paths, and
compare byte-for-byte.
"""

import itertools

import numpy as np
import pytest

from repro.alib import AudioClient
from repro.dsp import tones
from repro.hardware import HardwareConfig, InjectedSource
from repro.protocol.types import (
    DeviceClass,
    EventMask,
    PCM16_8K,
    RecordTermination,
)
from repro.server import AudioServer
from repro.server import qprogram
from repro.server.render_proc import ProcessRenderPool

BLOCKS = 160
WORKERS = 4     # forced >= 2 so the procs path runs even on 1-core CI


def _build_random_graphs(client, server, rng, loud_count):
    """Randomized but seed-deterministic wire graphs across many LOUDs."""
    take_sounds = []
    for index in range(loud_count):
        loud = client.create_loud()
        loud.select_events(EventMask.QUEUE | EventMask.PLAYER
                           | EventMask.RECORDER | EventMask.SYNC)
        if rng.integers(0, 4) == 0:
            # A recording LOUD: microphone -> recorder.
            microphone = loud.create_device(DeviceClass.INPUT)
            recorder = loud.create_device(DeviceClass.RECORDER)
            loud.wire(microphone, 0, recorder, 0)
            loud.map()
            take = client.create_sound(PCM16_8K)
            recorder.record(
                take, termination=int(RecordTermination.MAX_LENGTH),
                max_length_ms=int(rng.integers(200, 800)))
            take_sounds.append(take)
        else:
            # A playback LOUD: one or two players into one output.
            output = loud.create_device(DeviceClass.OUTPUT)
            for _ in range(int(rng.integers(1, 3))):
                player = loud.create_device(DeviceClass.PLAYER)
                loud.wire(player, 0, output, 0)
                tone = (np.sin(np.arange(4000)
                               * (0.01 + 0.004 * index))
                        * 11000).astype(np.int16)
                sound = client.sound_from_samples(tone)
                # Sync marks make the players emit events *during*
                # consume -- the deferred-replay path under test.
                player.play(sound, sync_interval_ms=60)
            loud.map()
        loud.start_queue()
    return take_sounds


def _run_scenario(backend, seed, loud_count=8):
    """One full run; returns (speaker bytes, events, takes, snapshot)."""
    # Command serials come from a process-global counter; restart it so
    # event details compare exactly across the two runs.
    qprogram._serials = itertools.count(1)
    server = AudioServer(HardwareConfig(), render_workers=WORKERS,
                         render_min_rows=2, render_backend=backend)
    server.start(start_hub=False)   # manual stepping: deterministic time
    client = AudioClient(port=server.port, client_name="equiv")
    try:
        if backend == "procs":
            # Every measured tick must already be parallel.
            assert server.render_pool.wait_ready(30.0) == WORKERS
        server.hub.rooms["desktop"].inject(InjectedSource(
            tones.sine(313.0, 1.0, 8000), repeat=True))
        rng = np.random.default_rng(seed)
        takes = _build_random_graphs(client, server, rng, loud_count)
        client.sync()
        server.hub.step(BLOCKS)
        client.sync()       # tick events precede the reply on the wire
        captured = server.hub.speakers[0].capture.samples().copy()
        events = [(event.code, event.resource, event.detail,
                   event.sample_time)
                  for event in client.pending_events()]
        recordings = [take.read() for take in takes]
        snapshot = server.stats_snapshot()
        return captured, events, recordings, snapshot
    finally:
        client.close()
        server.stop()


class TestParallelSerialEquivalence:
    @pytest.mark.parametrize("seed", [3, 17, 41])
    def test_output_and_events_byte_identical(self, seed):
        serial = _run_scenario("serial", seed=seed)
        parallel = _run_scenario("procs", seed=seed)
        # Device output: bit-identical speaker capture.
        assert np.array_equal(serial[0], parallel[0])
        # Client-visible events: same events, same order.
        assert serial[1] == parallel[1]
        assert len(serial[1]) > 0
        # Recorded takes: byte-identical.
        assert serial[2] == parallel[2]
        # The parallel run really used the pool; the serial run never did.
        assert parallel[3]["counters"]["renderproc.rows"] > 0
        assert parallel[3]["counters"]["renderproc.parallel_ticks"] > 0
        assert serial[3]["counters"].get("renderproc.rows", 0) == 0

    def test_small_plans_fall_back_to_serial(self):
        server = AudioServer(HardwareConfig(), render_workers=2,
                             render_min_rows=4, render_backend="procs")
        server.start(start_hub=False)
        client = AudioClient(port=server.port, client_name="small")
        try:
            assert server.render_pool.wait_ready(30.0) == 2
            loud = client.create_loud()
            player = loud.create_device(DeviceClass.PLAYER)
            output = loud.create_device(DeviceClass.OUTPUT)
            loud.wire(player, 0, output, 0)
            loud.map()
            client.sync()
            server.hub.step(20)
            counters = server.stats_snapshot()["counters"]
            assert counters["renderproc.serial_ticks"] >= 20
            assert counters.get("renderproc.parallel_ticks", 0) == 0
        finally:
            client.close()
            server.stop()


class TestRenderPoolUnits:
    def test_disabled_below_two_workers(self):
        server = AudioServer(HardwareConfig(), render_workers=1,
                             render_backend="procs")
        assert not server.render_pool.enabled
        server.start(start_hub=False)
        try:
            # A disabled pool spawns no worker and every tick stays on
            # the serial path.
            assert server.render_pool._workers == []
            server.hub.step(5)
            counters = server.stats_snapshot()["counters"]
            assert counters["renderproc.serial_ticks"] == 5
        finally:
            server.stop()

    def test_replay_preserves_order_and_serial_error_semantics(self):
        server = AudioServer(HardwareConfig())
        pool = ProcessRenderPool(server, workers=4, min_rows=2)
        calls = []

        def record(tag):
            calls.append(tag)

        boom = RuntimeError("row exploded")
        results = {
            0: ([(record, ("a",)), (record, ("b",))], None),
            1: ([(record, ("c",))], boom),
            2: ([(record, ("d",))], None),  # after the error: suppressed
        }
        with pytest.raises(RuntimeError, match="row exploded"):
            pool._replay([None] * len(results), results)
        assert calls == ["a", "b", "c"]
        pool.shutdown()

    def test_event_deferral_buffers_and_replays(self):
        server = AudioServer(HardwareConfig())
        router = server.events
        delivered = server.metrics.counter("events.total")
        buffer = router.start_deferred()
        try:
            router.emit_stream_hungry(_FakeSound(99))
        finally:
            router.stop_deferred()
        assert len(buffer) == 1             # captured, not delivered
        assert delivered.value == 0
        fn, fn_args = buffer[0]
        fn(*fn_args)                        # replay takes the normal path
        assert delivered.value == 1


class _FakeSound:
    def __init__(self, sound_id):
        self.sound_id = sound_id
        self.stream_space = 320
