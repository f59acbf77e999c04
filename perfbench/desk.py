"""desk: application sessions against a server with its own real-time hub.

Closed loop over at most ``nproc`` connections.  Connection 0 runs the
E1 probes on a speaker nothing else feeds; every other connection loops
a seeded application session (create a LOUD, add a player and an
output, wire them, select events and map; play; QueryServer, GetTime,
QueryLoud; unmap and destroy).  A few background LOUDs keep playing
throughout.  With a single connection it alternates probes and
sessions.

The hub runs in the server's own thread on the real-time pacer, so
request latency is never timed against a free-running virtual hub.
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
    counter_delta,
    median_setup,
    nproc,
    probe_sounds,
    stratified_phases,
)

BACKGROUND_LOUDS = 4
#: Each background LOUD queues BACKGROUND_PLAYS of a 4 s sound: a fixed
#: count (see mix.PLAYS for why), enough for a traced run.
BACKGROUND_SOUND_S = 4
BACKGROUND_PLAYS = 12
SESSION_SOUNDS = 3
PROBE_SOUNDS = 4
#: Mean think time between a connection's sessions (exponential,
#: seeded).  The loop stays closed -- each session starts after the last
#: reply -- but at a user's pace, so latency is the system's service
#: time rather than a convoy of generator threads behind one GIL.
THINK_S = 0.010


def sizes() -> dict:
    connections = min(nproc(), 4)
    return {"setups": SETUPS, "connections": connections,
            "session_connections": max(1, connections - 1),
            "background_louds": BACKGROUND_LOUDS,
            "background_plays": BACKGROUND_PLAYS,
            "session_sounds": SESSION_SOUNDS,
            "probe_sounds": PROBE_SOUNDS, "think_s": THINK_S}


class Desk:
    def __init__(self, seed: int, cover_s: float) -> None:
        from repro.alib.api import AudioClient
        from repro.hardware.config import HardwareConfig, SpeakerSpec
        from repro.protocol.types import (
            MULAW_8K,
            PCM16_8K,
            DeviceClass,
        )
        from repro.server.core import AudioServer

        rng = np.random.default_rng(seed)
        config = HardwareConfig(
            speakers=(SpeakerSpec("speaker-0"), SpeakerSpec("probe")))
        self.server = AudioServer(config, realtime=True)
        self.server.start()
        self.clients = [AudioClient(port=self.server.port,
                                    client_name="desk-%d" % index)
                        for index in range(sizes()["connections"])]
        probe_client = self.clients[0]
        self.probe = E1Probe(probe_client, self.server, "probe",
                             probe_sounds(rng, PROBE_SOUNDS, 800))
        # Background streams: long mu-law queues on the shared speaker.
        frames = RATE * BACKGROUND_SOUND_S
        tone = (np.sin(np.arange(frames) * 2 * np.pi * 440 / RATE)
                * 3000).astype(np.int16)
        background = probe_client.sound_from_samples(tone, MULAW_8K)
        plays = max(BACKGROUND_PLAYS,
                    int(np.ceil(cover_s / BACKGROUND_SOUND_S)))
        for _ in range(BACKGROUND_LOUDS):
            loud = probe_client.create_loud()
            player = loud.create_device(DeviceClass.PLAYER)
            output = loud.create_device(DeviceClass.OUTPUT,
                                        {"name": "speaker-0"})
            loud.wire(player, 0, output, 0)
            loud.map()
            for _ in range(plays):
                player.play(background)
            loud.start_queue()
        # Each session connection uploads its own short sounds.
        self.session_clients = (self.clients[1:] or self.clients)
        self.session_sounds = {}
        for client in self.session_clients:
            self.session_sounds[id(client)] = [
                client.sound_from_samples(
                    rng.integers(-4000, 4000, int(RATE * 0.25))
                    .astype(np.int16), PCM16_8K)
                for _ in range(SESSION_SOUNDS)]
        for client in self.clients:
            client.sync()
        self.rng = rng

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.server.stop()


def build(seed: int, cover_s: float):
    return median_setup(lambda: Desk(seed, cover_s), Desk.close)


class _Session:
    """One connection's closed loop; results merged after the run."""

    def __init__(self, client, sounds, rng) -> None:
        self.client = client
        self.sounds = sounds
        self.rng = rng
        #: (start, seconds) of every request -> reply round trip.
        self.round_trips: list[tuple[float, float]] = []
        self.requests = 0
        self.failed = 0
        self.last_time = -1

    def run_once(self) -> None:
        from repro.protocol.requests import (
            GetTimeReply,
            QueryLoudReply,
            QueryServerReply,
        )
        from repro.protocol.types import DeviceClass, EventMask

        client = self.client
        trips = self.round_trips
        clock = time.perf_counter
        sound = self.sounds[int(self.rng.integers(len(self.sounds)))]

        started = clock()
        loud = client.create_loud()
        player = loud.create_device(DeviceClass.PLAYER)
        output = loud.create_device(DeviceClass.OUTPUT,
                                    {"name": "speaker-0"})
        loud.wire(player, 0, output, 0)
        loud.select_events(EventMask.QUEUE)
        loud.map()
        client.sync()
        trips.append((started, clock() - started))

        started = clock()
        player.play(sound)
        loud.start_queue()
        client.sync()
        trips.append((started, clock() - started))

        started = clock()
        info = client.server_info()
        trips.append((started, clock() - started))
        started = clock()
        now = client.time()
        trips.append((started, clock() - started))
        started = clock()
        state = loud.query()
        trips.append((started, clock() - started))

        started = clock()
        loud.unmap()
        loud.destroy()
        client.sync()
        trips.append((started, clock() - started))

        self.requests += 16
        mismatched = 0
        if not (isinstance(info, QueryServerReply)
                and info.sample_rate == RATE
                and info.block_frames == BLOCK):
            mismatched += 1
        if not (isinstance(now, GetTimeReply)
                and now.sample_time >= self.last_time):
            mismatched += 1
        self.last_time = getattr(now, "sample_time", self.last_time)
        if not (isinstance(state, QueryLoudReply) and state.mapped
                and len(state.devices) == 2):
            mismatched += 1
        errors = client.conn.errors
        if errors:
            mismatched += len(errors)
            errors.clear()
        client.conn.pending_events()
        self.failed += mismatched
        time.sleep(self.rng.exponential(THINK_S))


def measure(desk: Desk, seconds: float, result: Result) -> None:
    """Run the closed loop for ``seconds`` and fill ``result``."""
    stop = threading.Event()
    server = desk.server
    sessions = [_Session(client, desk.session_sounds[id(client)],
                         np.random.default_rng(desk.rng.integers(1 << 32)))
                for client in desk.session_clients]
    probe_latencies: list[float] = []
    probe_state = {"attempted": 0, "failed": 0, "requests": 0}
    alternate = len(desk.clients) == 1
    errors: list[Exception] = []

    def probe_loop() -> None:
        phases = stratified_phases(desk.rng, BLOCK_S)
        try:
            while not stop.is_set():
                latency, own, requests = desk.probe.run(next(phases))
                probe_state["attempted"] += 1
                probe_state["requests"] += requests
                if latency is None or not own:
                    probe_state["failed"] += 1
                else:
                    probe_latencies.append(latency)
                if alternate and not stop.is_set():
                    sessions[0].run_once()
        except Exception as exc:    # reported, then the run fails
            errors.append(exc)

    def session_loop(session: _Session) -> None:
        try:
            while not stop.is_set():
                session.run_once()
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=probe_loop, name="desk-probe")]
    if not alternate:
        threads += [threading.Thread(target=session_loop, args=(session,),
                                     name="desk-session-%d" % index)
                    for index, session in enumerate(sessions)]
    desk.probe.wakes = []
    desk.probe.depth_max = 0
    before = server.stats_snapshot()
    cpu_started = time.process_time()
    wall_started = time.perf_counter()
    for thread in threads:
        thread.start()
    time.sleep(seconds)
    stop.set()
    for thread in threads:
        thread.join(timeout=30.0)
    wall = time.perf_counter() - wall_started
    cpu = time.process_time() - cpu_started
    after = server.stats_snapshot()
    if errors or any(thread.is_alive() for thread in threads):
        raise RuntimeError("desk generator failed: %r" % (errors[:1],))

    trips = sorted(trip for session in sessions
                   for trip in session.round_trips)
    requests = (sum(session.requests for session in sessions)
                + probe_state["requests"])
    ms = [duration * 1000.0 for _started, duration in trips]
    starts = [latency * 1000.0 for latency in probe_latencies]
    result.attempted += requests + probe_state["attempted"]
    result.fail(sum(session.failed for session in sessions)
                + probe_state["failed"])
    error_replies = counter_delta(before, after, "request_errors.total")
    result.check("no error replies", error_replies == 0)
    result.check("every reply matches its request",
                 all(session.failed == 0 for session in sessions))
    result.check("every E1 probe hears its own sound",
                 probe_state["failed"] == 0)
    m = result.metrics
    m["req_p50_ms"] = Metric(percentile(ms, 50), "ms", len(ms),
                             "request -> reply round trip, p50")
    m["req_p90_ms"] = Metric(tail(ms, 90), "ms", len(ms),
                             "request -> reply round trip, p90")
    m["req_p99_ms"] = Metric(tail(ms, 99), "ms", len(ms),
                             "request -> reply round trip, p99")
    m["req_per_s"] = Metric(len(ms) / wall, "1/s", len(ms),
                            "replies completed per second")
    m["play_start_p50_ms"] = Metric(percentile(starts, 50), "ms",
                                    len(starts), "E1 Play -> first sample")
    m["play_start_p90_ms"] = Metric(tail(starts, 90), "ms", len(starts),
                                    "E1 Play -> first sample, p90")
    m["cpu_per_request_ms"] = Metric(cpu * 1000.0 / max(1, requests), "ms",
                                     requests,
                                     "process CPU ms per request")
    result.notes["lateness_ms"] = desk.probe.lateness_ms()
    result.notes["outbound_depth_max"] = desk.probe.depth_max
    result.notes["requests"] = requests
    result.notes["wall_s"] = wall
    result.notes["stats_before"] = before
    result.notes["stats_after"] = after
