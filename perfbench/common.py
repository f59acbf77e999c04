"""Pieces the three workloads share: the real-time block schedule, the
E1 probe, stats-snapshot deltas, the run fingerprint and the result
record each workload hands back to ``run.py``.
"""

from __future__ import annotations

import gc
import os
import platform
import statistics
import subprocess
import time
from dataclasses import dataclass, field

import numpy as np

#: Audio format every workload runs at: the paper's telephone rate with
#: 20 ms blocks.
RATE = 8000
BLOCK = 160
BLOCK_S = BLOCK / RATE

#: How many times a run builds its system; setup_s is the median, and
#: only the last build is measured.  The first build in a process also
#: pays for imports and first-use work, so the median is a warm build.
SETUPS = 5


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def commit(root: str) -> str:
    """The checkout's commit, or "unknown" outside a git work tree."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def fingerprint(root: str, workload: str, seed: int, seconds: float,
                trace: bool, sizes: dict) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "commit": commit(root),
        "sizes": sizes,
    }


@dataclass
class Metric:
    """One reported number with its unit and the samples behind it."""

    value: float
    unit: str
    samples: int
    meaning: str


@dataclass
class Result:
    """What one workload phase hands back."""

    metrics: dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: dict[str, bool] = field(default_factory=dict)
    notes: dict[str, object] = field(default_factory=dict)

    def fail(self, count: int = 1) -> None:
        self.failed += count

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    @property
    def correct(self) -> bool:
        return all(self.checks.values())


def median_setup(build, teardown,
                 setups: int = SETUPS) -> tuple[float, object]:
    """Build ``setups`` times, tear all but the last down; returns the
    median build time in seconds and the last build."""
    durations = []
    system = None
    for attempt in range(setups):
        started = time.perf_counter()
        system = build()
        durations.append(time.perf_counter() - started)
        if attempt + 1 < setups:
            teardown(system)
    # The discarded builds' garbage is collected now, not inside the
    # measured window.
    gc.collect()
    return statistics.median(durations), system


class Schedule:
    """A real-time block schedule: block k is due at origin + k * period.

    The generator sleeps to each deadline rather than a fixed amount per
    block, so lateness does not accumulate into drift; ``lateness``
    records how late each block actually started.
    """

    def __init__(self) -> None:
        self.period = BLOCK_S
        self.origin = time.perf_counter()
        self.lateness: list[float] = []

    def due(self, block: int) -> float:
        return self.origin + block * self.period

    def wait(self, block: int) -> float:
        """Sleep until block's deadline; returns the actual start time."""
        now = self.wait_until(block, 0.0)
        self.lateness.append(now - self.due(block))
        return now

    def wait_until(self, block: int, offset: float) -> float:
        """Sleep until ``offset`` seconds into block; returns the time."""
        deadline = self.due(block) + offset
        while True:
            now = time.perf_counter()
            if now >= deadline:
                return now
            time.sleep(min(deadline - now, 0.005))

    def offset(self, block: int, instant: float) -> float:
        """Seconds from block's scheduled start to ``instant``."""
        return instant - self.due(block)


def stratified_phases(rng, period: float, strata: int = 10):
    """Endless phases in [0, period): each run of ``strata`` phases has
    one in every stratum, in seeded order.

    Probes issued at these offsets after a block boundary sample the
    block period evenly, so their percentiles do not depend on where in
    the period a run's probes happened to land.
    """
    while True:
        for stratum in rng.permutation(strata):
            yield (stratum + rng.random()) / strata * period


def probe_sounds(rng, count: int, frames: int) -> list[np.ndarray]:
    """Distinct PCM16 probe sounds whose every sample is loud and nonzero,
    so the first nonzero sample at the speaker is the sound's first."""
    sounds = []
    for _ in range(count):
        magnitude = rng.integers(2000, 12000, frames)
        sign = rng.choice(np.array([-1, 1]), frames)
        sounds.append((magnitude * sign).astype(np.int16))
    return sounds


class E1Probe:
    """Play + StartQueue -> first nonzero sample at a dedicated speaker.

    The probe LOUD plays on a speaker no other stream feeds.  Each probe
    waits for a block boundary on the hub's sample clock, sleeps a
    stratified phase into the block period, then issues Play and
    StartQueue on the existing connection and wakes on every following
    block until the speaker's capture holds a nonzero sample.  The
    latency is wall time from the Play to that wake.
    """

    #: A probe that has not sounded by then counts as failed.
    TIMEOUT_S = 2.0
    #: Probes per probe LOUD.  Every Play stays in its queue's program
    #: for good, and a queue's per-block cost grows with that count, so
    #: the LOUD is replaced before it would slow the run down over time.
    PLAYS_PER_LOUD = 20

    def __init__(self, client, server, speaker_name: str,
                 sounds: list[np.ndarray]) -> None:
        from repro.protocol.types import PCM16_8K

        self.client = client
        self.clock = server.hub.clock
        self.speaker_name = speaker_name
        self.capture = server.hub.find_device(speaker_name).capture
        self.loud = None
        self._new_loud()
        self.server = server
        self.expected = sounds
        self.sounds = [client.sound_from_samples(samples, PCM16_8K)
                       for samples in sounds]
        self.index = 0
        #: (wall time, sample time) of every block boundary the probe
        #: woke on, and the deepest client outbound queue it saw.
        self.wakes: list[tuple[float, int]] = []
        self.depth_max = 0

    def _new_loud(self) -> None:
        from repro.protocol.types import DeviceClass

        if self.loud is not None:
            self.loud.unmap()
            self.loud.destroy()
        self.loud = self.client.create_loud()
        self.player = self.loud.create_device(DeviceClass.PLAYER)
        output = self.loud.create_device(DeviceClass.OUTPUT,
                                         {"name": self.speaker_name})
        self.loud.wire(self.player, 0, output, 0)
        self.loud.map()

    def _next_block(self) -> None:
        clock = self.clock
        clock.wait_until(clock.sample_time + 1, timeout=self.TIMEOUT_S)
        self.wakes.append((time.perf_counter(), clock.sample_time))

    def lateness_ms(self) -> list[float]:
        """How late each observed block boundary came, against the best
        schedule fitted under all of them (the earliest one sets it)."""
        if not self.wakes:
            return []
        behind = [wall - samples / RATE for wall, samples in self.wakes]
        origin = min(behind)
        return [(value - origin) * 1000.0 for value in behind]

    def run(self, phase: float) -> tuple[float | None, bool, int]:
        """One probe: (latency s or None, heard its own sound, requests)."""
        which = self.index % len(self.sounds)
        self.index += 1
        if self.index % self.PLAYS_PER_LOUD == 0:
            self._new_loud()
            self.client.sync()
        self._next_block()
        self.capture.clear()
        time.sleep(phase)
        started = time.perf_counter()
        self.player.play(self.sounds[which])
        self.loud.start_queue()
        latency = None
        heard = np.zeros(0, dtype=np.int16)
        while time.perf_counter() - started < self.TIMEOUT_S:
            self._next_block()
            heard = self.capture.samples()
            if np.any(heard):
                latency = time.perf_counter() - started
                break
        self.loud.stop_queue()
        self.loud.flush_queue()
        self.client.sync()
        self.depth_max = max([self.depth_max] + [
            client.queue_depth for client in self.server.clients_snapshot()])
        own = False
        if latency is not None:
            first = int(np.flatnonzero(heard)[0])
            got = heard[first:]
            want = self.expected[which][:len(got)]
            own = len(got) > 0 and np.array_equal(got, want)
        # play, start, stop, flush, sync
        return latency, own, 5


def counter_delta(before: dict, after: dict, name: str) -> int:
    return (after["counters"].get(name, 0)
            - before["counters"].get(name, 0))

