"""mesh: call churn across a three-exchange line A - B - C.

The line is built from registry discovery alone (zero static routes):
A hosts the registry and links to B, B links to C, and every route comes
from ROUTE_ADVERT propagation.  One thread ticks all three exchanges in
lockstep on a real-time schedule; the trunk links' socket threads have
the rest of each 20 ms period to move frames, so call setup and
mouth-to-ear do not race the stepping.  Seeded call pairs churn through
dial -> answer -> two-way talk -> hang up, spread across 0-, 1- and
2-hop destinations; half the pairs cross the tandem node B.

Call setup and mouth-to-ear are measured on the audio clock: whole
blocks and samples between the two instants, plus the wall-clock offset
inside each block at which the generator acted (``arith.audio_clock_ms``).
"""

from __future__ import annotations

import threading
import time

import numpy as np

from arith import audio_clock_ms, percentile, tail
from common import (
    BLOCK,
    BLOCK_S,
    RATE,
    Metric,
    Result,
    Schedule,
    counter_delta,
    median_setup,
)

NODES = "ABC"
PREFIXES = {"A": "1", "B": "2", "C": "3"}
#: Who initiates the trunk link to whom: the A - B - C line.
INITIATES = {"A": {"B"}, "B": {"C"}, "C": set()}
#: Node i ticks SLOT_S * i into each round.  A frame a node sends in
#: its tick has the gap to the next slot to cross the link, so it
#: reaches a node further along the line in the same round and one
#: earlier in the line in the next: hop timing is fixed by the
#: schedule, not by which thread wins a race.
SLOT_S = 0.006
PAIRS = 64
#: Hop class of each pair, in turn: half the pairs are 2-hop.
HOP_CYCLE = (2, 1, 2, 0)
TALK_BLOCKS = (30, 80)
IDLE_BLOCKS = (5, 25)
#: Silent blocks the caller sends before the marker block.
LEAD_BLOCKS = 2
#: A call that has not connected, or whose marker has not been heard,
#: within this many blocks counts as failed.
TIMEOUT_BLOCKS = 250
#: Rounds the pairs churn before the measured window opens.
WARMUP_BLOCKS = 50
#: Counters that must stay 0 on every node: lost, late or shed bearer
#: blocks and dropped line blocks (shed is counted in samples; a failed
#: operation is each block it touched).
LOSS_COUNTERS = ("trunk.jitter.lost_frames", "trunk.jitter.late_frames",
                 "trunk.jitter.shed_samples",
                 "trunk.outbound.shed_audio_frames",
                 "telephony.line.dropped_blocks")


def sizes() -> dict:
    return {"setups": SETUPS, "nodes": len(NODES), "pairs": PAIRS,
            "hop_cycle": list(HOP_CYCLE), "talk_blocks": list(TALK_BLOCKS),
            "idle_blocks": list(IDLE_BLOCKS), "slot_s": SLOT_S,
            "stepping_threads": 1,
            "block_frames": BLOCK, "sample_rate": RATE}


def _pump(exchanges, blocks: int = 1) -> None:
    """Unpaced lockstep ticks with a short yield (setup and drain)."""
    for _ in range(blocks):
        for exchange in exchanges.values():
            exchange.tick(BLOCK)
        time.sleep(0.002)


class Mesh:
    def __init__(self, seed: int) -> None:
        from repro.obs import MetricsRegistry
        from repro.telephony import TelephoneExchange
        from repro.trunk import TrunkGateway

        self.rng = np.random.default_rng(seed)
        self.registries = {name: MetricsRegistry() for name in NODES}
        self.exchanges = {name: TelephoneExchange(
            RATE, metrics=self.registries[name]) for name in NODES}
        self.gateways = {name: TrunkGateway(
            self.exchanges[name], name=name,
            metrics=self.registries[name]) for name in NODES}
        first = self.gateways[NODES[0]]
        first.enable_mesh(serve_registry=("127.0.0.1", 0),
                          prefixes=(PREFIXES[NODES[0]],),
                          neighbors=INITIATES[NODES[0]])
        first.start()
        host, port = first.mesh_snapshot()["serving_registry"].split(":")
        for name in NODES[1:]:
            self.gateways[name].enable_mesh(
                registry=(host, int(port)), prefixes=(PREFIXES[name],),
                neighbors=INITIATES[name])
            self.gateways[name].start()
        for _ in range(5000):
            if self.converged():
                break
            _pump(self.exchanges)
        else:
            raise RuntimeError("mesh never converged from discovery")
        self.pairs = [_Pair(self, index) for index in range(PAIRS)]
        self.block = self.first_block = 0

    def converged(self) -> bool:
        for name, gateway in self.gateways.items():
            for other, prefix in PREFIXES.items():
                if other != name and \
                        not gateway.table.candidates(prefix + "000")[0]:
                    return False
        return True

    def static_routes(self) -> int:
        return sum(len(gateway.routes) for gateway in self.gateways.values())

    def snapshots(self) -> dict[str, dict]:
        return {name: registry.snapshot()
                for name, registry in self.registries.items()}

    def close(self) -> None:
        # Each gateway stop waits out its own accept thread; stop them
        # side by side so teardown takes one wait, not three.
        threads = [threading.Thread(target=gateway.stop)
                   for gateway in self.gateways.values()]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)


#: Mesh builds per run: fewer than the other workloads because each
#: discarded build takes seconds to stop (the gateway's accept thread
#: only notices its closed listener at its join timeout).
SETUPS = 3


def build(seed: int, cover_s: float):
    """(median set-up seconds, the mesh); calls need no queued cover."""
    return median_setup(lambda: Mesh(seed), Mesh.close, SETUPS)


def _node_pair(rng, hops: int) -> tuple[str, str]:
    if hops == 0:
        node = NODES[int(rng.integers(3))]
        return node, node
    if hops == 2:
        # Mouth-to-ear is defined from A to C: one direction, so the
        # 2-hop figures are one population, not two.
        return NODES[0], NODES[2]
    start = int(rng.integers(2))
    ends = [NODES[start], NODES[start + 1]]
    if rng.random() < 0.5:
        ends.reverse()
    return ends[0], ends[1]


class _Pair:
    """One caller/callee pair and its call state machine."""

    IDLE, RINGING, ANSWERING, CONNECTING, TALK, HANGUP = range(6)

    def __init__(self, mesh: Mesh, index: int) -> None:
        rng = mesh.rng
        self.hops = HOP_CYCLE[index % len(HOP_CYCLE)]
        caller_node, callee_node = _node_pair(rng, self.hops)
        self.caller_ex = mesh.exchanges[caller_node]
        self.callee_ex = mesh.exchanges[callee_node]
        self.caller = self.caller_ex.add_line(
            "%s%03d" % (PREFIXES[caller_node], 2 * index))
        self.callee = self.callee_ex.add_line(
            "%s%03d" % (PREFIXES[callee_node], 2 * index + 1))
        self.rng = np.random.default_rng(rng.integers(1 << 32))
        self.state = self.IDLE
        self.cut = False
        self.call_failed = False
        self.next_start = int(self.rng.integers(*IDLE_BLOCKS))
        self.marker = self._loud_block()
        self.talk = self._loud_block()
        self.reply = self._loud_block()
        # mu-law decode(encode(x)) is a projection: trunked audio is
        # bit-identical to it however many tandem transcodes it crossed.
        if self.hops:
            from repro.dsp.encodings import mulaw_decode, mulaw_encode

            self.expected = mulaw_decode(mulaw_encode(self.marker))
            self.expected_reply = mulaw_decode(mulaw_encode(self.reply))
        else:
            self.expected = self.marker
            self.expected_reply = self.reply

    def _loud_block(self) -> np.ndarray:
        magnitude = self.rng.integers(2000, 12000, BLOCK)
        sign = self.rng.choice(np.array([-1, 1]), BLOCK)
        return (magnitude * sign).astype(np.int16)

    def _call_state(self, exchange, line):
        call = exchange.call_for(line)
        return None if call is None else call.state

    # -- before the round's ticks: speech ------------------------------------

    def speak(self, block: int, now_offset: float, run) -> None:
        """Talking pairs send one block each way.  Trunked audio is only
        staged here; each gateway ships it in its own tick."""
        if self.state != self.TALK:
            return
        talked = block - self.talk_start
        if talked < LEAD_BLOCKS:
            self.caller.send_audio(np.zeros(BLOCK, dtype=np.int16))
        elif talked == LEAD_BLOCKS:
            self.caller.send_audio(self.marker)
            self.marker_at = (block, now_offset)
            self.heard = []
        else:
            self.caller.send_audio(self.talk)
        self.callee.send_audio(self.reply)
        run.call_blocks += 1

    # -- after the round's ticks and observations: signaling ------------------

    def signal(self, block: int, now_offset: float, dialing: bool,
               run) -> None:
        """Dial, answer and hang up.  These send trunk signaling at once,
        so they run after every exchange has ticked: the frames then have
        the rest of the period to arrive and are handled next round,
        never raced against a tick in progress."""
        if self.state == self.IDLE:
            if dialing and block + 1 >= self.next_start:
                self.caller.off_hook()
                self.caller.dial(self.callee.number)
                self.dial_at = (block, now_offset)
                self.state = self.RINGING
                self.call_failed = False
                run.attempted += 1
        elif self.state == self.ANSWERING:
            self.callee.off_hook()
            self.state = self.CONNECTING
        elif self.state == self.TALK:
            talked = block + 1 - self.talk_start
            # A drain cuts a call short, but never with its marker in
            # flight.
            cut = not dialing and self.marker_state != "onset" and (
                self.marker_at is None or self.marker_state == "heard")
            if talked >= self.talk_blocks or cut:
                self.cut = talked < self.talk_blocks
                self.caller.on_hook()
                self.state = self.HANGUP
                self.hangup_at = block

    # -- after the round's ticks ----------------------------------------------

    def observe(self, block: int, now_offset: float, run) -> None:
        from repro.telephony.call import CallState

        heard_callee = self.callee.receive_audio(BLOCK)
        heard_caller = self.caller.receive_audio(BLOCK)
        if self.state in (self.RINGING, self.CONNECTING):
            if self._call_state(self.caller_ex, self.caller) is None:
                self._fail(run, "call failed")
            elif block - self.dial_at[0] > TIMEOUT_BLOCKS:
                self._fail(run, "setup timed out")
            elif self.state == self.RINGING and self.callee.ringing:
                self.state = self.ANSWERING
            elif (self.state == self.CONNECTING
                  and self._call_state(self.caller_ex, self.caller)
                  is CallState.CONNECTED):
                elapsed = audio_clock_ms(self.dial_at[0], self.dial_at[1],
                                         block, now_offset, BLOCK, RATE)
                run.setup_ms.setdefault(self.hops, []).append(elapsed)
                self.state = self.TALK
                self.talk_start = block + 1
                self.talk_blocks = int(self.rng.integers(*TALK_BLOCKS))
                self.marker_at = None
                self.marker_state = "waiting"
                self.reply_heard = False
        elif self.state == self.TALK:
            self._listen(block, now_offset, heard_callee, run)
            if not self.reply_heard:
                self.reply_heard = np.array_equal(heard_caller,
                                                  self.expected_reply)
        elif self.state == self.HANGUP:
            if (self._call_state(self.caller_ex, self.caller) is None
                    and self._call_state(self.callee_ex, self.callee)
                    is None):
                self.callee.on_hook()
                if self.marker_state == "heard" and not self.reply_heard \
                        and not self.cut:
                    # The far end spoke all call: the caller must have
                    # heard it, sample-exact, at least once.
                    self._fail(run, "reply never heard")
                    return
                if self.marker_state not in ("heard", "failed") and not (
                        self.cut and self.marker_at is None):
                    # A drain cut before the marker was spoken is no
                    # failure; a marker spoken and never heard is.
                    self._fail(run, "marker never heard")
                    return
                self.state = self.IDLE
                self.next_start = block + int(self.rng.integers(
                    *IDLE_BLOCKS))
            elif block - self.hangup_at > TIMEOUT_BLOCKS:
                self._fail(run, "hangup never cleared")

    def _listen(self, block: int, now_offset: float, heard: np.ndarray,
                run) -> None:
        if self.marker_at is None or self.marker_state == "heard":
            return
        if self.marker_state == "waiting":
            nonzero = np.flatnonzero(heard)
            if len(nonzero):
                onset = int(nonzero[0])
                elapsed = audio_clock_ms(self.marker_at[0],
                                         self.marker_at[1], block,
                                         now_offset, BLOCK, RATE,
                                         end_sample=onset)
                run.m2e_ms.setdefault(self.hops, []).append(elapsed)
                self.heard = [heard[onset:]]
                self.marker_state = "onset"
            else:
                if block - self.marker_at[0] > TIMEOUT_BLOCKS:
                    self._fail(run, "marker never heard")
                return
        else:
            self.heard.append(heard)
        got = np.concatenate(self.heard)
        if len(got) >= BLOCK:
            self.marker_state = "heard"
            if not np.array_equal(got[:BLOCK], self.expected):
                run.marker_mismatches += 1
                self._count_failure(run)

    def _count_failure(self, run) -> None:
        """A call fails once, however many of its checks it misses."""
        if not self.call_failed:
            self.call_failed = True
            run.failed += 1

    def _fail(self, run, why: str) -> None:
        self._count_failure(run)
        run.failures[why] = run.failures.get(why, 0) + 1
        self.caller.on_hook()
        self.callee.on_hook()
        self.state = self.HANGUP
        self.marker_state = "failed"
        self.hangup_at = 10 ** 9     # never re-fails; cleared next round


class _Run:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.call_blocks = 0
        self.marker_mismatches = 0
        self.failures: dict[str, int] = {}
        self.setup_ms: dict[int, list[float]] = {}
        self.m2e_ms: dict[int, list[float]] = {}


def _round(mesh: Mesh, schedule: Schedule, run: _Run,
           dialing: bool) -> None:
    """One lockstep round: talking pairs speak, every exchange ticks in
    its slot, pairs listen and watch call state, then dial, answer or
    hang up.  ``mesh.block`` numbers rounds across measure() calls."""
    block = mesh.block
    index = block - mesh.first_block
    started = schedule.wait(index)
    offset = schedule.offset(index, started)
    for pair in mesh.pairs:
        pair.speak(block, offset, run)
    for slot, exchange in enumerate(mesh.exchanges.values()):
        schedule.wait_until(index, slot * SLOT_S)
        exchange.tick(BLOCK)
    offset = schedule.offset(index, time.perf_counter())
    for pair in mesh.pairs:
        pair.observe(block, offset, run)
    offset = schedule.offset(index, time.perf_counter())
    for pair in mesh.pairs:
        pair.signal(block, offset, dialing, run)
    mesh.block += 1


def measure(mesh: Mesh, seconds: float, result: Result) -> None:
    blocks = int(round(seconds / BLOCK_S))
    schedule = Schedule()
    mesh.first_block = mesh.block
    warm = _Run()
    for _ in range(WARMUP_BLOCKS):
        _round(mesh, schedule, warm, True)
    before = mesh.snapshots()
    run = _Run()
    # Calls already in flight when the window opens count as attempts
    # in it, so every failure has its attempt.
    run.attempted = sum(1 for pair in mesh.pairs if pair.state != _Pair.IDLE)
    schedule.lateness = []
    cpu_started = time.process_time()
    for _ in range(blocks):
        _round(mesh, schedule, run, True)
    cpu = time.process_time() - cpu_started
    lateness = schedule.lateness
    # Drain: every pair hangs up; in-flight calls finish outside the
    # measured window so their loss counters are final.
    drain = _Run()
    deadline = mesh.block + 2 * TIMEOUT_BLOCKS
    while (any(pair.state != _Pair.IDLE for pair in mesh.pairs)
           and mesh.block < deadline):
        _round(mesh, schedule, drain, False)
    _pump(mesh.exchanges, 10)
    after = mesh.snapshots()
    stuck = sum(1 for pair in mesh.pairs if pair.state != _Pair.IDLE)

    call_seconds = run.call_blocks * BLOCK_S
    setup = run.setup_ms.get(2, [])
    m2e = run.m2e_ms.get(2, [])
    # Operations: every call, and every block either end spoke.
    result.attempted += run.attempted + 2 * run.call_blocks
    result.fail(run.failed + drain.failed + stuck)
    losses = {name: sum(counter_delta(before[node], after[node], name)
                        for node in NODES) for name in LOSS_COUNTERS}
    lost = sum(-(-count // BLOCK) if name.endswith("_samples") else count
               for name, count in losses.items())
    result.check("zero static routes", mesh.static_routes() == 0)
    result.check("every call connects and both ends hear each other",
                 run.failed + drain.failed + stuck == 0)
    result.check("2-hop marker equals its mu-law round trip",
                 run.marker_mismatches + drain.marker_mismatches == 0)
    result.check("zero lost, late or shed blocks; zero dropped line "
                 "blocks", lost == 0)
    if lost:
        result.fail(lost)
    m = result.metrics
    m["call_setup_p50_ms"] = Metric(percentile(setup, 50), "ms", len(setup),
                                    "dial -> CONNECTED at the caller, "
                                    "2-hop")
    m["call_setup_p90_ms"] = Metric(tail(setup, 90), "ms", len(setup),
                                    "dial -> CONNECTED, 2-hop, p90")
    m["m2e_p50_ms"] = Metric(percentile(m2e, 50), "ms", len(m2e),
                             "mouth-to-ear, 2-hop")
    m["m2e_p90_ms"] = Metric(tail(m2e, 90), "ms", len(m2e),
                             "mouth-to-ear, 2-hop, p90")
    m["cpu_per_call_ms"] = Metric(cpu * 1000.0 / call_seconds, "ms/s",
                                  run.call_blocks,
                                  "process CPU ms per call-second")
    result.notes["lateness_ms"] = [value * 1000.0 for value in lateness]
    result.notes["losses"] = losses
    failures = dict(run.failures)
    for why, count in drain.failures.items():
        failures[why] = failures.get(why, 0) + count
    result.notes["failures"] = failures
    result.notes["by_hops"] = {
        hops: {"setup_p50_ms": percentile(run.setup_ms[hops], 50),
               "m2e_p50_ms": percentile(run.m2e_ms[hops], 50),
               "calls": len(run.setup_ms[hops])}
        for hops in sorted(run.setup_ms) if run.m2e_ms.get(hops)}
    result.notes["call_seconds"] = call_seconds
    result.notes["stats_before"] = before
    result.notes["stats_after"] = after
    result.notes["wall_s"] = blocks * BLOCK_S
