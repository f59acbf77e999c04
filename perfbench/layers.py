"""Per-layer metrics for the traced run.

Two sources, both read from outside the program:

* **spans** -- :class:`spans.Tracer` wraps each layer's public entry
  point where its caller binds it (``TARGETS``); each span name yields
  its mean self time per call and its call rate;
* **counters** -- deltas of the metrics registry between the start and
  end of the traced phase (``stats_snapshot()`` on the audio server,
  ``MetricsRegistry.snapshot()`` on each mesh node).

Every workload reports every metric; a layer a workload does not
exercise reads 0 there, and so does a span whose target no longer
exists.  ``COUNTER_METRICS`` names, for each counter metric, the layer
and the end-to-end metric it should move (README.md has the full map).
"""

from __future__ import annotations

from arith import percentile

#: (span name, module:attribute the caller binds).  Methods are wrapped
#: on the class that defines them; functions on the module their caller
#: looks them up through.
TARGETS = (
    ("protocol.message_encode", "repro.protocol.wire:Message.encode"),
    ("protocol.request_encode", "repro.protocol.requests:Request.encode"),
    ("protocol.reply_encode", "repro.protocol.requests:Reply.encode"),
    ("protocol.request_decode", "repro.protocol.requests:decode_request"),
    ("alib.round_trip",
     "repro.alib.connection:AudioConnection.round_trip"),
    ("alib.send", "repro.alib.connection:AudioConnection.send"),
    ("server.dispatch.batch", "repro.server.core:AudioServer.dispatch_batch"),
    ("server.dispatch.handle", "repro.server.dispatch:Dispatcher.handle"),
    ("server.dispatch.handle_unlocked",
     "repro.server.dispatch:Dispatcher.handle_unlocked"),
    ("server.clients.send_reply",
     "repro.server.clients:ClientConnection.send_reply"),
    ("server.core.query_snapshot",
     "repro.server.core:AudioServer.query_snapshot"),
    ("hardware.run_block", "repro.hardware.hub:AudioHub.run_block"),
    ("server.render_pool.render",
     "repro.server.render_pool:RenderPool.render"),
    ("server.conductor.tick_pre",
     "repro.server.conductor:CommandQueue.tick_pre"),
    ("server.conductor.tick_post",
     "repro.server.conductor:CommandQueue.tick_post"),
    ("server.events.flush",
     "repro.server.events:EventRouter.flush_tick_batch"),
    ("server.sounds.decoded", "repro.server.sounds:Sound.decoded"),
    ("dsp.decode", "repro.dsp.encodings:decode"),
    ("dsp.resample", "repro.server.vdevices.player:resample"),
    ("dsp.mix", "repro.dsp.mixing:mix"),
    ("dsp.mulaw_encode", "repro.trunk.gateway:mulaw_encode"),
    ("telephony.exchange.tick",
     "repro.telephony.exchange:TelephoneExchange.tick"),
    ("trunk.gateway.tick", "repro.trunk.gateway:TrunkGateway.tick"),
    ("trunk.link.send_batch", "repro.trunk.link:TrunkLink.send_batch"),
    ("trunk.wire.encode_audio_batch_into",
     "repro.trunk.link:encode_audio_batch_into"),
    ("trunk.jitter.push", "repro.trunk.jitter:JitterBuffer.push"),
    ("trunk.jitter.pop", "repro.trunk.jitter:JitterBuffer.pop"),
    ("trunk.jitter.pop_raw", "repro.trunk.jitter:JitterBuffer.pop_raw"),
    ("trunk.routing.candidates",
     "repro.trunk.routing:RouteTable.candidates"),
)

#: Span names that also report their p99 self time.
P99_SPANS = ("server.dispatch.handle", "server.dispatch.handle_unlocked",
             "hardware.run_block", "trunk.gateway.tick")

#: (metric, unit, layer, should move): the counter-derived metrics.
COUNTER_METRICS = (
    ("dispatch.batch_size_mean", "count", "server.dispatch",
     "req_p50_ms, req_per_s on desk"),
    ("querysnapshot.rebuilds_per_1k_req", "1/kreq", "server.dispatch",
     "req_p50_ms, req_per_s on desk"),
    ("lock.wait_us_mean", "us/call", "server.locks", "req_p99_ms on desk"),
    ("lock.hold_us_mean", "us/call", "server.locks", "req_p99_ms on desk"),
    ("clients.outbound.depth_max", "count", "server.clients",
     "req_p99_ms on desk"),
    ("clients.outbound.dropped_events", "count", "server.clients",
     "req_p99_ms on desk"),
    ("tick.render_us_mean", "us/call", "server.core",
     "block_p50_ms, cpu_per_stream_ms on mix; req_p99_ms on desk"),
    ("tick.flush_us_mean", "us/call", "server.core",
     "block_p50_ms on mix; play_start_* on desk"),
    ("renderplan.rebuilds_per_1k_ticks", "1/ktick", "server.core",
     "block_p50_ms on mix; req_p99_ms on desk"),
    ("renderpool.parallel_tick_pct", "%", "server.render_pool",
     "cpu_per_stream_ms on mix"),
    ("renderpool.imbalance", "ratio", "server.render_pool",
     "cpu_per_stream_ms on mix"),
    ("sounds.decode_cache.hit_pct", "%", "server.sounds",
     "cpu_per_stream_ms, setup_s on mix"),
    ("conductor.gap_samples", "count", "server.conductor",
     "must stay 0 (E2) on mix"),
    ("events.delivered_per_s", "1/s", "server.events",
     "play_start_* on desk"),
    ("events.coalesced_per_s", "1/s", "server.events",
     "play_start_* on desk"),
    ("hardware.lateness_p90_ms", "ms", "hardware",
     "health: well under a block on mix and mesh"),
    ("telephony.line.dropped_blocks", "count", "telephony",
     "must stay 0 on mesh"),
    ("trunk.link.sendalls_per_call_s", "1/s", "trunk.link",
     "cpu_per_call_ms on mesh"),
    ("trunk.link.recvs_per_call_s", "1/s", "trunk.link",
     "cpu_per_call_ms on mesh"),
    ("trunk.batch.entries_per_call_s", "1/s", "trunk.gateway",
     "cpu_per_call_ms on mesh"),
    ("trunk.jitter.underruns", "count", "trunk.jitter", "m2e_* on mesh"),
    ("trunk.jitter.lost_frames", "count", "trunk.jitter",
     "must stay 0 on mesh"),
    ("trunk.jitter.late_frames", "count", "trunk.jitter",
     "must stay 0 on mesh"),
    ("trunk.jitter.shed_samples", "count", "trunk.jitter",
     "must stay 0 on mesh"),
    ("trunk.route.tandem_calls", "count", "trunk.routing",
     "call_setup_* on mesh"),
    ("trunk.route.failovers", "count", "trunk.routing",
     "call_setup_* on mesh"),
)


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    names = []
    for span, _target in TARGETS:
        names.append((span + ".self_us", "us/call"))
        names.append((span + ".calls_per_s", "1/s"))
        if span in P99_SPANS:
            names.append((span + ".self_us_p99", "us/call"))
    names += [(name, unit) for name, unit, _layer, _moves in COUNTER_METRICS]
    return names


def install(tracer) -> list[str]:
    """Wrap every target; returns the spans whose target is gone."""
    return [span for span, target in TARGETS
            if not tracer.wrap(target, span)]


def _merged(snapshots) -> dict:
    """Sum counters and histogram sums/counts over several registries."""
    merged = {"counters": {}, "gauges": {}, "histograms": {}}
    for snapshot in snapshots:
        for name, value in snapshot["counters"].items():
            merged["counters"][name] = merged["counters"].get(name, 0) + value
        for name, value in snapshot["gauges"].items():
            merged["gauges"][name] = max(merged["gauges"].get(name, 0.0),
                                         value)
        for name, value in snapshot["histograms"].items():
            into = merged["histograms"].setdefault(name,
                                                   {"sum": 0.0, "count": 0})
            into["sum"] += value["sum"]
            into["count"] += value["count"]
    return merged


def _as_registry(snapshot) -> dict:
    """An audio-server stats snapshot, or a name -> snapshot mapping of
    mesh nodes, as one registry-shaped dict."""
    if "counters" in snapshot:
        return snapshot
    return _merged(snapshot.values())


def compute(tracer, notes: dict, wall_s: float) -> dict[str, float]:
    """Every per-layer metric value for one traced phase.

    Span rates are per second of the traced phase (``wall_s``, warm-up
    and drain included, as the spans are); counter rates are per second
    of the measured window the snapshots bracket (``notes["wall_s"]``).
    """
    values: dict[str, float] = {}
    self_times = tracer.self_times()
    for span, _target in TARGETS:
        samples = self_times.get(span, [])
        mean = sum(samples) / len(samples) * 1e6 if samples else 0.0
        values[span + ".self_us"] = mean
        values[span + ".calls_per_s"] = len(samples) / wall_s
        if span in P99_SPANS:
            values[span + ".self_us_p99"] = (
                percentile(samples, 99) * 1e6 if samples else 0.0)
    before = _as_registry(notes["stats_before"])
    after = _as_registry(notes["stats_after"])

    def delta(name: str) -> float:
        return (after["counters"].get(name, 0)
                - before["counters"].get(name, 0))

    def mean(name: str) -> float:
        old = before["histograms"].get(name, {"sum": 0.0, "count": 0})
        new = after["histograms"].get(name, {"sum": 0.0, "count": 0})
        count = new["count"] - old["count"]
        return (new["sum"] - old["sum"]) / count if count else 0.0

    def per(numerator: float, denominator: float, scale: float = 1.0):
        return numerator * scale / denominator if denominator else 0.0

    ticks = delta("renderplan.ticks")
    call_s = notes.get("call_seconds", 0.0)
    values["dispatch.batch_size_mean"] = mean("dispatch.batch_size")
    values["querysnapshot.rebuilds_per_1k_req"] = per(
        delta("querysnapshot.rebuilds"), delta("requests.total"), 1000.0)
    values["lock.wait_us_mean"] = mean("lock.wait_us")
    values["lock.hold_us_mean"] = mean("lock.hold_us")
    values["clients.outbound.depth_max"] = notes.get("outbound_depth_max", 0)
    values["clients.outbound.dropped_events"] = delta(
        "clients.outbound.dropped_events")
    values["tick.render_us_mean"] = mean("tick.render_us")
    values["tick.flush_us_mean"] = mean("tick.flush_us")
    values["renderplan.rebuilds_per_1k_ticks"] = per(
        delta("renderplan.rebuilds"), ticks, 1000.0)
    parallel = delta("renderpool.parallel_ticks")
    values["renderpool.parallel_tick_pct"] = per(
        parallel, parallel + delta("renderpool.serial_ticks"), 100.0)
    values["renderpool.imbalance"] = after["gauges"].get(
        "renderpool.imbalance", 0.0)
    hits = delta("sounds.decode_cache.hits")
    values["sounds.decode_cache.hit_pct"] = per(
        hits, hits + delta("sounds.decode_cache.misses"), 100.0)
    # -1 when a sentinel segment never played at all.
    values["conductor.gap_samples"] = notes.get("sentinel_gap_samples", 0)
    window = notes["wall_s"]
    values["events.delivered_per_s"] = delta("events.delivered") / window
    values["events.coalesced_per_s"] = delta("events.coalesced") / window
    lateness = notes.get("lateness_ms") or [0.0]
    values["hardware.lateness_p90_ms"] = percentile(lateness, 90)
    values["telephony.line.dropped_blocks"] = delta(
        "telephony.line.dropped_blocks")
    values["trunk.link.sendalls_per_call_s"] = per(
        delta("trunk.link.sendalls"), call_s)
    values["trunk.link.recvs_per_call_s"] = per(
        delta("trunk.link.recvs"), call_s)
    values["trunk.batch.entries_per_call_s"] = per(
        delta("trunk.batch.entries_out"), call_s)
    for name in ("underruns", "lost_frames", "late_frames", "shed_samples"):
        values["trunk.jitter." + name] = delta("trunk.jitter." + name)
    values["trunk.route.tandem_calls"] = delta("trunk.route.tandem_calls")
    values["trunk.route.failovers"] = delta("trunk.route.failovers")
    return values
