"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {desk,mix,mesh} --seed N \\
        --seconds S --trace {0,1}

Builds the system from ``src/`` of the checkout this file sits in, sets
it up several times (``setup_s`` is the median), measures one workload
for ``--seconds``, checks its outputs, prints a table of every metric by
name, unit and sample count plus a run fingerprint, and ends with one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  Each workload's own
numbers (``req_p50_ms`` on desk, ``block_p50_ms`` on mix, ``m2e_p50_ms``
on mesh, ...) map onto the shared names in ``SLOTS``; README.md has the
table.  ``--trace 1`` measures the workload untraced, then again with
spans recorded around every layer's entry point, and reports the
per-layer metrics (``layers.py``) plus the tracing overhead: the traced
minus the untraced value of each end-to-end metric, in percent.  Spans
are written to ``perfbench/out/``.

Exit status 0 means the run finished (``correct`` says whether its
checks passed); anything else means no result was produced.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: End-to-end metric -> (unit, the workload metric it reports on each
#: workload).  Every workload reports every end-to-end metric.
SLOTS = {
    "setup_s": ("s", {"desk": "setup_s", "mix": "setup_s",
                      "mesh": "setup_s"}),
    "op_p50_ms": ("ms", {"desk": "req_p50_ms", "mix": "block_p50_ms",
                         "mesh": "m2e_p50_ms"}),
    "op_tail_ms": ("ms", {"desk": "req_p90_ms", "mix": "block_cpu_p90_ms",
                          "mesh": "m2e_p90_ms"}),
    "start_p50_ms": ("ms", {"desk": "play_start_p50_ms",
                            "mix": "play_start_p50_ms",
                            "mesh": "call_setup_p50_ms"}),
    "start_p90_ms": ("ms", {"desk": "play_start_p90_ms",
                            "mix": "play_start_p90_ms",
                            "mesh": "call_setup_p90_ms"}),
    "cpu_ms_per_unit": ("ms/unit", {"desk": "cpu_per_request_ms",
                                    "mix": "cpu_per_stream_ms",
                                    "mesh": "cpu_per_call_ms"}),
}

#: End-to-end metric -> the per-layer metric that reports how much the
#: traced run moved it, in percent.
OVERHEAD = {slot: "overhead.%s_pct" % slot for slot in SLOTS
            if slot != "setup_s"}

#: Extra seconds of queued audio beyond the measured span (warm-up,
#: probe drain), for the workloads whose streams must outlast the run.
COVER_MARGIN_S = 5.0


def _load(workload: str):
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no src/repro next to %s; run it from a checkout "
              "of the repository" % HERE, file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import desk
    import mesh
    import mix

    return {"desk": desk, "mix": mix, "mesh": mesh}[workload]


def _slot_values(workload: str, setup_s: float, result) -> dict:
    values = {}
    for slot, (_unit, sources) in SLOTS.items():
        name = sources[workload]
        values[slot] = (setup_s if name == "setup_s"
                        else result.metrics[name].value)
    return values


def _print_table(workload: str, setup_s: float, result, label: str) -> None:
    from arith import failure_share

    print("# %s end-to-end (%s)" % (workload, label))
    print("  %-20s %-16s %12.4f %-8s %-9s %s" % (
        "setup_s", "setup_s", setup_s, "s", "", "median build time"))
    slot_of = {sources[workload]: slot
               for slot, (_unit, sources) in SLOTS.items()}
    for name, metric in result.metrics.items():
        print("  %-20s %-16s %12.4f %-8s n=%-7d %s" % (
            name, slot_of.get(name, "-"), metric.value, metric.unit,
            metric.samples, metric.meaning))
    print("  operations attempted %d, failed %d (share %.6f)"
          % (result.attempted, result.failed,
             failure_share(result.attempted, result.failed)))
    for check, ok in result.checks.items():
        print("  check %-58s %s" % (check, "ok" if ok else "FAILED"))
    for note in ("failures", "losses", "deadline_misses"):
        if note in result.notes:
            print("  %s: %s" % (note, result.notes[note]))
    by_hops = result.notes.get("by_hops")
    if by_hops:
        for hops, row in by_hops.items():
            print("  %d-hop: setup p50 %.2f ms, m2e p50 %.2f ms, %d calls"
                  % (hops, row["setup_p50_ms"], row["m2e_p50_ms"],
                     row["calls"]))


def _per_layer(workload: str, tracer, traced, traced_wall: float,
               untraced: dict, setup_s: float, seed: int) -> dict:
    """Print and return the traced run's metrics: every per-layer value
    plus the tracing overhead on each end-to-end metric."""
    import layers

    values = layers.compute(tracer, traced.notes, traced_wall)
    units = dict(layers.metric_names())
    print("# %s per-layer (traced)" % workload)
    for name, unit in units.items():
        print("  %-48s %14.4f %s" % (name, values[name], unit))
    print("# %s tracing overhead (traced vs untraced)" % workload)
    with_trace = _slot_values(workload, setup_s, traced)
    for slot, name in OVERHEAD.items():
        base = untraced[slot]
        values[name] = (with_trace[slot] - base) / base * 100.0
        units[name] = "%"
        print("  %-20s untraced %12.4f traced %12.4f  %+8.2f%%"
              % (slot, base, with_trace[slot], values[name]))
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "spans-%s-%d.jsonl" % (workload, seed))
    print("# %d spans written to %s"
          % (tracer.dump(path), os.path.relpath(path, ROOT)))
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("desk", "mix", "mesh"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    module = _load(args.workload)

    import layers
    from common import Result, fingerprint
    from spans import Tracer

    phases = 2 if args.trace else 1
    cover_s = args.seconds * phases + COVER_MARGIN_S
    print("# fingerprint " + json.dumps(fingerprint(
        ROOT, args.workload, args.seed, args.seconds, bool(args.trace),
        module.sizes()), sort_keys=True), flush=True)
    setup_s, system = module.build(args.seed, cover_s)
    tracer = Tracer()
    result, traced = Result(), None
    try:
        module.measure(system, args.seconds, result)
        if args.trace:
            traced = Result()
            for span in layers.install(tracer):
                print("# span %s: its target is gone, it reads 0" % span)
            started = time.perf_counter()
            try:
                module.measure(system, args.seconds, traced)
            finally:
                tracer.uninstall()
            traced_wall = time.perf_counter() - started
    finally:
        system.close()

    _print_table(args.workload, setup_s, result, "untraced")
    untraced = _slot_values(args.workload, setup_s, result)
    if traced is None:
        correct = result.correct
        attempted, failed = result.attempted, result.failed
        metrics = {slot: {"value": untraced[slot], "unit": unit}
                   for slot, (unit, _sources) in SLOTS.items()}
    else:
        _print_table(args.workload, setup_s, traced, "traced")
        correct = result.correct and traced.correct
        attempted = result.attempted + traced.attempted
        failed = result.failed + traced.failed
        metrics = _per_layer(args.workload, tracer, traced, traced_wall,
                             untraced, setup_s, args.seed)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
