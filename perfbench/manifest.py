"""BENCHMARK.json, generated from the benchmark's own tables.

    python3 perfbench/manifest.py          # rewrite BENCHMARK.json
    python3 perfbench/manifest.py --check  # exit 1 if it is stale

The end-to-end metrics come from ``run.SLOTS`` with the bounds below,
the per-layer metrics from ``layers.metric_names()`` plus the tracing
overhead of each end-to-end metric, so the file cannot drift from what
``run.py`` prints.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import layers
from run import OVERHEAD, ROOT, SLOTS

RUN_SECONDS = 20

WORKLOADS = (
    ("desk", "closed-loop app sessions on a real-time hub: protocol, "
             "alib, dispatch, lock, query snapshot and events work; "
             "render is light but rebuilt on every map and unmap"),
    ("mix", "48 LOUDs of seeded queues stepped in real time on a static "
            "topology: render, decode cache, resampler, mixer and "
            "conductor work; the request path is nearly idle"),
    ("mesh", "call churn over a discovered A-B-C trunk line ticked in "
             "lockstep: exchange, gateway, link, jitter and routing "
             "work; no audio server, so dispatch and render are idle"),
)

#: Share of the parent's median by which each end-to-end metric may get
#: worse: 0.25, the widest a BENCHMARK.json metric may carry, for all of
#: them.  On the shared 2-core host this was tuned on, a bare Python
#: loop's speed drifts by up to 25% over minutes of sustained load, and
#: every CPU-bound number drifts with it -- E1 under mix's render load
#: too (its median moved 13% between two sets of ten runs).
BOUNDS = {slot: 0.25 for slot in SLOTS}


def manifest() -> dict:
    per_layer = [{"name": name, "unit": unit, "better": _better(name)}
                 for name, unit in layers.metric_names()]
    per_layer += [{"name": name, "unit": "%", "better": "lower"}
                  for name in OVERHEAD.values()]
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS],
        "end_to_end": [{"name": slot, "unit": unit, "better": "lower",
                        "bound": BOUNDS[slot]}
                       for slot, (unit, _sources) in SLOTS.items()],
        "per_layer": per_layer,
    }


def _better(name: str) -> str:
    higher = (".calls_per_s", "hit_pct", "parallel_tick_pct",
              "batch_size_mean")
    return "higher" if name.endswith(higher) else "lower"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)
    path = os.path.join(ROOT, "BENCHMARK.json")
    text = json.dumps(manifest(), indent=2) + "\n"
    if args.check:
        with open(path) as handle:
            if handle.read() != text:
                print("BENCHMARK.json is stale: run perfbench/manifest.py")
                return 1
        return 0
    with open(path, "w") as handle:
        handle.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
