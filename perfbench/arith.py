"""The benchmark's own arithmetic: percentiles, shares, span self time,
audio-clock conversion.

Everything here is pure and deterministic so ``test_arith.py`` can pin
it down; the workloads only collect samples and hand them over.
"""

from __future__ import annotations

import math
import statistics

#: A tail percentile is reported only when at least this many samples
#: lie beyond it (the choosing-metrics rule).
MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError("percentile %r outside 0..100" % q)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly beyond percentile q."""
    return count - math.ceil(count * q / 100.0)


def tail_supported(count: int, q: float) -> bool:
    """Whether ``count`` samples leave at least MIN_BEYOND beyond q."""
    return samples_beyond(count, q) >= MIN_BEYOND


def min_samples_for(q: float) -> int:
    """The smallest sample count that supports percentile q."""
    count = MIN_BEYOND
    while not tail_supported(count, q):
        count += 1
    return count


def tail(values, q: float) -> float:
    """Tail percentile q of samples in the order they were taken.

    The median, over consecutive windows of the fewest samples that
    support q (100 for p90, 1000 for p99), of each window's percentile
    q.  A host stall that lands in a few windows moves their tails, not
    the median of all of them; a tail the system produces throughout
    shows in every window.  Refuses a sample too short for one window.
    """
    return windowed_tail(values, q, min_samples_for(q))


def windowed_tail(values, q: float, window: int) -> float:
    """The median, over consecutive windows of ``window`` samples, of
    each window's percentile q.

    ``values`` are in the order they were taken; a last partial window
    is dropped.  Each window must support q on its own (at least
    MIN_BEYOND samples beyond it).
    """
    if not tail_supported(window, q):
        raise ValueError("a window of %d cannot support p%g" % (window, q))
    windows = [values[start:start + window]
               for start in range(0, len(values) - window + 1, window)]
    if not windows:
        raise ValueError("p%g over windows of %d needs >= %d samples, "
                         "have %d" % (q, window, window, len(values)))
    tails = sorted(percentile(chunk, q) for chunk in windows)
    middle = len(tails) // 2
    if len(tails) % 2:
        return tails[middle]
    return (tails[middle - 1] + tails[middle]) / 2.0


def failure_share(attempted: int, failed: int) -> float:
    """Failed operations as a share of those attempted."""
    if attempted <= 0:
        raise ValueError("no operations attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed %d outside 0..%d" % (failed, attempted))
    return failed / attempted


def covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_time(start: float, end: float, children) -> float:
    """A span's duration minus the part of it its children cover.

    Children are clipped to the parent's interval first, so a child
    that outlives its parent (a handoff to another thread) only
    subtracts the overlap.
    """
    clipped = [(max(start, child_start), min(end, child_end))
               for child_start, child_end in children
               if child_end > start and child_start < end]
    return (end - start) - covered(clipped)


def audio_clock_ms(start_block: int, start_offset_s: float,
                   end_block: int, end_offset_s: float,
                   block_frames: int, sample_rate: int,
                   start_sample: int = 0, end_sample: int = 0) -> float:
    """Elapsed ms between two instants named on the audio clock.

    An instant is a block index on the paced schedule, an optional
    sample index inside that block, and the wall-clock offset from the
    block's scheduled start at which the generator acted (sent, dialled,
    observed).  Whole blocks and samples count exactly on the audio
    clock; the offsets add where inside its block each instant fell on
    the wall clock -- the CPU time spent in the block so far, plus any
    lateness of the block's start -- so a slower tick shows even when
    the block count does not change.
    """
    frames = ((end_block - start_block) * block_frames
              + (end_sample - start_sample))
    return (frames * 1000.0 / sample_rate
            + (end_offset_s - start_offset_s) * 1000.0)


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, the run-to-run spread the bounds apply to."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
