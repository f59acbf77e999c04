"""Tests for the benchmark's own arithmetic and tracing.

    python3 -m pytest perfbench -q
"""

import json
import os
import statistics
import threading
import time

import pytest

import arith
import spans


class TestTailRule:
    def test_p90_needs_100_samples(self):
        assert arith.samples_beyond(100, 90) == 10
        assert arith.tail_supported(100, 90)
        assert not arith.tail_supported(99, 90)
        assert arith.min_samples_for(90) == 100

    def test_p99_needs_1000_samples(self):
        assert arith.min_samples_for(99) == 1000
        assert not arith.tail_supported(999, 99)

    def test_p50_needs_20_samples(self):
        assert arith.min_samples_for(50) == 20

    def test_tail_refuses_short_samples(self):
        with pytest.raises(ValueError, match="needs >= 100"):
            arith.tail(list(range(99)), 90)
        assert arith.tail(list(range(100)), 90) == pytest.approx(89.1)

    def test_tail_windows_are_the_smallest_that_support_it(self):
        # Two windows of 100 for p90: the stalled second window's tail
        # is averaged with the first, not taken over all 200 samples.
        values = list(range(100)) + [value + 1000 for value in range(100)]
        assert arith.tail(values, 90) == pytest.approx(
            (89.1 + 1089.1) / 2)
        steady = list(range(100)) * 5
        assert arith.tail(steady, 90) == pytest.approx(89.1)

    def test_percentile_interpolates(self):
        values = [4.0, 1.0, 3.0, 2.0]
        assert arith.percentile(values, 0) == 1.0
        assert arith.percentile(values, 100) == 4.0
        assert arith.percentile(values, 50) == 2.5
        assert arith.percentile([7.0], 99) == 7.0
        with pytest.raises(ValueError):
            arith.percentile([], 50)


class TestWindowedTail:
    def test_median_of_window_tails(self):
        # Three windows of 100; a stall lifts the middle one's p90.
        values = (list(range(100)) + [value + 100 for value in range(100)]
                  + list(range(100)))
        assert arith.windowed_tail(values, 90, 100) == pytest.approx(89.1)

    def test_even_window_count_averages_the_middle_two(self):
        values = list(range(100)) + [value + 10 for value in range(100)]
        middle = (arith.percentile(range(100), 90)
                  + arith.percentile(range(10, 110), 90)) / 2
        assert arith.windowed_tail(values, 90, 100) == pytest.approx(middle)

    def test_partial_window_dropped(self):
        values = list(range(100)) + [10 ** 6] * 50
        assert arith.windowed_tail(values, 90, 100) == pytest.approx(89.1)

    def test_window_must_support_the_percentile(self):
        with pytest.raises(ValueError, match="cannot support p99"):
            arith.windowed_tail(list(range(5000)), 99, 999)
        with pytest.raises(ValueError, match="needs >= 1000"):
            arith.windowed_tail(list(range(999)), 99, 1000)


class TestFailureShare:
    def test_share(self):
        assert arith.failure_share(400, 0) == 0.0
        assert arith.failure_share(400, 4) == 0.01

    def test_rejects_impossible_counts(self):
        with pytest.raises(ValueError):
            arith.failure_share(0, 0)
        with pytest.raises(ValueError):
            arith.failure_share(10, 11)
        with pytest.raises(ValueError):
            arith.failure_share(10, -1)


class TestSelfTime:
    def test_no_children(self):
        assert arith.self_time(1.0, 3.0, []) == 2.0

    def test_disjoint_children_subtract(self):
        assert arith.self_time(0.0, 10.0, [(1.0, 2.0), (4.0, 7.0)]) == 6.0

    def test_overlapping_children_count_once(self):
        # Children on different threads may overlap each other.
        assert arith.self_time(0.0, 10.0, [(1.0, 5.0), (3.0, 6.0)]) == 5.0

    def test_children_clipped_to_parent(self):
        assert arith.self_time(2.0, 6.0, [(0.0, 3.0), (5.0, 9.0)]) == 2.0
        assert arith.self_time(2.0, 6.0, [(7.0, 9.0)]) == 4.0

    def test_covered_union(self):
        assert arith.covered([]) == 0.0
        assert arith.covered([(0, 1), (0.5, 2), (3, 4)]) == 3.0


class TestAudioClock:
    def test_whole_blocks(self):
        # 4 blocks of 160 frames at 8 kHz, acted at the same offset.
        assert arith.audio_clock_ms(10, 0.001, 14, 0.001, 160, 8000) \
            == pytest.approx(80.0)

    def test_sample_inside_block(self):
        # Onset 40 samples into the block it was heard in: +5 ms.
        assert arith.audio_clock_ms(0, 0.0, 2, 0.0, 160, 8000,
                                    end_sample=40) == pytest.approx(45.0)

    def test_wall_offsets_inside_blocks(self):
        # Dialled 1 ms into block 3, seen connected 4.5 ms into block 5.
        assert arith.audio_clock_ms(3, 0.001, 5, 0.0045, 160, 8000) \
            == pytest.approx(43.5)

    def test_same_block(self):
        assert arith.audio_clock_ms(7, 0.002, 7, 0.005, 160, 8000) \
            == pytest.approx(3.0)

    def test_other_block_sizes(self):
        assert arith.audio_clock_ms(0, 0.0, 1, 0.0, 320, 16000) \
            == pytest.approx(20.0)


class TestQuartileSpread:
    def test_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 9.0, 10.5, 12.0, 9.5, 10.2, 10.1, 9.9, 11.5]
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        assert arith.quartile_spread(values) == pytest.approx(
            (q3 - q1) / statistics.median(values))


def work(delay):
    time.sleep(delay)
    return delay


class Layer:
    def outer(self, delay):
        time.sleep(delay)
        return work(delay)


class TestTracer:
    def test_nesting_self_time_and_restore(self, tmp_path):
        tracer = spans.Tracer()
        original_outer = Layer.__dict__["outer"]
        original_work = work
        tracer.wrap("test_arith:Layer.outer", "layer.outer")
        tracer.wrap("test_arith:work", "work")
        try:
            assert Layer().outer(0.01) == 0.01
        finally:
            tracer.uninstall()
        assert Layer.__dict__["outer"] is original_outer
        assert globals()["work"] is original_work
        by_name = {span[1]: span for span in tracer.spans}
        outer, inner = by_name["layer.outer"], by_name["work"]
        assert inner[4] == outer[0]         # parent is the outer span
        assert inner[5] == outer[5] == outer[0]     # one trace id
        self_times = tracer.self_times()
        total = outer[3] - outer[2]
        assert self_times["layer.outer"][0] == pytest.approx(
            total - (inner[3] - inner[2]))
        assert self_times["layer.outer"][0] >= 0.009
        path = tmp_path / "spans.jsonl"
        assert tracer.dump(str(path)) == 2
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert {row["name"] for row in rows} == {"layer.outer", "work"}

    def test_missing_target_is_skipped(self):
        tracer = spans.Tracer()
        assert not tracer.wrap("test_arith:Layer.gone", "gone")
        assert not tracer.wrap("test_arith:Gone.outer", "gone")
        assert not tracer.wrap("no_such_module:work", "gone")
        assert tracer.wrap("test_arith:work", "work")
        tracer.uninstall()
        assert globals()["work"].__name__ == "work"
        assert not hasattr(globals()["work"], "__wrapped__")

    def test_threads_get_their_own_roots(self):
        tracer = spans.Tracer()
        tracer.wrap("test_arith:work", "work")
        try:
            threads = [threading.Thread(target=work, args=(0.001,))
                       for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=5)
                assert not thread.is_alive()
        finally:
            tracer.uninstall()
        assert len(tracer.spans) == 4
        assert all(span[4] == -1 for span in tracer.spans)
        assert len({span[5] for span in tracer.spans}) == 4


def test_manifest_is_current():
    import manifest

    with open(os.path.join(manifest.ROOT, "BENCHMARK.json")) as handle:
        assert json.load(handle) == manifest.manifest()
