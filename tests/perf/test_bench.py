"""Tests for the calibrated timing core."""

import pytest

from repro.perf.bench import (
    MAX_BATCH,
    SLICES,
    BenchResult,
    measure,
    measure_interleaved,
)


class FakeClock:
    """Deterministic clock: each call advances by ``step`` seconds."""

    def __init__(self, step=0.01):
        self.step = step
        self.now = 0.0

    def __call__(self):
        self.now += self.step
        return self.now


class TestMeasure:
    def test_accumulates_past_floor(self):
        calls = []
        result = measure("t", lambda: calls.append(None),
                         min_seconds=0.05, clock=FakeClock(step=0.01))
        assert result.name == "t"
        assert result.seconds >= 0.05
        # warm-up call is untimed but still executed
        assert len(calls) == result.ops + 1

    def test_batches_grow_geometrically(self):
        batches = []
        ops_seen = [0]

        def fn():
            ops_seen[0] += 1

        clock = FakeClock(step=0.001)
        result = measure("t", fn, min_seconds=0.01, clock=clock)
        assert result.ops == ops_seen[0] - 1
        # 1 + 2 + 4 + ... pattern: ops is one less than a power of two
        assert (result.ops + 1) & result.ops == 0

    def test_slow_callable_single_batch(self):
        result = measure("slow", lambda: None,
                         min_seconds=0.01, clock=FakeClock(step=0.5))
        assert result.ops == 1

    def test_rejects_nonpositive_floor(self):
        with pytest.raises(ValueError):
            measure("t", lambda: None, min_seconds=0.0)

    def test_batch_cap(self):
        assert MAX_BATCH == 1 << 20

    def test_batches_stop_growing_at_a_slice_of_the_floor(self):
        # Every batch takes 1/SLICES of the floor (binary fractions,
        # so the fake clock is exact): batches never grow, and the
        # sample is SLICES single-call slices.
        result = measure("t", lambda: None, min_seconds=SLICES / 64,
                         clock=FakeClock(step=1 / 64))
        assert result.ops == SLICES


class TestMeasureInterleaved:
    def test_alternates_equal_batches(self):
        order = []
        results = measure_interleaved(
            [("a", lambda: order.append("a")),
             ("b", lambda: order.append("b"))],
            min_seconds=0.01, clock=FakeClock(step=0.001),
        )
        assert [r.name for r in results] == ["a", "b"]
        assert results[0].ops == results[1].ops
        # Warm-ups, then batches of 1, 2, 4, ... alternating a, b.
        assert order[:8] == ["a", "b", "a", "b", "a", "a", "b", "b"]

    def test_runs_until_every_bench_reaches_the_floor(self):
        results = measure_interleaved(
            [("a", lambda: None), ("b", lambda: None)],
            min_seconds=0.05, clock=FakeClock(step=0.01),
        )
        assert all(r.seconds >= 0.05 for r in results)

    def test_rejects_nonpositive_floor(self):
        with pytest.raises(ValueError):
            measure_interleaved([("t", lambda: None)], min_seconds=0.0)


class TestBenchResult:
    def test_ops_per_s(self):
        assert BenchResult("t", ops=100, seconds=2.0).ops_per_s == 50.0

    def test_degenerate_clock(self):
        assert BenchResult("t", ops=7, seconds=0.0).ops_per_s == 7.0

    def test_as_record_round_trips(self):
        record = BenchResult("t", ops=3, seconds=1.5).as_record()
        assert record == {"name": "t", "ops": 3, "seconds": 1.5,
                          "ops_per_s": 2.0}
