"""Unit tests for metric recorders."""

import numpy as np
import pytest

from repro.engine import CounterSet, ReceiveRateRecorder, TimeSeriesRecorder


class TestTimeSeriesRecorder:
    def test_series_roundtrip(self):
        rec = TimeSeriesRecorder()
        rec.record("a", 0.0, 1.0)
        rec.record("a", 10.0, 0.5)
        times, values = rec.series("a")
        assert times.tolist() == [0.0, 10.0]
        assert values.tolist() == [1.0, 0.5]

    def test_non_monotonic_time_rejected(self):
        rec = TimeSeriesRecorder()
        rec.record("a", 5.0, 1.0)
        with pytest.raises(ValueError):
            rec.record("a", 4.0, 1.0)

    def test_equal_time_allowed(self):
        rec = TimeSeriesRecorder()
        rec.record("a", 5.0, 1.0)
        rec.record("a", 5.0, 0.9)  # same-time re-record is fine

    def test_mean_curve_averages_across_keys(self):
        rec = TimeSeriesRecorder()
        rec.record("a", 0.0, 2.0)
        rec.record("b", 0.0, 4.0)
        curve = rec.mean_curve(np.array([0.0, 1.0]))
        assert curve.tolist() == [3.0, 3.0]

    def test_mean_curve_handles_late_starters(self):
        rec = TimeSeriesRecorder()
        rec.record("a", 0.0, 2.0)
        rec.record("b", 5.0, 4.0)  # b starts later; first value backfills
        curve = rec.mean_curve(np.array([0.0, 5.0]))
        assert curve.tolist() == [3.0, 3.0]

    def test_mean_curve_empty_raises(self):
        with pytest.raises(ValueError):
            TimeSeriesRecorder().mean_curve(np.array([0.0]))

    def test_mean_curve_matches_reference_implementation(self):
        """Regression for the searchsorted vectorization: bit-identical
        to the original bisect_right double loop, including the
        first-value extension for grid points before a series starts."""
        from bisect import bisect_right

        def reference_mean_curve(rec, grid):
            out = np.zeros_like(np.asarray(grid, dtype=float))
            for key in rec._times:
                times = rec._times[key]
                values = rec._values[key]
                for i, t in enumerate(grid):
                    idx = bisect_right(times, t) - 1
                    out[i] += values[max(idx, 0)]
            return out / len(rec._times)

        rng = np.random.default_rng(42)
        rec = TimeSeriesRecorder()
        for k in range(7):
            n = int(rng.integers(1, 40))
            start = float(rng.uniform(0.0, 50.0))
            times = start + np.cumsum(rng.uniform(0.0, 5.0, size=n))
            for t in times:
                rec.record(f"v{k}", float(t), float(rng.normal()))
        # Grid spans before the earliest series, exact sample times, and
        # beyond the last observation.
        grid = np.concatenate(
            [[-5.0, 0.0], rng.uniform(0.0, 300.0, size=64), [1e4]]
        )
        np.testing.assert_array_equal(
            rec.mean_curve(grid), reference_mean_curve(rec, grid)
        )

    def test_mean_curve_large_is_fast(self):
        # 50 series x 2000 points x 200-point grid finishes instantly
        # when vectorized (the old double loop took ~seconds at fleet
        # scale); keep a loose wall-clock bound as a canary.
        import time

        rec = TimeSeriesRecorder()
        for k in range(50):
            for i in range(500):
                rec.record(f"v{k}", float(i), float(i % 7))
        grid = np.linspace(0.0, 500.0, 200)
        start = time.perf_counter()
        rec.mean_curve(grid)
        assert time.perf_counter() - start < 1.0

    def test_final_mean(self):
        rec = TimeSeriesRecorder()
        rec.record("a", 0.0, 5.0)
        rec.record("a", 1.0, 1.0)
        rec.record("b", 0.0, 3.0)
        assert rec.final_mean() == 2.0

    def test_keys_sorted(self):
        rec = TimeSeriesRecorder()
        rec.record("z", 0.0, 1.0)
        rec.record("a", 0.0, 1.0)
        assert rec.keys() == ["a", "z"]


class TestReceiveRateRecorder:
    def test_rate_zero_when_empty(self):
        assert ReceiveRateRecorder().rate == 0.0

    def test_rate_counts_successes(self):
        rec = ReceiveRateRecorder()
        rec.observe(True)
        rec.observe(False)
        rec.observe(True)
        assert rec.attempted == 3
        assert rec.completed == 2
        assert rec.rate == pytest.approx(2 / 3)


class TestCounterSet:
    def test_default_zero(self):
        assert CounterSet().get("missing") == 0.0

    def test_get_is_a_read_not_a_write(self):
        counters = CounterSet()
        counters.add("a", 2.0)
        assert counters.get("missing") == 0.0
        assert counters.as_dict() == {"a": 2.0}
        assert counters.snapshot() == {"a": 2.0}

    def test_accumulates(self):
        counters = CounterSet()
        counters.add("x")
        counters.add("x", 2.5)
        assert counters.get("x") == 3.5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            CounterSet().add("x", -1.0)

    def test_as_dict_snapshot(self):
        counters = CounterSet()
        counters.add("a", 2.0)
        snapshot = counters.as_dict()
        counters.add("a", 1.0)
        assert snapshot == {"a": 2.0}
