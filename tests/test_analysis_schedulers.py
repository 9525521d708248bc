"""Tests for curve analysis helpers."""

import numpy as np
import pytest

from repro.experiments.analysis import (
    area_under_curve,
    convergence_summary,
    improvement_rate,
    relative_slowdown,
    time_to_threshold,
)


GRID = np.linspace(0.0, 100.0, 11)
FAST = np.linspace(5.0, 0.5, 11)
SLOW = np.linspace(5.0, 0.5, 11) * 0 + np.linspace(5.0, 1.4, 11)


class TestTimeToThreshold:
    def test_interpolates_between_samples(self):
        grid = np.array([0.0, 10.0])
        curve = np.array([2.0, 0.0])
        assert time_to_threshold(grid, curve, 1.0) == pytest.approx(5.0)

    def test_already_below_at_start(self):
        assert time_to_threshold(GRID, FAST, 10.0) == 0.0

    def test_never_reached(self):
        assert time_to_threshold(GRID, FAST, 0.0) == np.inf

    def test_mismatched_shapes(self):
        with pytest.raises(ValueError):
            time_to_threshold(GRID, FAST[:-1], 1.0)


class TestRelativeSlowdown:
    def test_slower_curve_higher_ratio(self):
        ratio = relative_slowdown(GRID, FAST, SLOW, threshold=2.0)
        assert ratio > 1.0

    def test_equal_curves_ratio_one(self):
        assert relative_slowdown(GRID, FAST, FAST.copy(), threshold=2.0) == pytest.approx(1.0)

    def test_slow_never_converges(self):
        assert relative_slowdown(GRID, FAST, SLOW, threshold=1.0) == np.inf

    def test_neither_converges(self):
        assert relative_slowdown(GRID, FAST, SLOW, threshold=0.01) == 1.0


class TestCurveStats:
    def test_auc_of_constant(self):
        assert area_under_curve(GRID, np.full(11, 2.0)) == pytest.approx(200.0)

    def test_improvement_rate(self):
        assert improvement_rate(GRID, FAST) == pytest.approx(4.5 / 100.0)

    def test_auc_of_a_line_is_its_trapezoid(self):
        assert area_under_curve(GRID, FAST) == pytest.approx((5.0 + 0.5) / 2 * 100.0)

    def test_improvement_rate_needs_a_positive_span(self):
        with pytest.raises(ValueError, match="positive duration"):
            improvement_rate(np.zeros(3), np.ones(3))

    def test_summary_states_every_value(self):
        """The default threshold is 110 % of the best final loss (0.55):
        FAST (5 -> 0.5 over 100 s) crosses it between its samples at 90 s
        (0.95) and 100 s (0.5); SLOW (5 -> 1.4) never does."""
        summary = convergence_summary(GRID, {"fast": FAST, "slow": SLOW})
        assert summary["fast"] == pytest.approx(
            {"final": 0.5, "time_to_threshold": 90.0 + 10.0 * 0.4 / 0.45,
             "auc": 275.0, "rate": 0.045}
        )
        assert summary["slow"] == pytest.approx(
            {"final": 1.4, "time_to_threshold": np.inf, "auc": 320.0, "rate": 0.036}
        )
        given = convergence_summary(GRID, {"slow": SLOW}, threshold=3.2)
        assert given["slow"]["time_to_threshold"] == pytest.approx(50.0)

    def test_summary_keys(self):
        summary = convergence_summary(GRID, {"a": FAST, "b": SLOW})
        assert set(summary) == {"a", "b"}
        assert set(summary["a"]) == {"final", "time_to_threshold", "auc", "rate"}
        assert summary["a"]["time_to_threshold"] <= summary["b"]["time_to_threshold"]
