"""Named metric instruments: counters, gauges, histograms.

The :class:`MetricRegistry` is the accounting half of the telemetry
layer.  It holds what the hooks count live — transfers, aborts by
stage, the psi distribution, coreset rebuilds — and, added once per run
by :func:`repro.telemetry.hooks.on_run_finished`, the trainers'
``CounterSet`` / ``ReceiveRateRecorder`` (cheap, always on) as
``trainer.*`` and ``model_rx.*``.  Those recorders are the one ledger
of what they count; the registry never counts it a second time.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Counter", "Gauge", "Histogram", "MetricRegistry"]


class Counter:
    """A monotonically increasing scalar."""

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Increment by a non-negative amount."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} increment must be >= 0: {amount}")
        self.value += amount


class Gauge:
    """A scalar that can move both ways (last value wins)."""

    def __init__(self, name: str):
        self.name = name
        self.value = math.nan

    def set(self, value: float) -> None:
        """Record the current level."""
        self.value = float(value)


class Histogram:
    """A distribution of observations (stores raw values).

    Runs are short enough (thousands of chats, not billions) that
    keeping raw observations is cheaper than getting bucket boundaries
    wrong; summaries are computed lazily.
    """

    def __init__(self, name: str):
        self.name = name
        self.values: list[float] = []

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.values.append(float(value))

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def total(self) -> float:
        return float(sum(self.values))

    def summary(self) -> dict:
        """count/sum/min/max/mean/p50/p90 of the observations so far."""
        if not self.values:
            return {"count": 0, "sum": 0.0}
        arr = np.asarray(self.values)
        return {
            "count": int(arr.size),
            "sum": float(arr.sum()),
            "min": float(arr.min()),
            "max": float(arr.max()),
            "mean": float(arr.mean()),
            "p50": float(np.percentile(arr, 50)),
            "p90": float(np.percentile(arr, 90)),
        }


class MetricRegistry:
    """Get-or-create home for named instruments."""

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The counter with this name (created on first use)."""
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        """The gauge with this name (created on first use)."""
        if name not in self._gauges:
            self._gauges[name] = Gauge(name)
        return self._gauges[name]

    def histogram(self, name: str) -> Histogram:
        """The histogram with this name (created on first use)."""
        if name not in self._histograms:
            self._histograms[name] = Histogram(name)
        return self._histograms[name]

    # -- cross-process merge -------------------------------------------------

    def state(self) -> dict:
        """Full transferable contents (histograms keep raw values).

        Unlike :meth:`snapshot` (a human/JSON-facing summary), the state
        is lossless: another registry can :meth:`merge_state` it and end
        up observing everything this one observed.  Used to ship a
        worker process's per-run registry back to the parent.
        """
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {
                n: g.value
                for n, g in sorted(self._gauges.items())
                if not math.isnan(g.value)
            },
            "histograms": {
                n: list(h.values) for n, h in sorted(self._histograms.items())
            },
        }

    def merge_state(self, state: dict) -> None:
        """Fold another registry's :meth:`state` into this one.

        Counters add (the runs observed disjoint events), histogram
        observations are concatenated, and gauges are last-write-wins —
        call in job order for deterministic results.
        """
        for name, value in state.get("counters", {}).items():
            self.counter(name).inc(float(value))
        for name, value in state.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, values in state.get("histograms", {}).items():
            histogram = self.histogram(name)
            for value in values:
                histogram.observe(value)

    # -- output ------------------------------------------------------------

    def snapshot(self) -> dict:
        """All instruments as a plain nested dict (JSON-safe)."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {
                n: g.value
                for n, g in sorted(self._gauges.items())
                if not math.isnan(g.value)
            },
            "histograms": {
                n: h.summary() for n, h in sorted(self._histograms.items())
            },
        }
