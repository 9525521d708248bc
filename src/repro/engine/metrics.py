"""Metric recorders shared by every training method.

Recorders are deliberately dumb containers: methods under test call
``record``/``observe`` with virtual timestamps from the simulator, and
the experiment harness post-processes them into the paper's figures and
tables.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

__all__ = ["TimeSeriesRecorder", "ReceiveRateRecorder", "CounterSet"]


class TimeSeriesRecorder:
    """Per-key time series of scalar observations.

    Used for the training-loss-vs-time curves of Fig. 2 and Fig. 3.
    Each key is typically a vehicle id; :meth:`mean_curve` resamples every
    series onto a common grid and averages across keys, which is how the
    paper reports "the" training loss of a fleet.
    """

    def __init__(self):
        self._times: dict[str, list[float]] = defaultdict(list)
        self._values: dict[str, list[float]] = defaultdict(list)

    def record(self, key: str, time: float, value: float) -> None:
        """Append an observation for ``key`` at monotonically rising time."""
        series_t = self._times[key]
        if series_t and time < series_t[-1]:
            raise ValueError(f"non-monotonic time for {key!r}: {time} < {series_t[-1]}")
        series_t.append(time)
        self._values[key].append(float(value))

    def keys(self) -> list[str]:
        """All recorded series keys, sorted."""
        return sorted(self._times)

    def series(self, key: str) -> tuple[np.ndarray, np.ndarray]:
        """Raw (times, values) arrays for one key."""
        return np.asarray(self._times[key]), np.asarray(self._values[key])

    def mean_curve(self, grid: np.ndarray) -> np.ndarray:
        """Average the step-interpolated series of all keys onto ``grid``.

        Grid points earlier than a series' first observation use that
        series' first value, so early grid points are still averages over
        the full fleet.
        """
        if not self._times:
            raise ValueError("no series recorded")
        grid = np.asarray(grid, dtype=float)
        out = np.zeros_like(grid)
        for key in self._times:
            times = np.asarray(self._times[key])
            values = np.asarray(self._values[key])
            # searchsorted(side="right") - 1 is exactly bisect_right - 1:
            # the last observation at or before each grid point; clamping
            # to 0 extends a series' first value to earlier grid points.
            idx = np.searchsorted(times, grid, side="right") - 1
            out += values[np.maximum(idx, 0)]
        return out / len(self._times)

    def final_mean(self) -> float:
        """Mean of each series' last observation."""
        if not self._values:
            raise ValueError("no series recorded")
        return float(np.mean([v[-1] for v in self._values.values()]))

    # -- checkpointing -------------------------------------------------------

    def snapshot(self) -> dict:
        """All series as arrays, keyed by series key (checkpoint state)."""
        return {
            key: {
                "times": np.asarray(self._times[key], dtype=np.float64),
                "values": np.asarray(self._values[key], dtype=np.float64),
            }
            # Insertion order, not sorted: restore must reproduce the
            # original dict order so archived output is byte-identical.
            for key in self._times
        }

    def restore(self, state: dict) -> None:
        """Replace all series with a :meth:`snapshot`'s contents."""
        self._times = defaultdict(list)
        self._values = defaultdict(list)
        for key, series in state.items():
            self._times[key] = [float(t) for t in series["times"]]
            self._values[key] = [float(v) for v in series["values"]]


@dataclass
class ReceiveRateRecorder:
    """Tracks attempted vs completed model receptions (§IV-C).

    The paper reports the *successful model receiving rate*: the fraction
    of model transfers a vehicle starts receiving that complete within
    the contact window despite wireless loss.
    """

    attempted: int = 0
    completed: int = 0

    def observe(self, success: bool) -> None:
        """Record one attempted model reception and its outcome."""
        self.attempted += 1
        self.completed += bool(success)

    @property
    def rate(self) -> float:
        """Overall completion rate in [0, 1]; 0 when nothing attempted."""
        return self.completed / self.attempted if self.attempted else 0.0

    def snapshot(self) -> dict:
        """Plain-data contents (checkpoint state)."""
        return {"attempted": int(self.attempted), "completed": int(self.completed)}

    def restore(self, state: dict) -> None:
        """Replace contents with a :meth:`snapshot`'s (a ``per_key``
        table an older barrier carries is ignored)."""
        self.attempted = int(state["attempted"])
        self.completed = int(state["completed"])


class CounterSet:
    """Named monotonically increasing counters (bytes sent, chats, ...)."""

    def __init__(self):
        self._counts: dict[str, float] = defaultdict(float)

    def add(self, name: str, amount: float = 1.0) -> None:
        """Increment a counter by a non-negative amount."""
        if amount < 0:
            raise ValueError(f"counter increments must be non-negative: {amount}")
        self._counts[name] += amount

    def get(self, name: str) -> float:
        """Current value of a counter (0 if never incremented; a read
        adds no entry)."""
        return self._counts.get(name, 0.0)

    def as_dict(self) -> dict[str, float]:
        """Snapshot of all counters as a plain dict."""
        return dict(self._counts)

    def snapshot(self) -> dict:
        """Plain-data contents (checkpoint state)."""
        return dict(self._counts)

    def restore(self, state: dict) -> None:
        """Replace contents with a :meth:`snapshot`'s."""
        self._counts = defaultdict(float)
        for name, value in state.items():
            self._counts[name] = float(value)
