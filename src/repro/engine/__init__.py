"""Discrete-event simulation engine.

A minimal, dependency-free engine: a
:class:`~repro.engine.events.Simulator` owns a virtual clock and one heap
of timed wake-ups.  A *process* is a Python generator that yields the
absolute virtual time it next wakes at (``sim.timeout(delay)`` or
``sim.wait_until(when)``); a plain callback is queued with
``sim.call_at``.  Every timed activity of the reproduction — the
fleet's Algorithm 2 loop, the loss recorder, the ProxSkip/DFL-DDS
round clock, overlapped chat flights and checkpoint barriers — runs on
one shared simulator, so interleavings are deterministic and
reproducible.  Alongside it: the metric recorders every trainer keeps
and the named RNG streams.
"""

from repro.engine.events import Simulator
from repro.engine.metrics import (
    CounterSet,
    ReceiveRateRecorder,
    TimeSeriesRecorder,
)
from repro.engine.random import spawn_rng, spawn_seed

__all__ = [
    "Simulator",
    "CounterSet",
    "ReceiveRateRecorder",
    "TimeSeriesRecorder",
    "spawn_rng",
    "spawn_seed",
]
