"""Discrete-event simulation engine.

A minimal, dependency-free engine in the style of simpy: a
:class:`~repro.engine.events.Simulator` owns a virtual clock and an event
queue; *processes* are Python generators that yield
:class:`~repro.engine.events.Timeout` or :class:`~repro.engine.events.Event`
objects to suspend themselves.  Every asynchronous component of the
reproduction (vehicle learner loops, pairwise chats, server rounds) runs
as a process on one shared simulator so that wall-clock interleavings are
deterministic and reproducible.
"""

from repro.engine.events import Event, Interrupt, Simulator, Timeout
from repro.engine.metrics import (
    CounterSet,
    ReceiveRateRecorder,
    TimeSeriesRecorder,
)
from repro.engine.random import spawn_rng, spawn_seed

__all__ = [
    "Event",
    "Interrupt",
    "Simulator",
    "Timeout",
    "CounterSet",
    "ReceiveRateRecorder",
    "TimeSeriesRecorder",
    "spawn_rng",
    "spawn_seed",
]
