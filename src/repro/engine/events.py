"""The discrete-event engine: one heap of timed wake-ups.

:class:`Simulator` keeps a heap of ``(time, seq, callback)`` entries and
advances virtual time by popping the earliest.  A *process* is a
generator that yields the absolute virtual time of its next wake-up;
:meth:`Simulator.wait_until` (``when``) writes it.
Resuming a process is one heap entry that advances the generator and
queues the time it yields; the process ends when the generator returns.

The ordering contract, which bit-identical checkpoint resume rests on:

* at one instant, entries run in the order they were queued;
* so a :meth:`~Simulator.call_at` armed before the processes (a
  checkpoint barrier) runs before every process due at its instant;
* a process started, or a wake-up queued, mid-instant runs after every
  entry already due at that instant.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable, Iterator
from numbers import Real

__all__ = ["Simulator"]


class Simulator:
    """Deterministic discrete-event simulator with a virtual clock.

    Example
    -------
    >>> sim = Simulator()
    >>> log = []
    >>> def proc():
    ...     yield sim.wait_until(sim.now + 5.0)
    ...     log.append(sim.now)
    >>> sim.process(proc())
    >>> sim.run()
    >>> log
    [5.0]
    """

    def __init__(self):
        self._now = 0.0
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    def wait_until(self, when: float) -> float:
        """The wake-up time ``when``, exactly as given.

        No ``now + (when - now)`` round trip, so a restored process
        re-arms its pending timer at the identical instant the original
        run armed it.
        """
        return when

    def call_at(self, when: float, cb: Callable[[], None]) -> None:
        """Queue a plain callback at absolute virtual time ``when``."""
        if when < self._now:
            raise ValueError(f"cannot schedule in the past: {when} < {self._now}")
        heapq.heappush(self._heap, (when, next(self._seq), cb))

    def process(self, gen: Iterator[float]) -> None:
        """Start a generator as a process; its first step is queued now."""

        def resume() -> None:
            try:
                when = next(gen)
            except StopIteration:
                return
            if not isinstance(when, Real):
                raise TypeError(f"process yielded {when!r}, not a wake-up time")
            self.call_at(when, resume)

        self.call_at(self._now, resume)

    def advance_to(self, when: float) -> None:
        """Jump the idle clock forward to ``when`` (checkpoint restore).

        Only legal while nothing is queued: restoring a snapshot sets the
        clock first, then re-arms processes at absolute times.
        """
        if self._heap:
            raise RuntimeError("cannot advance a simulator with pending events")
        if when < self._now:
            raise ValueError(f"cannot advance backwards: {when} < {self._now}")
        self._now = float(when)

    def run(self, until: float | None = None) -> None:
        """Run until the queue drains or the next entry lies past ``until``.

        When ``until`` is given the clock is left exactly at ``until``,
        even if the queue drained earlier.
        """
        heap = self._heap
        while heap and (until is None or heap[0][0] <= until):
            self._now, _, cb = heapq.heappop(heap)
            cb()
        if until is not None and until > self._now:
            self._now = until
