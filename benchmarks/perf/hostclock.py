"""Host-speed calibration: seconds that survive a noisy shared host.

The reference host (2 virtual cores) slows down for stretches of a
fraction of a second up to many minutes — the *same* deterministic run
took 1.70 s and 2.67 s in one process — and all of it is user time, so a
raw wall time mostly measures what the neighbours were doing.  A
:class:`Sampler` therefore interrupts the measured program every
``SAMPLE_PERIOD_S`` with a few milliseconds of fixed work (the four
:data:`KERNELS`) and records how long each took relative to its cost on
the uncontended host; :class:`HostClock` turns a weighted mean of those
ratios (median-smoothed, so that a slice which caught a pre-emption does
not speak for its neighbours) into a clock that advances at the
*uncontended* host's pace and stands still during the calibration slices
themselves.  Every time the benchmark reports — imports, set-ups,
repetitions, spans — is read off such a clock, with the raw wall time
printed beside it.

Code that walks Python objects scattered over the heap (building a
world, the many small chats of the city workload) loses about 1.4 times
as much (in logarithms) to a busy neighbour as code that spends its time
inside array kernels, so there are two mixes: :data:`ARRAY_BOUND` and
:data:`HEAP_BOUND`.  On a 17 min recording each followed its kind of
interval with a gain within 5 % of one (set-ups and city repetitions
1.02-1.05 on the heap mix against 1.35-1.41 on the array mix; the three
paper-world repetitions 0.95-1.04 on the array mix against 0.68-0.77).

The sampler runs in the measured thread (a ``SIGALRM`` handler, which
CPython executes between two bytecodes of the main thread), so it sees
the same core in the same phase as the program, and needs no second
thread on a 2-core box.
"""

from __future__ import annotations

import signal
import time

import numpy as np

__all__ = [
    "KERNELS",
    "REF_SLICE_S",
    "ARRAY_BOUND",
    "HEAP_BOUND",
    "SAMPLE_PERIOD_S",
    "SMOOTH_SLICES",
    "Sampler",
    "HostClock",
]

#: What a calibration slice runs: a cache-resident float32 GEMM loop (the
#: paper model's trunk shape), a bytecode loop, a 16 MB streaming pass,
#: and a walk over Python objects scattered through 50 MB of heap.
KERNELS = ("gemm", "bytecode", "stream", "chase")

#: Cost of each kernel on the reference host's fast phase: the lower
#: decile of a 17 min recording.  Constants, never re-measured at run
#: time: normalised seconds from two runs are only comparable when both
#: divide by the same reference.
REF_SLICE_S = (1.48e-3, 2.50e-3, 2.53e-3, 1.28e-3)

#: Kernel weights of the two kinds of interval (see the module docstring).
ARRAY_BOUND = (1 / 3, 1 / 3, 1 / 3, 0.0)
HEAP_BOUND = (1 / 4, 1 / 4, 1 / 4, 1 / 4)

SAMPLE_PERIOD_S = 0.2

#: A slice that catches a pre-emption reads several times slower than the
#: program ran around it, so the clock takes each slice's slowdown as the
#: median of this many slices centred on it (two seconds' worth).  On a
#: 17 min recording of 200 repetitions this took the normalised spread of
#: the worst workload from 9 % to 6 %.
SMOOTH_SLICES = 11

_GEMM_REPEATS = 8
_LOOP_ITERATIONS = 40_000
_STREAM_FLOATS = 2_000_000
_CHASE_OBJECTS = 400_000
_CHASE_STEPS = 3_000
_CHASE_ROUTES = 64


class Sampler:
    """Periodic calibration slices while the ``with`` block runs.

    ``samples`` holds one ``(start, end, ratios)`` triple per slice —
    ``ratios`` being each kernel's time over its :data:`REF_SLICE_S` —
    bracketing the block: one slice is taken on entry and one on exit,
    so every instant inside the block lies between two samples.
    """

    def __init__(self, period: float = SAMPLE_PERIOD_S):
        self.period = period
        self.samples: list[tuple[float, float, tuple[float, ...]]] = []
        rng = np.random.default_rng(0)
        # The paper model's trunk shape: batch 64, 1600 features, hidden 96.
        self._a = rng.standard_normal((64, 1600)).astype(np.float32)
        self._b = rng.standard_normal((1600, 96)).astype(np.float32)
        self._x = np.ones(_STREAM_FLOATS, dtype=np.float32)
        self._y = np.empty_like(self._x)
        self._heap = [[float(i), i] for i in range(_CHASE_OBJECTS)]
        self._routes = [
            rng.integers(0, _CHASE_OBJECTS, _CHASE_STEPS).tolist() for _ in range(_CHASE_ROUTES)
        ]
        self._busy = False
        self._previous_handler = None

    def sample(self, *_signal_args) -> None:
        """Run one calibration slice and record its slowdown factor."""
        if self._busy:  # a slice overran the period; never nest
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            for _ in range(_GEMM_REPEATS):
                self._a @ self._b
            t1 = time.perf_counter()
            acc = 0
            for i in range(_LOOP_ITERATIONS):
                acc += i * i % 7
            t2 = time.perf_counter()
            np.multiply(self._x, 1.0001, out=self._y)
            np.multiply(self._y, 1.0001, out=self._x)
            t3 = time.perf_counter()
            heap = self._heap
            acc = 0.0
            for j in self._routes[len(self.samples) % _CHASE_ROUTES]:
                acc += heap[j][0]
            t4 = time.perf_counter()
            times = (t1 - t0, t2 - t1, t3 - t2, t4 - t3)
            self.samples.append((t0, t4, tuple(t / ref for t, ref in zip(times, REF_SLICE_S))))
        finally:
            self._busy = False

    def __enter__(self) -> "Sampler":
        self.sample()  # first use of the kernels (BLAS start-up, page faults): discarded
        self.samples.clear()
        self.sample()
        self._previous_handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self.sample()

    def clock(self, weights) -> "HostClock":
        return HostClock(self.samples, weights)


class HostClock:
    """Maps ``perf_counter`` instants to host-normalised seconds.

    A slice's slowdown is the ``weights`` mean of its kernels' ratios,
    replaced by the median of the ``smooth`` slices around it.  Between
    the end of one calibration slice and the start of the next the
    program ran at the mean of the two slices' slowdown factors, so that
    stretch counts ``length / slowdown`` normalised seconds; the slices
    themselves count nothing.
    Before the first slice and after the last the host is taken to run
    at that slice's slowdown (the imports precede the first slice).
    """

    def __init__(self, samples, weights, smooth: int = SMOOTH_SLICES):
        if len(samples) < 2:
            raise ValueError("a HostClock needs at least two calibration samples")
        starts, ends, ratios = (np.asarray(col, dtype=float) for col in zip(*samples))
        slowdown = ratios @ np.asarray(weights, dtype=float)
        # NaN padding: at either end the median is over the slices that exist.
        padded = np.pad(slowdown, (smooth // 2, smooth - 1 - smooth // 2), constant_values=np.nan)
        slowdown = np.nanmedian(np.lib.stride_tricks.sliding_window_view(padded, smooth), axis=1)
        gaps = starts[1:] - ends[:-1]
        speed = 0.5 * (slowdown[1:] + slowdown[:-1])
        self.slowdown = slowdown
        self._knots = np.column_stack([starts, ends]).ravel()
        self._normalised = np.repeat(np.concatenate([[0.0], np.cumsum(gaps / speed)]), 2)

    def at(self, instants):
        """Normalised clock reading(s) at ``perf_counter`` instant(s)."""
        instants = np.asarray(instants, dtype=float)
        first, last = self._knots[0], self._knots[-1]
        inside = np.interp(instants, self._knots, self._normalised)
        before = np.minimum(instants - first, 0.0) / self.slowdown[0]
        after = np.maximum(instants - last, 0.0) / self.slowdown[-1]
        return inside + before + after

    def elapsed(self, start: float, end: float) -> float:
        """Host-normalised seconds between two ``perf_counter`` instants."""
        return float(self.at(end) - self.at(start))
