"""HostClock arithmetic on synthetic calibration samples."""

from __future__ import annotations

import pytest

from benchmarks.perf.hostclock import ARRAY_BOUND, HEAP_BOUND, KERNELS, HostClock, Sampler


def test_elapsed_divides_by_the_slowdown_and_skips_the_slices():
    # Slices [0,1], [3,4], [8,9]; the host runs at 1x, then at 2x slower.
    samples = [(0.0, 1.0, (1.0,)), (3.0, 4.0, (1.0,)), (8.0, 9.0, (3.0,))]
    clock = HostClock(samples, weights=(1.0,), smooth=1)
    assert clock.elapsed(1.0, 3.0) == pytest.approx(2.0)
    assert clock.elapsed(3.0, 4.0) == 0.0  # a calibration slice counts nothing
    assert clock.elapsed(4.0, 8.0) == pytest.approx(4.0 / 2.0)  # mean of 1x and 3x
    assert clock.elapsed(2.0, 6.0) == pytest.approx(1.0 + 1.0)
    # Outside the samples the host runs at the nearest slice's slowdown.
    assert clock.elapsed(-5.0, 0.0) == pytest.approx(5.0 / 1.0)
    assert clock.elapsed(9.0, 15.0) == pytest.approx(6.0 / 3.0)
    assert clock.elapsed(-5.0, 15.0) == pytest.approx(5.0 + 4.0 + 2.0)


def test_a_lone_slow_slice_is_smoothed_away():
    # Back-to-back 1 s slices every 2 s; the fourth caught a pre-emption.
    slowdowns = [2.0, 2.0, 2.0, 9.0, 2.0, 2.0, 2.0]
    samples = [(2.0 * k, 2.0 * k + 1.0, (s,)) for k, s in enumerate(slowdowns)]
    assert HostClock(samples, (1.0,), smooth=3).elapsed(1.0, 12.0) == pytest.approx(6.0 / 2.0)
    assert HostClock(samples, (1.0,), smooth=1).elapsed(1.0, 12.0) < 6.0 / 2.0 - 0.3
    # At either end the median is over the slices that exist: a slow first
    # slice is outvoted too.
    samples[0], samples[3] = (0.0, 1.0, (9.0,)), (6.0, 7.0, (2.0,))
    assert HostClock(samples, (1.0,), smooth=5).elapsed(-4.0, 0.0) == pytest.approx(4.0 / 2.0)


def test_the_weights_choose_the_kernels():
    # The fourth kernel (the heap walk) slowed threefold, the others not at all.
    samples = [(0.0, 1.0, (1.0, 1.0, 1.0, 3.0)), (5.0, 6.0, (1.0, 1.0, 1.0, 3.0))]
    assert len(ARRAY_BOUND) == len(HEAP_BOUND) == len(KERNELS)
    assert sum(ARRAY_BOUND) == pytest.approx(1.0) and sum(HEAP_BOUND) == pytest.approx(1.0)
    assert HostClock(samples, ARRAY_BOUND).elapsed(1.0, 5.0) == pytest.approx(4.0)
    assert HostClock(samples, HEAP_BOUND).elapsed(1.0, 5.0) == pytest.approx(4.0 / 1.5)


def test_a_clock_needs_two_samples():
    with pytest.raises(ValueError):
        HostClock([(0.0, 1.0, (1.0,))], weights=(1.0,))


def test_the_sampler_brackets_its_block_and_restores_the_handler():
    import signal
    import time

    previous = signal.getsignal(signal.SIGALRM)
    with Sampler(period=0.01) as sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.1:
            pass
        end = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= 3  # entry, at least one timer slice, exit
    assert sampler.samples[0][0] <= start and sampler.samples[-1][1] >= end
    assert all(len(ratios) == len(KERNELS) for _, _, ratios in sampler.samples)
    assert 0.0 < sampler.clock(HEAP_BOUND).elapsed(start, end) < 10 * (end - start)
