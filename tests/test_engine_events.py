"""Unit tests for the discrete-event engine: one heap of timed wake-ups."""

import numpy as np
import pytest

from repro.engine import Simulator


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    fired = []

    def proc():
        yield sim.timeout(5.0)
        fired.append(sim.now)

    sim.process(proc())
    sim.run()
    assert fired == [5.0]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError, match="negative"):
        sim.timeout(-1.0)


def test_sequential_timeouts_accumulate():
    sim = Simulator()
    log = []

    def proc():
        for delay in (1.0, 2.0, 3.0):
            yield sim.timeout(delay)
            log.append(sim.now)

    sim.process(proc())
    sim.run()
    assert log == [1.0, 3.0, 6.0]


def test_two_processes_interleave_deterministically():
    sim = Simulator()
    log = []

    def proc(name, delay):
        while sim.now < 10:
            yield sim.timeout(delay)
            log.append((sim.now, name))

    sim.process(proc("a", 2.0))
    sim.process(proc("b", 3.0))
    sim.run(until=7.0)
    # Ties at t=6.0 break by scheduling order: b armed its 6.0 timeout at
    # t=3.0, before a armed its own at t=4.0.
    assert log == [(2.0, "a"), (3.0, "b"), (4.0, "a"), (6.0, "b"), (6.0, "a")]


def test_run_until_stops_clock_exactly():
    sim = Simulator()

    def proc():
        yield sim.timeout(100.0)

    sim.process(proc())
    sim.run(until=42.0)
    assert sim.now == 42.0


def test_run_until_beyond_last_event_sets_clock():
    sim = Simulator()
    sim.run(until=9.0)
    assert sim.now == 9.0


def test_run_until_leaves_later_wakeups_queued():
    sim = Simulator()
    log = []

    def proc():
        for _ in range(3):
            yield sim.timeout(5.0)
            log.append(sim.now)

    sim.process(proc())
    sim.run(until=5.0)  # an entry due exactly at ``until`` runs
    assert log == [5.0] and sim.now == 5.0
    sim.run()
    assert log == [5.0, 10.0, 15.0]


def test_call_at_runs_callback_at_time():
    sim = Simulator()
    log = []
    sim.call_at(7.5, lambda: log.append(sim.now))
    sim.run()
    assert log == [7.5]


# -- the ordering contract checkpoint resume depends on -----------------------


def test_call_at_armed_before_processes_runs_first():
    """A barrier armed before the processes runs before every process
    due at its instant, whichever way each wrote its wake-up."""
    sim = Simulator()
    log = []
    sim.call_at(4.0, lambda: log.append("barrier"))

    def by_timeout():
        yield sim.timeout(4.0)
        log.append("timeout")

    def by_wait_until():
        yield sim.wait_until(4.0)
        log.append("wait_until")

    sim.process(by_timeout())
    sim.process(by_wait_until())
    sim.run()
    assert log == ["barrier", "timeout", "wait_until"]


def test_processes_due_at_one_instant_resume_in_arming_order():
    """Ties resume in the order the waits were armed, not the order the
    processes were started, mixing ``timeout`` and ``wait_until``."""
    sim = Simulator()
    log = []

    def proc(name, first, second):
        yield sim.wait_until(first)
        yield second()
        log.append(name)

    # All three wake at t=6.  Arming order of those waits: c (at t=1),
    # a (at t=2, by timeout), b (at t=3, by wait_until).
    sim.process(proc("a", 2.0, lambda: sim.timeout(4.0)))
    sim.process(proc("b", 3.0, lambda: sim.wait_until(6.0)))
    sim.process(proc("c", 1.0, lambda: sim.timeout(5.0)))
    sim.run()
    assert log == ["c", "a", "b"]


def test_mid_instant_start_and_wait_until_now_run_after_processes_due():
    """A process started mid-instant and a ``wait_until(now)`` both run
    after every process already due at that instant, in the order they
    were queued."""
    sim = Simulator()
    log = []

    def late():
        log.append("started")
        yield sim.timeout(0.0)

    def first():
        yield sim.timeout(2.0)
        log.append("first")
        sim.process(late())
        yield sim.wait_until(sim.now)
        log.append("first again")

    def second():
        yield sim.timeout(2.0)
        log.append("second")

    sim.process(first())
    sim.process(second())
    sim.run()
    assert log == ["first", "second", "started", "first again"]
    assert sim.now == 2.0


def test_wait_until_keeps_the_exact_float():
    sim = Simulator()
    now, when = 11.2, 45.699999999999996
    assert now + (when - now) != when  # the round trip a timeout would take
    seen = []

    def proc():
        yield sim.timeout(now)
        yield sim.wait_until(when)
        seen.append(sim.now)

    sim.process(proc())
    sim.run()
    assert seen == [when]


# -- input checks -------------------------------------------------------------


def test_cannot_schedule_in_past():
    sim = Simulator()

    def proc():
        yield sim.timeout(5.0)
        sim.call_at(1.0, lambda: None)

    sim.process(proc())
    with pytest.raises(ValueError, match="past"):
        sim.run()


def test_yielding_a_past_time_raises():
    sim = Simulator()

    def proc():
        yield sim.timeout(5.0)
        yield sim.wait_until(1.0)

    sim.process(proc())
    with pytest.raises(ValueError, match="past"):
        sim.run()


def test_yielding_a_non_time_raises():
    for bad in (None, "5", [5.0]):
        sim = Simulator()

        def proc():
            yield bad

        sim.process(proc())
        with pytest.raises(TypeError, match="not a wake-up time"):
            sim.run()


def test_numpy_times_are_wake_up_times():
    sim = Simulator()
    seen = []

    def proc():
        yield np.float64(2.5)
        yield np.float32(3.0)
        seen.append(sim.now)

    sim.process(proc())
    sim.run()
    assert seen == [3.0]
