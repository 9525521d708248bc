"""A context's two worlds on two processes (``repro.parallel.forked``).

``build_context`` steps the trace world in a forked child while it
collects.  Every degraded mode of that fork is exercised here on
purpose: each must still hand back the in-process traces bit for bit,
and count why the call ran where it ran.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.experiments import runner
from repro.experiments.configs import CI
from repro.experiments.runner import build_context
from repro.parallel.forked import fork_call
from repro.sim.traces import simulate_traces
from repro.sim.world import WorldConfig
from repro.telemetry import TelemetrySession

TINY = replace(
    CI,
    name="forked-test",
    world=WorldConfig(
        map_size=400.0,
        grid_n=3,
        n_vehicles=3,
        n_background_cars=2,
        n_pedestrians=3,
        seed=5,
        min_route_length=120.0,
    ),
    collect_duration=20.0,
    trace_duration=120.0,
)

_fresh = itertools.count()


@pytest.fixture(scope="module")
def reference():
    return simulate_traces(TINY.world, TINY.trace_duration)


def build_fresh():
    """``build_context`` on a name no test built before, and its ``fork.*`` counters."""
    with TelemetrySession() as session:
        context = build_context(TINY.derived(f"forked-test-{next(_fresh)}"))
    counters = session.registry.state()["counters"]
    return context.traces, {k: v for k, v in counters.items() if k.startswith("fork.")}


def assert_same_traces(got, want):
    assert got.vehicle_ids == want.vehicle_ids
    for name in ("times", "positions"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes(), name


def in_the_child_only(action):
    """A stand-in for ``simulate_traces`` that does ``action`` in a forked
    child and is the real thing in this process."""
    parent = os.getpid()

    def trace_world(config, duration):
        if os.getpid() != parent:
            action()
        return simulate_traces(config, duration)

    return trace_world


def test_forked_traces_are_the_in_process_traces(reference):
    traces, counters = build_fresh()
    assert_same_traces(traces, reference)
    assert counters == {"fork.from_child": 1.0}


def test_a_value_larger_than_a_pipe_buffer_comes_back_whole():
    with TelemetrySession() as session:
        with fork_call(np.arange, 1_000_000.0) as call:
            value = call.result()
    assert value.tobytes() == np.arange(1_000_000.0).tobytes()
    assert session.registry.state()["counters"] == {"fork.from_child": 1.0}


def test_no_fork_on_the_platform_runs_in_process(monkeypatch, reference):
    monkeypatch.delattr(os, "fork")
    traces, counters = build_fresh()
    assert_same_traces(traces, reference)
    assert counters == {"fork.in_process.no_fork": 1.0}


def test_a_live_thread_runs_in_process(reference):
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        traces, counters = build_fresh()
    finally:
        release.set()
        thread.join()
    assert_same_traces(traces, reference)
    assert counters == {"fork.in_process.thread_alive": 1.0}


def test_a_child_that_exits_non_zero_is_rerun_here_with_a_warning(
    monkeypatch, reference
):
    monkeypatch.setattr(runner, "simulate_traces", in_the_child_only(lambda: os._exit(3)))
    with pytest.warns(RuntimeWarning, match="status 3"):
        traces, counters = build_fresh()
    assert_same_traces(traces, reference)
    assert counters == {"fork.in_process.child_failed": 1.0}


def test_a_child_that_raises_is_rerun_here_with_its_traceback(monkeypatch, reference):
    def fail():
        raise RuntimeError("the trace world fell over")

    monkeypatch.setattr(runner, "simulate_traces", in_the_child_only(fail))
    with pytest.warns(RuntimeWarning) as warned:
        traces, counters = build_fresh()
    (warning,) = warned
    message = str(warning.message)
    assert "status 1" in message
    assert "Traceback (most recent call last)" in message
    assert "RuntimeError: the trace world fell over" in message
    assert_same_traces(traces, reference)
    assert counters == {"fork.in_process.child_failed": 1.0}


def test_a_raising_parent_leaves_no_child_behind(monkeypatch):
    """The collection raises while the child is still stepping its world
    (here: asleep for a minute); the child is killed and reaped at once."""
    forks = []
    real_fork = os.fork

    def recording_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    def collection_fails(*args):
        raise RuntimeError("the collection world fell over")

    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(runner, "simulate_traces", in_the_child_only(lambda: time.sleep(60)))
    monkeypatch.setattr(runner, "collect_fleet_datasets", collection_fails)
    start = time.perf_counter()
    with TelemetrySession() as session, pytest.raises(RuntimeError, match="collection"):
        build_context(TINY.derived(f"forked-test-{next(_fresh)}"))
    assert time.perf_counter() - start < 30
    (pid,) = forks
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)  # already reaped: no zombie, no orphan
    assert session.registry.state()["counters"] == {}
