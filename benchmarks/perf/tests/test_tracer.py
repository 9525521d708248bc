"""The outside-in tracer: span arithmetic, binding coverage, restoration."""

from __future__ import annotations

import sys
import time
import types

import pytest

from benchmarks.perf.hostclock import HostClock
from benchmarks.perf.tracer import ROOT_SPAN, Tracer, chrome_events, span_stats

SPANS = {
    "lib.leaf": "bench_fake_lib:leaf",
    "lib.middle": "bench_fake_lib:middle",
    "lib.engine_run": "bench_fake_lib:Engine.run",
}


@pytest.fixture
def fake_modules(monkeypatch):
    """A library and a user module holding ``from``-imported bindings of it."""
    lib = types.ModuleType("bench_fake_lib")
    exec(
        "import time\n"
        "def leaf(fail=False):\n"
        "    time.sleep(0.001)\n"
        "    if fail:\n"
        "        raise RuntimeError('leaf failed')\n"
        "def middle(fail=False):\n"
        "    leaf(); time.sleep(0.001); leaf(fail)\n"
        "class Engine:\n"
        "    def run(self, fail=False):\n"
        "        middle(); time.sleep(0.001); middle(fail)\n",
        lib.__dict__,
    )
    user = types.ModuleType("bench_fake_user")
    user.leaf = lib.leaf  # what ``from bench_fake_lib import leaf`` binds
    user.POLICIES = {"default": lib.leaf}  # a module-level registry
    monkeypatch.setitem(sys.modules, "bench_fake_lib", lib)
    monkeypatch.setitem(sys.modules, "bench_fake_user", user)
    return lib, user


def test_self_times_sum_to_the_root(fake_modules):
    lib, user = fake_modules
    with Tracer(SPANS) as tracer:
        lib.Engine().run()
        user.leaf()
        user.POLICIES["default"]()
    stats = span_stats(tracer)
    assert stats["lib.engine_run"]["calls"] == 1
    assert stats["lib.middle"]["calls"] == 2
    assert stats["lib.leaf"]["calls"] == 6  # 4 nested + binding + registry
    root = stats[ROOT_SPAN]["total_s"]
    assert sum(s["self_s"] for s in stats.values()) == pytest.approx(root, rel=1e-9)
    # A parent's self time is its total minus its direct children's.
    run, middle = stats["lib.engine_run"], stats["lib.middle"]
    assert run["self_s"] == pytest.approx(run["total_s"] - middle["total_s"], rel=1e-9)
    assert run["self_s"] >= 0.001
    assert len(chrome_events(tracer, 0, 0.0)) == len(tracer.starts)


def test_host_clock_keeps_the_sum(fake_modules):
    lib, _ = fake_modules
    before = time.perf_counter()
    with Tracer(SPANS) as tracer:
        lib.Engine().run()
    after = time.perf_counter()
    # Two calibration slices around the run, host twice as slow as the reference.
    slices = [(before - 1.0, before, (2.0,)), (after, after + 1.0, (2.0,))]
    clock = HostClock(slices, weights=(1.0,))
    raw, normalised = span_stats(tracer), span_stats(tracer, clock)
    assert normalised[ROOT_SPAN]["total_s"] == pytest.approx(raw[ROOT_SPAN]["total_s"] / 2)
    assert sum(s["self_s"] for s in normalised.values()) == pytest.approx(
        normalised[ROOT_SPAN]["total_s"]
    )


def test_bindings_are_wrapped_then_restored(fake_modules):
    lib, user = fake_modules
    originals = (lib.leaf, lib.middle, lib.Engine.__dict__["run"])
    with Tracer(SPANS):
        assert user.leaf is not originals[0]
        assert user.leaf is lib.leaf
        assert user.POLICIES["default"] is lib.leaf
        assert lib.Engine.__dict__["run"] is not originals[2]
    assert (lib.leaf, lib.middle, lib.Engine.__dict__["run"]) == originals
    assert user.leaf is originals[0]
    assert user.POLICIES["default"] is originals[0]


def test_restored_when_the_traced_code_raises(fake_modules):
    lib, user = fake_modules
    original = lib.leaf
    tracer = Tracer(SPANS)
    with pytest.raises(RuntimeError, match="leaf failed"):
        with tracer:
            lib.Engine().run(fail=True)
    assert lib.leaf is original and user.leaf is original
    stats = span_stats(tracer)
    assert stats["lib.leaf"]["calls"] == 4
    assert all(end >= start for start, end in zip(tracer.starts, tracer.ends))
    assert sum(s["self_s"] for s in stats.values()) == pytest.approx(
        stats[ROOT_SPAN]["total_s"], rel=1e-9
    )


def test_a_span_that_is_not_a_function_is_refused_and_nothing_stays_patched(fake_modules):
    lib, _ = fake_modules
    original = lib.leaf
    with pytest.raises(TypeError, match="not a plain function"):
        with Tracer({**SPANS, "lib.engine": "bench_fake_lib:Engine"}):
            pass
    assert lib.leaf is original


def test_every_registered_span_resolves_in_the_repo():
    import repro.core.chat as chat

    original = chat.pairwise_chat
    with Tracer():
        assert chat.pairwise_chat is not original
    assert chat.pairwise_chat is original
