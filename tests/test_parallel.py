"""Tests for the process-parallel experiment engine (repro.parallel).

Covers the contracts ISSUE-level callers rely on: specs/results pickle
cleanly, a pool returns bit-identical results to the serial path, worker
crashes retry and then degrade to in-parent execution without losing
completed results, and worker telemetry merges back into the parent's
registry.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.configs import CI
from repro.experiments.multiseed import SeedSummary, run_seeds
from repro.experiments.runner import RunSpec, build_context, run_method
from repro.parallel import resolve_jobs, run_specs
from repro.parallel.worker import CRASH_FLAG_ENV, CRASH_HARD_ENV, CRASH_METHOD_ENV
from repro.sim.world import WorldConfig

TINY = replace(
    CI,
    name="parallel-test",
    world=WorldConfig(
        map_size=400.0,
        grid_n=3,
        n_vehicles=3,
        n_background_cars=0,
        n_pedestrians=0,
        seed=7,
        min_route_length=120.0,
    ),
    collect_duration=30.0,
    trace_duration=120.0,
    train_duration=40.0,
    train_interval=2.0,
    record_interval=10.0,
    coreset_size=6,
    eval_trials=1,
    eval_models=1,
    eval_normal_cars=0,
    eval_normal_pedestrians=0,
)


@pytest.fixture(scope="module")
def context():
    return build_context(TINY)


def tiny_specs(context, methods=("LbChat", "DP"), seeds=(1, 2)):
    return [
        RunSpec.for_context(context, method, wireless=True, seed=seed)
        for method in methods
        for seed in seeds
    ]


def assert_results_identical(a, b):
    assert len(a) == len(b)
    for left, right in zip(a, b):
        assert left.method == right.method and left.seed == right.seed
        assert left.receive_attempted == right.receive_attempted
        assert left.receive_completed == right.receive_completed
        assert np.array_equal(left.loss_curve(9)[1], right.loss_curve(9)[1])
        assert left.counters == right.counters
        for node_l, node_r in zip(left.nodes, right.nodes):
            assert np.array_equal(node_l.flat_params, node_r.flat_params)


class TestConfig:
    def test_resolve_jobs(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert resolve_jobs(3) == 3
        assert resolve_jobs(1) == 1
        assert resolve_jobs(0) == 3  # the usable cores, not the host's
        assert resolve_jobs(-1) == 3

    def test_empty_specs(self):
        assert run_specs([], jobs=4) == []


class TestPickling:
    def test_run_spec_round_trip(self, context):
        spec = RunSpec.for_context(
            context, "LbChat", seed=3, coreset_size=4, overrides={"lambda_c": 0.5}
        )
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.overrides == {"lambda_c": 0.5}

    def test_run_result_round_trip(self, context):
        spec = RunSpec.for_context(context, "LbChat", seed=1)
        result = run_method(context, spec)
        assert result.trainer is not None  # serial path keeps the trainer
        clone = pickle.loads(pickle.dumps(result))
        assert clone.trainer is None  # dropped: not picklable, not needed
        assert clone.method == result.method
        assert clone.receive_attempted == result.receive_attempted
        assert np.array_equal(clone.loss_curve(9)[1], result.loss_curve(9)[1])
        assert [n.node_id for n in clone.nodes] == [n.node_id for n in result.nodes]

    def test_seed_summary_round_trip(self):
        summary = SeedSummary(
            method="LbChat",
            seeds=[1, 2],
            grid=np.linspace(0, 40, 5),
            curves=np.ones((2, 5)),
            receive_rates=np.array([0.5, 0.75]),
        )
        clone = pickle.loads(pickle.dumps(summary))
        assert clone.method == summary.method
        assert np.array_equal(clone.curves, summary.curves)


class TestDeterminism:
    def test_pool_matches_serial(self, context):
        specs = tiny_specs(context)
        serial = run_specs(specs, jobs=1)
        parallel = run_specs(specs, jobs=2)
        assert_results_identical(serial, parallel)

    def test_run_seeds_parallel_matches_serial(self, context):
        serial = run_seeds(context, "LbChat", seeds=[1, 2], n_points=9, jobs=1)
        parallel = run_seeds(context, "LbChat", seeds=[1, 2], n_points=9, jobs=2)
        assert np.array_equal(serial.curves, parallel.curves)
        assert np.array_equal(serial.receive_rates, parallel.receive_rates)


class TestFailurePolicy:
    def test_crash_once_retries(self, context, monkeypatch, tmp_path):
        flag = tmp_path / "crash-once"
        flag.touch()
        monkeypatch.setenv(CRASH_METHOD_ENV, "LbChat")
        monkeypatch.setenv(CRASH_FLAG_ENV, str(flag))
        specs = tiny_specs(context)
        parallel = run_specs(specs, jobs=2, retries=2)
        assert not flag.exists()  # the injected crash fired exactly once
        monkeypatch.delenv(CRASH_METHOD_ENV)
        monkeypatch.delenv(CRASH_FLAG_ENV)
        assert_results_identical(run_specs(specs, jobs=1), parallel)

    def test_retries_exhausted_falls_back_to_serial(self, context, monkeypatch):
        # Every worker attempt dies; the parent must still produce every
        # result (the crash hook never fires on the in-parent path).
        monkeypatch.setenv(CRASH_METHOD_ENV, "LbChat")
        specs = tiny_specs(context)
        parallel = run_specs(specs, jobs=2, retries=1)
        monkeypatch.delenv(CRASH_METHOD_ENV)
        assert_results_identical(run_specs(specs, jobs=1), parallel)

    def test_hard_crash_recycles_broken_pool(self, context, monkeypatch, tmp_path):
        flag = tmp_path / "crash-hard-once"
        flag.touch()
        monkeypatch.setenv(CRASH_METHOD_ENV, "DP")
        monkeypatch.setenv(CRASH_FLAG_ENV, str(flag))
        monkeypatch.setenv(CRASH_HARD_ENV, "1")
        specs = tiny_specs(context)
        parallel = run_specs(specs, jobs=2, retries=2)
        for name in (CRASH_METHOD_ENV, CRASH_FLAG_ENV, CRASH_HARD_ENV):
            monkeypatch.delenv(name)
        assert_results_identical(run_specs(specs, jobs=1), parallel)

    def test_timeout_degrades_to_serial(self, context):
        # An absurdly small per-job timeout makes every pool attempt
        # "hang"; the jobs must still complete in the parent.
        specs = tiny_specs(context, methods=("DP",), seeds=(1, 2))
        timed_out = run_specs(specs, jobs=2, timeout=0.001, retries=1)
        assert_results_identical(run_specs(specs, jobs=1), timed_out)


class TestTelemetryMerge:
    def test_worker_registries_merge_into_parent(self, context):
        from repro.telemetry import TelemetrySession

        specs = tiny_specs(context)
        serial_session = TelemetrySession(label="serial")
        with serial_session:
            serial = run_specs(specs, jobs=1)
        parallel_session = TelemetrySession(label="parallel")
        with parallel_session:
            parallel = run_specs(specs, jobs=2)
        assert_results_identical(serial, parallel)
        # Both paths wrap each run in a private session and merge its
        # state in job order, so the full registries agree exactly.
        serial_state = serial_session.registry.state()
        parallel_state = parallel_session.registry.state()
        assert parallel_state["counters"] == serial_state["counters"]
        assert parallel_state["histograms"] == serial_state["histograms"]
        assert parallel_state["gauges"] == serial_state["gauges"]

    def test_single_spec_records_spans_directly(self, context):
        from repro.telemetry import TelemetrySession

        spec = RunSpec.for_context(context, "LbChat", seed=1)
        with TelemetrySession(label="single") as session:
            run_specs([spec], jobs=1)
        # `repro trace` depends on the single-run path keeping tracer
        # spans in the caller's session.
        assert session.tracer.span_counts().get("trainer_run") == 1
