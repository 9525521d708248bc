"""Registry, ``BENCHMARK.json`` and the printed metrics name the same things."""

from __future__ import annotations

import json
import re

import pytest
from repro.experiments.configs import CI

from benchmarks.perf import run
from benchmarks.perf.tracer import ROOT_SPAN, SPANS
from benchmarks.perf.workloads import (
    END_TO_END,
    PER_LAYER,
    WORKLOADS,
    Workload,
    benchmark_manifest,
)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_is_the_registry():
    assert json.loads((run.ROOT / "BENCHMARK.json").read_text()) == benchmark_manifest()


def test_the_manifest_is_within_the_drivers_limits():
    manifest = benchmark_manifest()
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    assert 1 <= manifest["run_seconds"] <= 60
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in manifest[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all("\n" not in w["why"] and len(w["why"]) <= 200 for w in manifest["workloads"])
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all("bound" not in m for m in manifest["per_layer"])


def test_every_span_has_its_three_metrics():
    per_layer = {m.name for m in PER_LAYER}
    for span in SPANS:
        assert {f"{span}.calls", f"{span}.total_s", f"{span}.self_s"} <= per_layer
    assert ROOT_SPAN not in SPANS


@pytest.fixture
def tiny_workload(monkeypatch, tmp_path):
    """A seconds-sized LbChat run with a checkpoint barrier on a ``CI.derived`` world."""
    scale = CI.derived("bench-tiny", collect_duration=12.0, trace_duration=30.0)
    workload = Workload(
        name="tiny",
        why="harness self-test",
        scale=scale,
        method="LbChat",
        horizon=4.0,
        overrides={"overlap_chat": True},
        checkpoint_every=2.0,
    )
    monkeypatch.setattr(run, "WORKLOADS", (*WORKLOADS, workload))
    monkeypatch.setattr(run, "TRACE_DIR", tmp_path)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr("tempfile.tempdir", None)
    return workload


def result_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.splitlines()[-1])


def test_an_untraced_run_prints_the_end_to_end_metrics(tiny_workload, capsys):
    assert run.main(["--workload", "tiny", "--seconds", "0", "--trace", "0"]) == 0
    result = result_line(capsys)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m.name: m.unit for m in END_TO_END
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_a_traced_run_prints_the_per_layer_metrics_and_leaves_no_wrapper(
    tiny_workload, capsys, tmp_path
):
    import repro.core.overlap as overlap
    from repro.checkpoint.store import RunStore

    originals = (overlap.plan_chat, RunStore.__dict__["save_checkpoint"])
    assert run.main(["--workload", "tiny", "--seconds", "0", "--trace", "1"]) == 0
    assert (overlap.plan_chat, RunStore.__dict__["save_checkpoint"]) == originals
    result = result_line(capsys)
    assert result["correct"] and result["attempted"] == 3  # warm-up, untraced, traced
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == {m.name for m in PER_LAYER}
    # The traced repetition digested like the untraced one (or failed > 0),
    # went through the overlap protocol and wrote its one barrier.
    assert metrics["core.plan_chat.calls"] == metrics["core.chats"] > 0
    assert metrics["core.pairwise_chat.calls"] == 0
    assert metrics["checkpoint.save_checkpoint.calls"] == metrics["checkpoint.barriers"] == 1
    assert metrics["experiments.build_context.calls"] == 1
    # Spans nest inside the event loop: its children never exceed it.
    run_total = metrics["engine.sim_run.total_s"]
    assert 0 < metrics["core.plan_chat.total_s"] < run_total
    assert 0 < metrics["trace.root_self_ratio"] < 1
    events = json.loads((tmp_path / "trace-tiny.json").read_text())["traceEvents"]
    assert {"name", "ph", "ts", "dur", "pid", "tid", "cat"} <= set(events[0])
    assert not list(tmp_path.glob("ckpt-*"))  # checkpoint directories are removed


def test_a_traced_repetition_that_digests_differently_fails_the_run(
    tiny_workload, capsys, monkeypatch
):
    digests = iter(["untraced", "traced"])
    monkeypatch.setattr(run, "digest", lambda observation: next(digests))
    assert run.main(["--workload", "tiny", "--seconds", "0", "--trace", "1"]) == 1
    result = result_line(capsys)
    assert not result["correct"] and result["failed"] == 1
