"""CLI command behaviours with the heavy machinery stubbed out."""

import numpy as np
import pytest

from repro import cli


class FakeRecorder:  # mimics TimeSeriesRecorder surface
    @staticmethod
    def keys():
        return ["v0"]

    @staticmethod
    def series(key):
        return np.array([0.0, 100.0]), np.array([5.0, 1.0])


class FakeResult:
    method = "LbChat"
    duration = 100.0
    wireless = True
    seed = 1
    receive_rate = 0.8
    counters = {"chats": 3.0}
    loss_recorder = FakeRecorder()

    def __init__(self):
        from repro.nn import make_driving_model

        class Node:
            def detached_model(self):
                return make_driving_model((3, 8, 8), 4, 16, seed=0)

        self.nodes = [Node()]

    def loss_curve(self, n_points=11):
        grid = np.linspace(0.0, 100.0, n_points)
        return grid, np.linspace(5.0, 1.0, n_points)


def test_cmd_run_with_stubs(monkeypatch, capsys, tmp_path):
    seen = []

    def fake_execute_spec(spec):
        seen.append(spec)
        return FakeResult()

    monkeypatch.setattr("repro.parallel.execute_spec", fake_execute_spec)
    out_json = tmp_path / "run.json"
    model_path = tmp_path / "model.npz"
    code = cli.main(
        [
            "run",
            "--method",
            "LbChat",
            "--out",
            str(out_json),
            "--save-model",
            str(model_path),
        ]
    )
    assert code == 0
    assert out_json.exists()
    assert model_path.exists()
    [spec] = seen
    assert spec.method == "LbChat" and spec.use_cache
    output = capsys.readouterr().out
    assert "receive rate: 80.0%" in output


def stub_produce(monkeypatch, name, **fields):
    """Patch ``produce`` to hand back one canned result; returns what it was called with."""
    from repro.experiments.artifacts import ARTIFACTS, ArtifactResult

    fake = ArtifactResult(artifact=ARTIFACTS[name], scale="ci", seed=1, **fields)
    seen = {}

    def fake_produce(names, scale, seed, jobs, overrides):
        seen.update(names=names, scale=scale, seed=seed, jobs=jobs, overrides=overrides)
        return {name: fake}

    monkeypatch.setattr("repro.experiments.artifacts.produce", fake_produce)
    return seen


def test_cmd_rates_with_stubs(monkeypatch, capsys):
    rates = {"LbChat": 0.77, "DP": 0.47}
    seen = stub_produce(
        monkeypatch, "rates", columns=list(rates), numbers=rates, receive_rates=rates
    )
    assert cli.main(["rates"]) == 0
    assert seen["names"] == ["rates"]
    assert capsys.readouterr().out == (
        "Successful model receiving rate (w wireless loss)\n"
        "  LbChat      77.0%\n"
        "  DP          47.0%\n"
    )


def test_cmd_fig_with_stubs(monkeypatch, capsys):
    seen = stub_produce(
        monkeypatch, "fig2b", columns=["LbChat"],
        numbers={"LbChat": np.linspace(5, 1, 5).tolist()}, receive_rates={"LbChat": 0.8},
        grid=np.linspace(0, 100, 5).tolist(),
    )
    assert cli.main(["fig", "2b", "--seed", "3"]) == 0
    assert seen["names"] == ["fig2b"] and seen["seed"] == 3
    assert "Fig. 2: training loss vs. time (w wireless loss)" in capsys.readouterr().out


def test_cmd_table_with_stubs(monkeypatch, capsys):
    from repro.experiments.artifacts import CONDITIONS

    seen = stub_produce(
        monkeypatch, "table3", columns=["LbChat"],
        numbers={
            "LbChat": {cond: 90.0 for cond in CONDITIONS},
            "reference": {cond: 50.0 for cond in CONDITIONS},
        },
        receive_rates={"LbChat": 0.8, "reference": 0.5},
    )
    assert cli.main(["table", "3", "--jobs", "4", "--step-workers", "2", "--overlap-chat"]) == 0
    assert seen["names"] == ["table3"] and seen["jobs"] == 4
    assert seen["overrides"] == {"step_workers": 2, "overlap_chat": True}
    output = capsys.readouterr().out
    assert "Table III" in output
    assert output.endswith("\nreceive rates: LbChat=80%\n")  # rendered columns only


def test_cmd_trace_with_stubs(monkeypatch, capsys, tmp_path):
    from repro.telemetry import hooks

    def fake_execute_spec(spec):
        # Mimic an instrumented run: the active session sees one chat.
        session = hooks.active()
        assert session is not None, "trace must activate a TelemetrySession"
        session.tracer.start_span("chat", 0.0, i="v0", j="v1")
        session.tracer.end_span(1.0)
        session.registry.counter("trainer.chats").inc()
        return FakeResult()

    monkeypatch.setattr("repro.parallel.execute_spec", fake_execute_spec)
    trace_path = tmp_path / "trace.jsonl"
    csv_path = tmp_path / "metrics.csv"
    code = cli.main(
        ["trace", "--out", str(trace_path), "--csv", str(csv_path)]
    )
    assert code == 0
    assert trace_path.exists() and csv_path.exists()
    output = capsys.readouterr().out
    assert "chats: 1" in output
    assert "receive rate: 80.0%" in output
    # The session deactivates after the command finishes.
    from repro.telemetry import hooks as hooks_after

    assert hooks_after.active() is None


def test_run_and_trace_share_flags():
    parser = cli.build_parser()
    argv = ["--no-wireless", "--seed", "7", "--checkpoint-every", "5"]
    run_args = parser.parse_args(["run", *argv])
    trace_args = parser.parse_args(["trace", *argv])
    for args in (run_args, trace_args):
        assert args.wireless is False
        assert args.seed == 7
        assert args.checkpoint_every == 5.0
        assert args.cache is True
    for command in ("run", "trace"):  # one spec: nothing for --jobs to fan out
        with pytest.raises(SystemExit):
            parser.parse_args([command, "--jobs", "2"])


def test_cmd_report_from_trace(tmp_path, capsys):
    from repro.telemetry import TelemetrySession, export_jsonl

    session = TelemetrySession(label="saved run")
    session.tracer.start_span("chat", 0.0)
    session.tracer.end_span(2.0, status="aborted", aborted="coresets")
    session.registry.counter("trainer.chats").inc()
    session.registry.counter("chat.aborted.coresets").inc()
    path = export_jsonl(session, tmp_path / "t.jsonl")
    assert cli.main(["report", "--trace", str(path)]) == 0
    output = capsys.readouterr().out
    assert "saved run" in output
    assert "coresets=1" in output


class TestCliParser:
    @pytest.mark.parametrize(
        "argv",
        [
            ["scales"],
            ["run", "--method", "DP", "--seed", "3"],
            ["table", "6"],
            ["fig", "3"],
            ["rates", "--scale", "ci"],
            ["report", "--artifacts", "x"],
            ["eval", "--model", "m.npz", "--trials", "2"],
        ],
    )
    def test_all_subcommands_parse(self, argv):
        args = cli.build_parser().parse_args(argv)
        assert callable(args.fn)

    def test_invalid_table_number(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["table", "9"])
