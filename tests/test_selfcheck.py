"""``repro selfcheck``: its table as tier-1 tests, and the checker checked.

The parametrised test runs every row of ``repro.selfcheck.CHECKS``
through one module-scoped runner, so each world is built and each
reference row run once.  The census then reads which ``src/repro``
functions those rows entered (:class:`TestEveryFunctionIsEntered`).
The rest pins the tool itself: the table and the golden file agree on
their keys, a tampered golden is reported by row and key, and
``--record`` rewrites only what it was asked to.
"""

import ast
import json
import threading
from dataclasses import replace
from pathlib import Path

import pytest

from repro import selfcheck
from repro.cli import main

CHEAP_ROW = "fleet.segment"  # needs no world: one batched training round


@pytest.fixture(scope="module")
def runner():
    return selfcheck.Runner()


@pytest.mark.parametrize("name", list(selfcheck.CHECKS))
def test_row(runner, name):
    assert runner.check(name).failures == []


class TestEveryFunctionIsEntered:
    """ROADMAP item 21's census: every function under ``src/repro`` is
    entered by a selfcheck row (or by one ``online_evaluate`` of a row's
    result, which no row runs), or :attr:`REFERENCES` names it with its
    kind and who reads it.  A test calling a function does not make it
    run code, and neither does an ``__all__`` entry or a re-export."""

    KINDS = {
        "oracle": "a scalar or per-node twin the reader compares a run path against",
        "degraded": "a fallback or fault path the reader exercises on purpose",
        "child": "entered only in a forked or pooled child process",
        "tooling": "entered by a repro command, an artifact, a benchmark workload or an example",
        "owed": "run code no row reaches yet; the reader is the ROADMAP item owing the row",
    }

    #: The only allowlist: ``"repro.module:qualname"`` (or a whole
    #: ``"repro.module"``) -> ``(kind, reader)``.  An entry a row now
    #: enters, or whose function is gone, fails the census like a new
    #: unentered function.
    REFERENCES = {
        # Item 15's per-node network and its Adam: the bit pins of the
        # fleet bank (tests/test_nn_bank.py) and of the psi probe
        # (tests/test_psi_prober.py) read them, and the examples build
        # nodes by hand on them.
        "repro.core.node:VehicleNode.train_step": ("oracle", "tests/test_nn_bank.py"),
        "repro.nn.layers:Module.__call__": ("oracle", "tests/test_nn_layers.py"),
        "repro.nn.layers:Module.forward": ("oracle", "tests/test_nn_layers.py"),
        "repro.nn.layers:Module.backward": ("oracle", "tests/test_nn_layers.py"),
        "repro.nn.layers:Module.zero_grad": ("oracle", "tests/test_nn_layers.py"),
        "repro.nn.layers:Linear.backward": ("oracle", "tests/test_nn_bank.py"),
        "repro.nn.layers:ReLU.backward": ("oracle", "tests/test_nn_bank.py"),
        "repro.nn.layers:Flatten.backward": ("oracle", "tests/test_nn_bank.py"),
        "repro.nn.layers:Sequential.backward": ("oracle", "tests/test_nn_bank.py"),
        "repro.nn.model:WaypointNet.backward": ("oracle", "tests/test_nn_bank.py"),
        "repro.nn.optim": ("oracle", "tests/test_nn_bank.py"),
        "repro.nn.params:Parameter.zero_grad": ("oracle", "tests/test_nn_layers.py"),
        # A minibatch per node: the fleet gathers a shard's draws at
        # once, and its stacked buffers are held to these row by row.
        "repro.sim.dataset:DrivingDataset.sample_batch": (
            "oracle",
            "tests/test_dataset_pool.py::TestGatherInPlace",
        ),
        # Scalar forms of an array statement, one element each.
        "repro.core.psi:PsiLossMap.loss_at": ("oracle", "tests/test_core_value_psi_aggregate.py"),
        "repro.core.value:truncated_gain": ("oracle", "tests/test_core_value_psi_aggregate.py"),
        # The in-repo Dijkstra's road order, held to networkx's.
        "repro.sim.map:TownMap.edges": ("oracle", "tests/test_sim_map.py::TestRoutingOracle"),
        # Fallbacks and faults.
        "repro.nn.bank:FleetAdam._step_chunked": ("degraded", "tests/test_nn_bank.py"),
        "repro.nn._fused:_run_compiler": ("degraded", "tests/test_nn_bank.py"),
        "repro.nn._fused:_compile_into": ("degraded", "tests/test_nn_bank.py"),
        "repro.nn._fused:_describe": ("degraded", "tests/test_nn_bank.py"),
        "repro.parallel.pool:run_specs.<locals>.recycle": ("degraded", "tests/test_parallel.py"),
        "repro.parallel.worker:_maybe_crash": ("degraded", "tests/test_parallel.py"),
        # A pool worker's side of a run, and what it pickles back.
        "repro.parallel.worker:run_job": ("child", "parallel.jobs4"),
        "repro.experiments.runner:RunResult.__getstate__": ("child", "parallel.jobs4"),
        "repro.core.fleet:FleetEngine.__getstate__": ("child", "parallel.jobs4"),
        "repro.nn.bank:ParamBank.__getstate__": ("child", "parallel.jobs4"),
        "repro.sim.dataset:DrivingDataset.__getstate__": ("child", "parallel.jobs4"),
        "repro.sim.dataset:FramePool.__getstate__": ("child", "parallel.jobs4"),
        # repro commands, artifacts, benchmark workloads and examples.
        "repro.cli": ("tooling", "src/repro/cli.py"),
        "repro.experiments.artifacts": ("tooling", "src/repro/experiments/artifacts.py"),
        "repro.experiments.render": ("tooling", "src/repro/experiments/artifacts.py"),
        "repro.experiments.report": ("tooling", "src/repro/cli.py"),
        "repro.experiments.io": ("tooling", "src/repro/cli.py"),
        "repro.telemetry.report": ("tooling", "src/repro/cli.py"),
        "repro.selfcheck:selfcheck": ("tooling", "src/repro/cli.py"),
        "repro.selfcheck:Runner.__init__": ("tooling", "tests/test_selfcheck.py"),
        "repro.selfcheck:entering.<locals>.profile": ("tooling", "tests/test_selfcheck.py"),
        "repro.blas:pin_blas_threads": ("tooling", "src/repro/cli.py"),
        "repro.blas:_discover": ("tooling", "tests/conftest.py"),  # the process's first BLAS query
        "repro.experiments.configs:get_scale": ("tooling", "src/repro/cli.py"),
        "repro.experiments.configs:iter_scales": ("tooling", "src/repro/cli.py"),
        "repro.experiments.configs:scale_names": ("tooling", "src/repro/cli.py"),
        "repro.experiments.runner:register_context": ("tooling", "src/repro/experiments/artifacts.py"),
        "repro.experiments.runner:RunResult.final_loss": ("tooling", "benchmarks/perf/workloads.py"),
        "repro.experiments.runner:RunResult.receive_rate": ("tooling", "src/repro/cli.py"),
        "repro.engine.metrics:TimeSeriesRecorder.final_mean": ("tooling", "benchmarks/perf/workloads.py"),
        "repro.experiments.analysis:relative_slowdown": ("tooling", "src/repro/experiments/artifacts.py"),
        "repro.experiments.analysis:time_to_threshold": ("tooling", "src/repro/experiments/artifacts.py"),
        "repro.experiments.analysis:convergence_summary": ("tooling", "tests/test_analysis_schedulers.py"),
        "repro.experiments.analysis:area_under_curve": ("tooling", "tests/test_analysis_schedulers.py"),
        "repro.experiments.analysis:improvement_rate": ("tooling", "tests/test_analysis_schedulers.py"),
        "repro.coreset.strategies:_select": ("tooling", "src/repro/experiments/artifacts.py"),
        "repro.coreset.strategies:uniform_coreset": ("tooling", "src/repro/experiments/artifacts.py"),
        "repro.coreset.strategies:kmeans_coreset": ("tooling", "src/repro/experiments/artifacts.py"),
        "repro.nn.serialize:save_model": ("tooling", "src/repro/cli.py"),
        "repro.nn.serialize:load_model": ("tooling", "src/repro/cli.py"),
        "repro.nn.serialize:_hidden_width": ("tooling", "src/repro/cli.py"),
        "repro.telemetry.export:export_metrics_csv": ("tooling", "src/repro/cli.py"),
        "repro.telemetry.export:_json_default": ("tooling", "src/repro/cli.py"),
        "repro.core.chatlog:ChatLog.mean_psi": ("tooling", "tests/test_core_chatlog.py"),
        "repro.core.chatlog:ChatLog.one_sided_fraction": ("tooling", "tests/test_core_chatlog.py"),
        "repro.core.chatlog:ChatLog.per_vehicle_chats": ("tooling", "tests/test_core_chatlog.py"),
        "repro.engine.metrics:CounterSet.get": ("tooling", "examples/finetune_pretrained.py"),
        "repro.engine.metrics:ReceiveRateRecorder.rate": ("tooling", "examples/finetune_pretrained.py"),
        "repro.sim.dataset:DrivingDataset.frame": ("tooling", "examples/finetune_pretrained.py"),
        "repro.sim.dataset:DrivingDataset.frames": ("tooling", "examples/online_driving_eval.py"),
        "repro.sim.dataset:DrivingDataset.extend": ("tooling", "examples/online_driving_eval.py"),
        "repro.sim.dataset:DrivingDataset.command_counts": ("tooling", "examples/quickstart.py"),
        "repro.sim.traces:MobilityTraces.duration": ("tooling", "examples/fleet_training.py"),
        # Run code a row should reach and does not.
        "repro.experiments.multiseed": ("owed", "ROADMAP item 2"),
        "repro.coreset.theory": ("owed", "ROADMAP item 3"),
        "repro.coreset.verify": ("owed", "ROADMAP item 3"),
    }

    REPO = Path(__file__).parent.parent

    @classmethod
    def defined_functions(cls, root: Path | None = None) -> dict[str, int]:
        """``"repro.module:qualname" -> lines`` for every function under
        ``root`` (``src/``), named as :func:`repro.selfcheck.entering`
        names the code it sees."""
        root = root or cls.REPO / "src"
        found = {}
        for path in sorted((root / "repro").rglob("*.py")):
            module = ".".join(path.relative_to(root).with_suffix("").parts).removesuffix(".__init__")

            def walk(node, prefix):
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        qualname = prefix + child.name
                        found[f"{module}:{qualname}"] = child.end_lineno - child.lineno + 1
                        walk(child, qualname + ".<locals>.")
                    elif isinstance(child, ast.ClassDef):
                        walk(child, prefix + child.name + ".")
                    else:
                        walk(child, prefix)

            walk(ast.parse(path.read_text()), "")
        return found

    @classmethod
    def called_at_import(cls, root: Path | None = None) -> set[str]:
        """Module functions a module calls by name as it is imported (in
        its top-level statements, class bodies and decorators): they run
        before any row starts, in whatever order the suite imports."""
        root = root or cls.REPO / "src"
        found = set()
        for path in sorted((root / "repro").rglob("*.py")):
            module = ".".join(path.relative_to(root).with_suffix("").parts).removesuffix(".__init__")
            tree = ast.parse(path.read_text())
            own = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}

            def walk(node):
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        for expr in [*child.decorator_list, *child.args.defaults]:
                            walk(expr)
                    elif isinstance(child, ast.If) and "__main__" in ast.unparse(child.test):
                        continue  # run as a program, not imported
                    elif not isinstance(child, ast.Lambda):
                        if isinstance(child, ast.Call) and isinstance(child.func, ast.Name):
                            if child.func.id in own:
                                found.add(f"{module}:{child.func.id}")
                        walk(child)

            walk(tree)
        return found

    @classmethod
    def census(cls, defined: dict, entered: set, references: dict) -> list[str]:
        """What fails the census: an unentered function no entry names,
        and an entry that names nothing unentered."""
        problems, used = [], set()
        for name in sorted(set(defined) - entered):
            module = name.partition(":")[0]
            key = name if name in references else module if module in references else None
            if key is None:
                problems.append(f"{name}: entered by no row, named by no REFERENCES entry")
            used.add(key)
        for key, (kind, reader) in sorted(references.items()):
            if key not in used:
                state = "gone" if key not in defined and ":" in key else "entered by a row"
                problems.append(f"{key}: stale REFERENCES entry ({state})")
            if kind not in cls.KINDS:
                problems.append(f"{key}: unknown kind {kind!r}")
        return problems

    def test_every_function_is_entered_or_referenced(self, runner):
        from repro.experiments.runner import online_evaluate

        entered = set()
        for name in selfcheck.CHECKS:
            entered |= runner.check(name).entered
        base = runner.check("overlap.off")
        # Which functions an evaluation enters, not a success rate: one
        # trial of one model per condition.
        scale = replace(base.context.scale, eval_trials=1, eval_models=1)
        with selfcheck.entering() as evaluated:
            online_evaluate(base.result, replace(base.context, scale=scale))
        entered |= evaluated | self.called_at_import()
        problems = self.census(self.defined_functions(), entered, self.REFERENCES)
        assert problems == [], "\n".join(problems)

    def test_every_reader_exists(self):
        for key, (kind, reader) in self.REFERENCES.items():
            if kind == "owed":
                assert reader.startswith("ROADMAP item "), key
            elif reader in selfcheck.CHECKS:
                continue
            else:
                path, _, name = reader.partition("::")
                assert (self.REPO / path).exists(), f"{key}: no {path}"
                assert name in (self.REPO / path).read_text(), f"{key}: no {name} in {path}"

    def test_the_census_bites(self):
        defined = {"repro.x:f": 3, "repro.x:g": 2, "repro.y:h": 1}
        assert self.census(defined, set(defined), {}) == []
        # g is defined, and a test may call it, but no row enters it.
        (problem,) = self.census(defined, {"repro.x:f", "repro.y:h"}, {})
        assert problem.startswith("repro.x:g: entered by no row")
        named = {"repro.x:g": ("oracle", "tests/test_x.py")}
        assert self.census(defined, {"repro.x:f", "repro.y:h"}, named) == []
        (problem,) = self.census(defined, set(defined), named)
        assert problem == "repro.x:g: stale REFERENCES entry (entered by a row)"
        (problem,) = self.census(defined, set(defined), {"repro.x:gone": ("oracle", "t")})
        assert problem == "repro.x:gone: stale REFERENCES entry (gone)"
        by_module = {"repro.x": ("tooling", "src/repro/cli.py")}
        assert self.census(defined, {"repro.y:h"}, by_module) == []
        assert len(self.census(defined, set(defined), by_module)) == 1
        (problem,) = self.census(defined, {"repro.x:f", "repro.y:h"}, {"repro.x:g": ("x", "t")})
        assert "unknown kind" in problem

    def test_entering_names_code_as_the_census_does(self):
        """Qualified names, nested functions included, on this thread and
        on every thread started inside the block."""
        from repro.core.value import truncated_gain

        with selfcheck.entering() as names:
            worker = threading.Thread(target=truncated_gain, args=(1.0, 2.0))
            worker.start()
            worker.join()
        assert "repro.core.value:truncated_gain" in names
        assert names <= set(self.defined_functions())
        assert "repro.selfcheck:entering.<locals>.profile" in self.defined_functions()
        assert "repro.experiments.configs:register_scale" in self.called_at_import()


def test_table_and_golden_file_agree():
    golden = json.loads(selfcheck.GOLDEN_PATH.read_text())
    recorded = {name for name, check in selfcheck.CHECKS.items() if check.reference == "golden"}
    assert set(golden) == recorded
    for name, check in selfcheck.CHECKS.items():
        assert check.name == name
        if check.reference not in ("golden", None):
            assert check.reference in selfcheck.CHECKS, f"{name} is read against a missing row"
            assert check.reference != name
        if check.world is not None:
            selfcheck.build_scale(check.world)


def tampered_golden(tmp_path, monkeypatch, *rows):
    """Point the selfcheck at a copy of the golden file with the first
    byte of one value of each of ``rows`` flipped."""
    golden = json.loads(selfcheck.GOLDEN_PATH.read_text())
    for row in rows:
        key = sorted(golden[row])[0]
        value = golden[row][key]
        golden[row][key] = ("0" if value[0] != "0" else "1") + value[1:]
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    monkeypatch.setattr(selfcheck, "GOLDEN_PATH", path)
    return path


def test_flipped_golden_byte_fails_naming_row_and_key(tmp_path, monkeypatch, capsys):
    tampered_golden(tmp_path, monkeypatch, CHEAP_ROW)
    assert main(["selfcheck", CHEAP_ROW]) != 0
    out = capsys.readouterr().out
    key = sorted(json.loads(selfcheck.GOLDEN_PATH.read_text())[CHEAP_ROW])[0]
    assert f"FAIL {CHEAP_ROW}: {key}: got" in out
    assert "selfcheck FAILED" in out


def test_unknown_row_is_rejected(capsys):
    assert main(["selfcheck", "no.such.row"]) == 2
    assert "no.such.row" in capsys.readouterr().out


def test_record_rewrites_only_the_rows_named(tmp_path, monkeypatch, capsys):
    true_golden = json.loads(selfcheck.GOLDEN_PATH.read_text())
    path = tampered_golden(tmp_path, monkeypatch, CHEAP_ROW, "hotpath.SCO")
    tampered = json.loads(path.read_text())
    assert main(["selfcheck", CHEAP_ROW, "--record"]) == 0
    rewritten = json.loads(path.read_text())
    assert rewritten[CHEAP_ROW] == true_golden[CHEAP_ROW] != tampered[CHEAP_ROW]
    del rewritten[CHEAP_ROW], tampered[CHEAP_ROW]
    assert rewritten == tampered  # hotpath.SCO still carries its flipped byte
    assert main(["selfcheck", CHEAP_ROW]) == 0


def test_selfcheck_pins_blas_whoever_calls_it(monkeypatch, capsys):
    """Called from Python after the caller asked for two GEMM threads, a
    row still runs on one: the goldens are single-thread results."""
    from repro.blas import blas_threads, pin_blas_threads

    seen = []

    def note_threads(runner, check, scratch):
        seen.append(blas_threads())
        return selfcheck.Run({})

    row = selfcheck.Check("blas.seen", None, produce=note_threads)
    monkeypatch.setitem(selfcheck.CHECKS, row.name, row)
    pin_blas_threads(2)
    try:
        if blas_threads() != 2:
            pytest.skip("this BLAS runs one thread whatever it is asked")
        assert selfcheck.selfcheck([row.name]) == 0
    finally:
        pin_blas_threads()
    assert seen == [1]
    assert "BLAS threads: 1" in capsys.readouterr().out


def test_failed_row_keeps_its_scratch_directory(tmp_path, monkeypatch):
    """A passing row's temporary directory is gone; a failing row's is
    copied aside and named in the failure list."""

    def leave_a_file(runner, check, scratch):
        (scratch / "evidence.txt").write_text("x")
        return selfcheck.Run({}, failures=["made to fail"])

    row = selfcheck.Check("made.to.fail", None, produce=leave_a_file)
    monkeypatch.setitem(selfcheck.CHECKS, row.name, row)
    monkeypatch.setattr(selfcheck.tempfile, "tempdir", str(tmp_path))
    run = selfcheck.Runner(golden={}).check(row.name)
    (kept,) = tmp_path.iterdir()
    assert [path.name for path in kept.iterdir()] == ["evidence.txt"]
    assert run.failures == ["made to fail", f"scratch directory kept at {kept}"]


def test_dense_steps_bites(runner, monkeypatch):
    """It passes on the real rows (``test_row``); one instant stepped a
    node at a time — what the hotpath world did before every minibatch
    was full — and a train event no bank step covered each fail it."""
    run = runner.check("hotpath.SCO")
    fleet, n = run.result.trainer.fleet, len(run.result.nodes)
    assert list(selfcheck.dense_steps(run)) == []
    with monkeypatch.context() as patch:
        patch.setattr(fleet, "step_width_sum", fleet.step_width_sum - n * (n - 1))
        assert len(list(selfcheck.dense_steps(run))) == 1
    with monkeypatch.context() as patch:
        patch.setitem(run.result.counters, "train_steps", fleet.step_events + 1)
        assert len(list(selfcheck.dense_steps(run))) == 1


def test_the_accounting_hooks_bite(runner, monkeypatch):
    """They pass on the real rows (``test_row``); a chat that reached
    neither the log nor the air, a leaked ledger mark and a model that
    arrived unattempted each fail them."""
    run = runner.check("overlap.on")
    trainer = run.result.trainer
    assert list(selfcheck.every_chat_accounted_once(run)) == []
    assert list(selfcheck.transfers_conserved(run)) == []
    with monkeypatch.context() as patch:
        patch.setattr(trainer.chat_log, "dropped", trainer.chat_log.dropped + 1)
        assert len(list(selfcheck.every_chat_accounted_once(run))) == 1
    with monkeypatch.context() as patch:
        patch.setattr(trainer.ledger, "in_flight", trainer.ledger.in_flight + 1)
        assert len(list(selfcheck.every_chat_accounted_once(run))) == 1
    with monkeypatch.context() as patch:
        patch.setattr(run.result, "receive_completed", run.result.receive_attempted + 1)
        assert len(list(selfcheck.transfers_conserved(run))) == 1


def test_a_chat_aborted_in_negotiate_bites(runner):
    """It passes on the short-range row (``test_row``), whose aborted
    chats the accounting hooks read; the city world's own radio keeps
    every chat whole and fails it."""
    run = runner.check("city.short_range")
    assert list(selfcheck.a_chat_aborted_in_negotiate(run)) == []
    assert run.result.trainer.chat_log.abort_counts()  # ... and the log holds one
    assert len(list(selfcheck.a_chat_aborted_in_negotiate(runner.check("city.LbChat")))) == 1


def test_models_attempted_bites(runner):
    """It passes on the checkpoint rows (``test_row``); the hotpath
    world, where every Eq. 7 decision is (0, 0), fails it."""
    assert list(selfcheck.models_attempted(runner.check("checkpoint.uninterrupted"))) == []
    assert len(list(selfcheck.models_attempted(runner.check("hotpath.LbChat")))) == 1


def test_clock_monotone_bites(runner):
    """It passes on the real rows (``test_row``), whose curves repeat T
    once (hotpath LbChat: ``... 30.0, 40.0, 40.0``); a step back in
    time, a second repeat, a curve that misses 0 or T each fail it."""
    from dataclasses import replace

    import numpy as np

    class Recorder:  # TimeSeriesRecorder refuses a step back at record time
        def __init__(self, times):
            self.times = np.asarray(times)

        def keys(self):
            return ["v0"]

        def series(self, key):
            return self.times, np.ones_like(self.times)

    run = runner.check("hotpath.LbChat")
    times, _ = run.result.loss_recorder.series(run.result.loss_recorder.keys()[0])
    assert times.tolist() == [0.0, 10.0, 20.0, 30.0, 40.0, 40.0]
    assert list(selfcheck.clock_monotone(run)) == []

    def verdicts(times):
        bad = selfcheck.Run({}, result=replace(run.result, loss_recorder=Recorder(times)))
        return len(list(selfcheck.clock_monotone(bad)))

    assert verdicts([0.0, 10.0, 20.0, 30.0, 40.0]) == 0  # T not on the recorder's grid
    for broken in (
        [0.0, 20.0, 10.0, 30.0, 40.0],
        [0.0, 10.0, 10.0, 30.0, 40.0],
        [0.0, 10.0, 40.0, 40.0, 40.0],
        [10.0, 20.0, 30.0, 40.0],
        [0.0, 10.0, 20.0, 30.0],
    ):
        assert verdicts(broken) == 1, broken


def test_every_row_that_runs_a_trainer_checks_its_clock():
    no_trainer = {
        selfcheck._contact_windows,
        selfcheck._fleet_segment,
        selfcheck._traces_in_process,
        selfcheck._traces_of_a_fresh_context,
    }
    for name, check in selfcheck.CHECKS.items():
        if check.world is not None and check.produce not in no_trainer:
            assert selfcheck.clock_monotone in check.invariants, name


def test_traces_came_from_a_child_bites(runner):
    """It passes on the real row (``test_row``); a set-up that ran its
    trace world in this process, for any reason, fails it by name."""
    from repro.telemetry import TelemetrySession

    run = runner.check("context.forked")
    assert list(selfcheck.traces_came_from_a_child(run)) == []
    session = TelemetrySession()
    session.registry.counter("fork.in_process.thread_alive").inc()
    (message,) = selfcheck.traces_came_from_a_child(selfcheck.Run({}, session=session))
    assert "fork.in_process.thread_alive" in message


def test_decisions_match_the_loop_bites(runner):
    """It passes on the real row (``test_row``), where Eq. 7 sent models;
    a decision the loop's maps flip fails it, and so do decisions that
    never send (any maps decide those alike) or none at all."""
    from dataclasses import replace

    from repro.core.psi import PsiDecision

    run = runner.check("psi.loop")
    assert list(selfcheck.decisions_match_the_loop(run)) == []
    probe, loop = next(pair for pair in run.facts["decisions"] if pair[0].psi_i or pair[0].psi_j)

    def verdicts(decisions):
        bad = selfcheck.Run({}, facts={**run.facts, "decisions": decisions})
        return list(selfcheck.decisions_match_the_loop(bad))

    (message,) = verdicts([(probe, replace(loop, psi_j=loop.psi_j + 0.05))])
    assert "flipped" in message and "largest relative map difference" in message
    idle = PsiDecision(0.0, 0.0, 0.3, 0.0)
    assert len(verdicts([(idle, idle)])) == 1
    assert len(verdicts([])) == 1


def test_the_stacked_dot_check_bites(monkeypatch):
    """This numpy passes it; a stacked product that sums ``x*x + y*y``
    instead of calling ``ddot`` per row fails it, as a BLAS whose
    ``ddot`` rounds otherwise would."""
    import numpy as np

    assert list(selfcheck._stacked_dot()) == []

    def unfused(a, b):
        return np.add.reduce(a[:, 0, :] * b[:, :, 0], axis=1)[:, None, None]

    monkeypatch.setattr(np, "matmul", unfused)
    (message,) = selfcheck._stacked_dot()
    assert "per-object walkers" in message


def test_every_pedestrian_branch_is_an_oracle_branch():
    """The walkers' four branches are counted, so ``rare_branches_fired``
    fails the ``world.*`` rows if one never ran."""
    walkers = [branch for branch in selfcheck.ORACLE_BRANCHES if "pedestrian" in branch]
    assert len(walkers) == 4
    run = selfcheck.Run({}, facts={"fired": dict.fromkeys(selfcheck.ORACLE_BRANCHES, 1)})
    assert list(selfcheck.rare_branches_fired(run)) == []
    run.facts["fired"]["pedestrian waited at the curb"] = 0
    (message,) = selfcheck.rare_branches_fired(run)
    assert "waited at the curb" in message
