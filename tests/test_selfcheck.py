"""``repro selfcheck``: its table as tier-1 tests, and the checker checked.

The parametrised test runs every row of ``repro.selfcheck.CHECKS``
through one module-scoped runner, so each world is built and each
reference row run once.  The rest pins the tool itself: the table and
the golden file agree on their keys, a tampered golden is reported by
row and key, and ``--record`` rewrites only what it was asked to.
"""

import json

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
