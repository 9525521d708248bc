"""Glue tests for the artifact registry with run_specs stubbed out.

The real training paths are covered by the benchmark suite; these tests
pin the orchestration logic (which specs get built, with which flags,
and how results are assembled) without any training cost.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import artifacts
from repro.experiments.artifacts import ARTIFACTS, CONDITIONS, MAIN_METHODS, produce
from repro.experiments.configs import CI
from repro.experiments.runner import RunSpec

ROOT = Path(__file__).resolve().parents[1]
PAPER_ARTIFACTS = [name for name in ARTIFACTS if not name.startswith("ablation_")]


class FakeResult:
    """A RunResult as far as ``produce`` reads one (no ``trainer``: a run
    that crossed a process has none)."""

    duration = CI.train_duration
    receive_rate = 0.75
    counters = {"chats": 4.0, "chat_seconds": 10.0}

    def __init__(self, method):
        self.method = method

    def loss_curve(self, n_points=21):
        grid = np.linspace(0.0, self.duration, n_points)
        return grid, np.linspace(5.0, 1.0, n_points)


class Recorder:
    """What the patched run_specs saw: every spec, and each call's jobs."""

    def __init__(self):
        self.specs = []
        self.jobs = []
        self.evaluated = []

    @property
    def methods(self):
        return [spec.method for spec in self.specs]


@pytest.fixture()
def record_calls(monkeypatch):
    recorder = Recorder()

    class FakeContext:
        scale = CI

    def fake_run_specs(specs, jobs=1, **kwargs):
        recorder.specs.extend(specs)
        recorder.jobs.append(jobs)
        return [FakeResult(spec.method) for spec in specs]

    def fake_online_evaluate(result, context, seed=1):
        recorder.evaluated.append(result)
        return {cond: 90.0 for cond in CONDITIONS}

    monkeypatch.setattr(artifacts, "build_context", lambda scale: FakeContext())
    monkeypatch.setattr(artifacts, "register_context", lambda context: None)
    monkeypatch.setattr(artifacts, "run_specs", fake_run_specs)
    monkeypatch.setattr(artifacts, "online_evaluate", fake_online_evaluate)
    return recorder


def one(name, **kwargs):
    return produce([name], "ci", **kwargs)[name]


class TestFigGlue:
    def test_fig2_trains_all_five(self, record_calls):
        result = one("fig2b")
        assert record_calls.methods == list(MAIN_METHODS)
        assert all(spec.wireless for spec in record_calls.specs)
        assert result.columns == list(MAIN_METHODS)
        assert result.grid[-1] == CI.train_duration and len(result.grid) == 21

    def test_fig3_trains_lbchat_and_sco(self, record_calls):
        result = one("fig3")
        assert record_calls.methods == ["LbChat", "SCO"]
        assert result.final("LbChat") == pytest.approx(1.0)

    def test_receive_rates_all_methods(self, record_calls):
        rates = one("rates").numbers
        assert set(rates) == set(MAIN_METHODS)
        assert all(rate == 0.75 for rate in rates.values())

    def test_jobs_forwarded(self, record_calls):
        one("fig2a", jobs=3)
        assert record_calls.jobs == [3]

    def test_curves_of_one_figure_must_share_a_grid(self, record_calls, monkeypatch):
        """The x-axis comes from the runs, not from the scale (grid drift)."""
        real = FakeResult.loss_curve

        def sco_stops_early(self, n_points=21):
            if self.method == "SCO":
                return np.linspace(0.0, 60.0, n_points), np.linspace(5.0, 1.0, n_points)
            return real(self, n_points)

        monkeypatch.setattr(FakeResult, "loss_curve", sco_stops_early)
        with pytest.raises(ValueError, match="share a time grid"):
            one("fig3")


class TestTableGlue:
    def test_table2_no_wireless(self, record_calls):
        result = one("table2")
        assert all(not spec.wireless for spec in record_calls.specs)
        assert result.columns == list(MAIN_METHODS)
        assert result.cell("Straight", "LbChat") == 90.0

    def test_table3_wireless(self, record_calls):
        one("table3")
        assert all(spec.wireless for spec in record_calls.specs)

    def test_table4_coreset_sizes(self, record_calls):
        result = one("table4")
        large, small = CI.coreset_size * 10, max(CI.coreset_size // 10, 2)
        sizes = [spec.coreset_size for spec in record_calls.specs]
        assert sizes == [large, small, large, small, None]  # None: the default-size reference
        assert all(spec.method == "LbChat" for spec in record_calls.specs)
        assert result.columns == [
            f"{large} (W/O)", f"{small} (W/O)", f"{large} (W)", f"{small} (W)",
        ]

    def test_table5_uses_equal_comp_variant(self, record_calls):
        result = one("table5")
        assert record_calls.methods == ["LbChat (equal comp.)"] * 2 + ["LbChat"]
        assert result.columns == ["W/O wireless loss", "W wireless loss"]

    def test_table6_uses_avg_agg_variant(self, record_calls):
        one("table6")
        assert record_calls.methods == ["LbChat (avg. agg.)"] * 2 + ["LbChat"]

    def test_table7_uses_sco(self, record_calls):
        result = one("table7")
        assert record_calls.methods == ["SCO", "SCO", "LbChat"]
        assert "coreset only" in result.title
        assert "LbChat" not in result.render()  # the reference run is not a column

    def test_jobs_forwarded(self, record_calls):
        one("table2", jobs=4)
        assert record_calls.jobs == [4]


def spec(method, wireless, **kwargs):
    return RunSpec(method=method, scale=CI, wireless=wireless, seed=1, **kwargs)


#: What each artifact trains, written down from the functions the
#: registry replaced (``experiments/tables.py``, ``figures.py``) and, for
#: the reference runs and the ablations, from the per-artifact
#: ``benchmarks/test_*.py``.
EXPECTED_SPECS = {
    "fig2a": [spec(m, False) for m in ("ProxSkip", "RSU-L", "DFL-DDS", "DP", "LbChat")],
    "fig2b": [spec(m, True) for m in ("ProxSkip", "RSU-L", "DFL-DDS", "DP", "LbChat")],
    "rates": [spec(m, True) for m in ("ProxSkip", "RSU-L", "DFL-DDS", "DP", "LbChat")],
    "table2": [spec(m, False) for m in ("ProxSkip", "RSU-L", "DFL-DDS", "DP", "LbChat")],
    "table3": [spec(m, True) for m in ("ProxSkip", "RSU-L", "DFL-DDS", "DP", "LbChat")],
    "table4": [
        spec("LbChat", False, coreset_size=120),
        spec("LbChat", False, coreset_size=2),
        spec("LbChat", True, coreset_size=120),
        spec("LbChat", True, coreset_size=2),
        spec("LbChat", False),
    ],
    "table5": [
        spec("LbChat (equal comp.)", False),
        spec("LbChat (equal comp.)", True),
        spec("LbChat", True),
    ],
    "table6": [
        spec("LbChat (avg. agg.)", False),
        spec("LbChat (avg. agg.)", True),
        spec("LbChat", True),
    ],
    "table7": [spec("SCO", False), spec("SCO", True), spec("LbChat", False)],
    "fig3": [spec("LbChat", True), spec("SCO", True)],
    "ablation_no_priority": [spec("LbChat", True), spec("LbChat (no priority)", True)],
    "ablation_coreset_strategy": [
        spec("LbChat", True, coreset_strategy=s) for s in ("layered", "uniform", "kmeans")
    ],
    "ablation_lambda_c": [
        spec("LbChat", True, overrides={"lambda_c": lam}) for lam in (0.0, 0.02, 0.5)
    ],
}


class TestRegistry:
    def test_every_artifact_is_written_down(self):
        assert list(EXPECTED_SPECS) == list(ARTIFACTS)

    @pytest.mark.parametrize("name", list(ARTIFACTS))
    def test_submits_the_parents_specs(self, record_calls, name):
        one(name)
        assert record_calls.specs == EXPECTED_SPECS[name]

    @pytest.mark.parametrize(
        "names, trainings", [(list(ARTIFACTS), 27), (PAPER_ARTIFACTS, 20)]
    )
    def test_nothing_trained_or_evaluated_twice(self, record_calls, names, trainings):
        results = produce(names, "ci", jobs=2)
        assert list(results) == names
        assert record_calls.jobs == [2]  # one run_specs call for the union
        specs = record_calls.specs
        assert len(specs) == trainings  # 37 for the ten through the old per-function path
        assert not any(a == b for i, a in enumerate(specs) for b in specs[:i])
        evaluated = [id(result) for result in record_calls.evaluated]
        assert len(evaluated) == len(set(evaluated)) == 20

    def test_every_claim_returns_a_verdict_and_a_detail(self, record_calls):
        for name, result in produce(list(ARTIFACTS), "ci").items():
            checks = result.claims()
            assert len(checks) == len(ARTIFACTS[name].claims) >= 1
            for check in checks:
                assert isinstance(check.verdict, bool), (name, check.claim)
                assert isinstance(check.detail, str) and check.detail, (name, check.claim)

    def test_overrides_reach_every_spec(self, record_calls):
        produce(list(ARTIFACTS), "ci", overrides={"step_workers": 2, "overlap_chat": True})
        for submitted in record_calls.specs:
            assert submitted.overrides["step_workers"] == 2
            assert submitted.overrides["overlap_chat"] is True
        sweep = [s.overrides["lambda_c"] for s in record_calls.specs if "lambda_c" in s.overrides]
        assert sweep == [0.0, 0.02, 0.5]  # a run's own overrides survive

    def test_a_runs_own_override_wins(self, record_calls):
        one("ablation_lambda_c", overrides={"lambda_c": 9.0})
        assert [s.overrides["lambda_c"] for s in record_calls.specs] == [0.0, 0.02, 0.5]

    def test_lambda_c_reads_counters_off_the_result(self, record_calls):
        result = one("ablation_lambda_c")  # FakeResult has no ``trainer`` to read
        assert result.numbers["lambda_c=0.5"]["mean_chat_s"] == 2.5
        assert "mean chat   2.5s" in result.render()


def backticked_first_cells(markdown: str) -> list[str]:
    """The `name` opening each table row that starts with one."""
    return re.findall(r"^\| `([a-z0-9_]+)` \|", markdown, flags=re.MULTILINE)


class TestSuiteAndDocs:
    def test_benchmark_suite_collects_one_id_per_artifact(self):
        """Tier-1 never runs ``benchmarks/``; it must at least import."""
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "benchmarks", "--ignore=benchmarks/perf",
             "--collect-only", "-q", "-o", "addopts=", "-p", "no:cacheprovider"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
            )},
        )
        assert done.returncode == 0, done.stdout + done.stderr
        ids = [line for line in done.stdout.splitlines() if "::" in line]
        assert ids == [f"benchmarks/test_artifacts.py::test_artifact[{name}]" for name in ARTIFACTS]

    @pytest.mark.parametrize("doc", ["DESIGN.md", "benchmarks/README.md"])
    def test_docs_index_names_exactly_the_registry(self, doc):
        assert backticked_first_cells((ROOT / doc).read_text()) == list(ARTIFACTS)
