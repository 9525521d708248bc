"""Tests for the reproduction-report generator."""

from repro.experiments.artifacts import ARTIFACTS, ArtifactResult
from repro.experiments.report import build_report

RATES = {"ProxSkip": 0.69, "RSU-L": 0.61, "DFL-DDS": 0.471, "DP": 0.472, "LbChat": 0.75}

GRID = [0.0, 40.0, 80.0]
CURVES = {
    "ProxSkip": [6.244, 4.281, 0.870],
    "RSU-L": [6.244, 4.9, 1.1],
    "DFL-DDS": [6.244, 5.456, 3.598],
    "DP": [6.302, 6.158, 1.540],
    "LbChat": [6.339, 4.708, 0.905],
}


def saved(out_dir, name, numbers, grid=None):
    ArtifactResult(
        artifact=ARTIFACTS[name], scale="ci", seed=1, columns=list(numbers),
        numbers=numbers, receive_rates={}, grid=grid,
    ).save(out_dir)


class TestBuildReport:
    def test_full_report_with_artifacts(self, tmp_path):
        saved(tmp_path, "rates", RATES)
        saved(tmp_path, "fig2b", CURVES, GRID)
        saved(tmp_path, "fig3", {"LbChat": [6.0, 2.0, 0.9], "SCO": [6.0, 3.0, 0.95]}, GRID)
        report = build_report(tmp_path)
        assert "# Reproduction report" in report
        assert "[x] Under wireless loss LbChat converges" in report
        assert "[x] LbChat's receive rate" in report
        assert "[x] LbChat converges at least as fast" in report
        assert "receive_rates.txt" in report
        assert "[ ]" not in report

    def test_missing_artifacts_marked_unknown(self, tmp_path):
        report = build_report(tmp_path)
        n_claims = sum(len(artifact.claims) for artifact in ARTIFACTS.values())
        assert report.count("[?]") == n_claims
        assert "[x]" not in report and "[ ]" not in report

    def test_failed_claim_marked(self, tmp_path):
        saved(tmp_path, "fig2b", {**CURVES, "LbChat": [6.339, 4.708, 9.999]}, GRID)
        report = build_report(tmp_path)
        assert "[ ] Under wireless loss LbChat converges" in report

    def test_fig3_verdict_is_the_benchmark_suites_rule(self, tmp_path):
        """``SCO <= 1.6 LbChat + 0.1`` and the 1.8x time bound gate, not
        ``LbChat <= SCO + 0.02``; never converging is said, not clipped."""
        saved(tmp_path, "fig3", {"LbChat": [6.0, 2.0, 0.98], "SCO": [6.0, 3.0, 0.95]}, GRID)
        assert "[ ]" not in build_report(tmp_path)
        saved(tmp_path, "fig3", {"LbChat": [6.0, 5.0, 0.9], "SCO": [6.0, 1.0, 0.9]}, GRID)
        report = build_report(tmp_path)
        assert "[ ] LbChat converges at least as fast" not in report  # 79 s <= 1.8 * 39 s + 30
        saved(tmp_path, "fig3", {"LbChat": [6.0, 5.0, 4.0], "SCO": [0.9, 0.9, 0.9]}, GRID)
        report = build_report(tmp_path)
        assert "[ ] SCO ends in LbChat's league" not in report
        assert "[ ] LbChat converges at least as fast" in report  # 80 s > 1.8 * 0 s + 30
