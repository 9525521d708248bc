"""Unit tests for the ArtifactResult container and its helpers."""

import pytest

from repro.experiments.analysis import time_to_threshold
from repro.experiments.artifacts import ARTIFACTS, CONDITIONS, ArtifactResult


class TestTableResult:
    def _table(self):
        numbers = {
            column: {cond: rate for cond in CONDITIONS} for column, rate in (("A", 90.0), ("B", 70.0))
        }
        numbers["A"]["Navi. (Dense)"], numbers["B"]["Navi. (Dense)"] = 60.0, 40.0
        return ArtifactResult(
            artifact=ARTIFACTS["table3"], scale="ci", seed=1, columns=["A", "B"],
            numbers=numbers, receive_rates={"A": 0.9, "B": 0.5},
        )

    def test_cell_lookup(self):
        table = self._table()
        assert table.cell("Navi. (Dense)", "A") == 60.0
        assert table.cell("Straight", "B") == 70.0
        assert table.values["Navi. (Dense)"] == {"A": 60.0, "B": 40.0}

    def test_render_contains_all_conditions(self):
        text = self._table().render()
        for cond in CONDITIONS:
            assert cond in text

    def test_render_numeric_cells(self):
        text = self._table().render()
        assert "90" in text and "40" in text


class TestFigureResult:
    def _figure(self):
        grid = [10.0 * k for k in range(11)]
        return ArtifactResult(
            artifact=ARTIFACTS["fig3"], scale="ci", seed=1, columns=["fast", "slow"],
            numbers={
                "fast": [5.0 - 0.45 * k for k in range(11)],
                "slow": [5.0 - 0.3 * k for k in range(11)],
            },
            receive_rates={"fast": 0.9, "slow": 0.9},
            grid=grid,
        )

    def test_final(self):
        figure = self._figure()
        assert figure.final("fast") == pytest.approx(0.5)
        assert figure.final("slow") == pytest.approx(2.0)

    def test_convergence_time_ordering(self):
        """A result's grid and curves go straight into the one convergence time."""
        figure = self._figure()
        fast, slow = (
            time_to_threshold(figure.grid, figure.numbers[name], 2.5) for name in ("fast", "slow")
        )
        assert fast < slow

    def test_render_mentions_methods(self):
        text = self._figure().render()
        assert "fast" in text and "slow" in text

    def test_save_load_round_trip(self, tmp_path):
        figure = self._figure()
        figure.save(tmp_path)
        stem = ARTIFACTS["fig3"].stem
        assert (tmp_path / f"{stem}.txt").read_text() == figure.render() + "\n"
        assert ArtifactResult.load(tmp_path / f"{stem}.json") == figure
