"""Unit tests for the wireless loss model."""

import numpy as np
import pytest

from repro.net import DEFAULT_LOSS_TABLE, WirelessModel


class TestLossTable:
    def test_monotone_in_distance(self):
        losses = [row[1] for row in DEFAULT_LOSS_TABLE]
        assert losses == sorted(losses)

    def test_loss_at_bins(self):
        model = WirelessModel()
        assert model.loss_at(10.0) == 0.01
        assert model.loss_at(50.0) == 0.01  # boundary inclusive
        assert model.loss_at(51.0) == 0.03
        assert model.loss_at(499.0) == 0.80

    def test_out_of_range_total_loss(self):
        model = WirelessModel()
        assert model.loss_at(501.0) == 1.0
        assert not model.in_range(501.0)

    def test_disabled_is_lossless_within_range(self):
        model = WirelessModel(enabled=False)
        assert model.loss_at(450.0) == 0.0
        assert model.loss_at(501.0) == 1.0  # range still applies

    def test_unsorted_table_rejected(self):
        with pytest.raises(ValueError):
            WirelessModel(table=((100.0, 0.1), (50.0, 0.05)))


class TestGoodput:
    def test_goodput_factor_complements_loss(self):
        model = WirelessModel()
        assert model.goodput_factor(10.0) == pytest.approx(0.99)
        assert model.goodput_factor(600.0) == 0.0

    def test_expected_goodput_averages(self):
        model = WirelessModel()
        distances = np.array([10.0, 499.0])
        expected = (0.99 + 0.20) / 2
        assert model.expected_goodput_factor(distances) == pytest.approx(expected)

    def test_expected_goodput_empty(self):
        assert WirelessModel().expected_goodput_factor(np.zeros(0)) == 0.0


#: Every way a model answers: the table, lossless within range, one
#: distance-independent loss, and a range that ends inside the table.
MODELS = {
    "table": WirelessModel(),
    "disabled": WirelessModel(enabled=False),
    "fixed": WirelessModel.fixed(0.3),
    "short-range": WirelessModel(max_range=320.0),
}


class TestGoodputOverArrays:
    """The array lookup against the scalar table scan, value for value."""

    #: Exactly on every bound of the table (inclusive), just past each,
    #: zero, past ``max_range`` and unordered.
    EDGES = np.array(
        [row[0] for row in DEFAULT_LOSS_TABLE]
        + [np.nextafter(row[0], np.inf) for row in DEFAULT_LOSS_TABLE]
        + [0.0, 320.0, 320.5, 499.999, 500.001, 1e6, 73.2, 12.0]
    )

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_factors_equal_the_scalar(self, name):
        model = MODELS[name]
        rng = np.random.default_rng(5)
        distances = np.concatenate([self.EDGES, rng.uniform(0.0, 700.0, 300)])
        want = [model.goodput_factor(d) for d in distances]
        assert model.goodput_factors(distances).tolist() == want
        grid = distances[:40].reshape(5, 8)
        assert model.goodput_factors(grid).tolist() == np.reshape(want[:40], (5, 8)).tolist()

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_expected_is_the_mean_of_the_scalar(self, name):
        model = MODELS[name]
        rng = np.random.default_rng(6)
        for n in (1, 2, 7, 8, 9, 64, 129, 300):
            distances = rng.choice(np.concatenate([self.EDGES, rng.uniform(0.0, 700.0, 50)]), n)
            want = float(np.array([model.goodput_factor(d) for d in distances]).mean())
            assert model.expected_goodput_factor(distances) == want
        assert model.expected_goodput_factor(np.zeros(0)) == 0.0
        assert model.expected_goodput_factor([]) == 0.0
