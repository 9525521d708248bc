"""Tests for value assessment (§III-B), Eq. 7 optimization, and Eq. 8."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.aggregate import aggregate_models, aggregation_weights
from repro.core.node import NOMINAL_MODEL_BYTES
from repro.core.psi import (
    PsiLossMap,
    build_psi_map,
    optimize_compression,
)
from repro.core.value import assess_value, truncated_gain


class TestValue:
    def test_truncated_gain_nonnegative(self):
        assert truncated_gain(1.0, 2.0) == 0.0
        assert truncated_gain(2.0, 1.0) == 1.0

    def test_value_to_i_uses_peer_coreset(self):
        value = assess_value(
            loss_i_on_ci=0.5, loss_i_on_cj=2.0, loss_j_on_cj=0.4, loss_j_on_ci=0.6
        )
        # i is bad on j's data (2.0) while j is good there (0.4).
        assert truncated_gain(value.loss_i_on_cj, value.loss_j_on_cj) == pytest.approx(1.6)
        assert truncated_gain(value.loss_j_on_ci, value.loss_i_on_ci) == pytest.approx(0.1)

    def test_similar_models_no_value(self):
        value = assess_value(0.5, 0.5, 0.5, 0.5)
        assert truncated_gain(value.loss_i_on_cj, value.loss_j_on_cj) == 0.0
        assert truncated_gain(value.loss_j_on_ci, value.loss_i_on_ci) == 0.0

    def test_negative_loss_rejected(self):
        with pytest.raises(ValueError):
            assess_value(-0.1, 1.0, 1.0, 1.0)


class TestPsiLossMap:
    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            PsiLossMap(np.array([0.5]), np.array([1.0]))

    def test_interpolates_between_samples(self):
        psi_map = PsiLossMap(np.array([0.1, 0.5, 1.0]), np.array([3.0, 1.5, 1.0]))
        mid = psi_map.loss_at(0.75)
        assert 1.0 < mid < 1.5

    def test_clamps_outside_range(self):
        psi_map = PsiLossMap(np.array([0.1, 1.0]), np.array([3.0, 1.0]))
        assert psi_map.loss_at(0.0) == pytest.approx(3.0)
        assert psi_map.loss_at(2.0) == pytest.approx(1.0)

    def test_payload_roundtrip(self):
        """The (psi, loss) samples a map is fitted to are the ones it keeps."""
        psi_map = PsiLossMap(np.array([0.1, 1.0]), np.array([3.0, 1.0]))
        assert list(zip(psi_map.psis.tolist(), psi_map.losses.tolist())) == [(0.1, 3.0), (1.0, 1.0)]

    def test_build_map_decreasing_overall(self, node):
        psi_map = build_psi_map(
            node.detached_model(),
            lambda probe: node.evaluate_model_on(probe, node.coreset.data),
            NOMINAL_MODEL_BYTES,
        )
        # Full model (psi=1) should score no worse than the 5% model.
        assert psi_map.loss_at(1.0) <= psi_map.loss_at(0.05) + 1e-6

    def test_build_map_restores_model(self, node):
        from repro.nn.params import get_flat_params

        model = node.detached_model()
        before = get_flat_params(model).copy()
        build_psi_map(
            model,
            lambda probe: node.evaluate_model_on(probe, node.coreset.data),
            NOMINAL_MODEL_BYTES,
        )
        assert np.array_equal(get_flat_params(model), before)


def flat_maps(loss_at_one=1.0, loss_at_min=3.0):
    return PsiLossMap(np.array([0.05, 1.0]), np.array([loss_at_min, loss_at_one]))


class TestOptimizeCompression:
    BANDWIDTH = 31e6
    SIZE = 52 * 1024 * 1024

    def test_respects_time_constraint(self):
        decision = optimize_compression(
            flat_maps(),
            flat_maps(),
            loss_i_on_cj=5.0,
            loss_j_on_ci=5.0,
            model_size_bytes=self.SIZE,
            bandwidth_bps=self.BANDWIDTH,
            time_budget=15.0,
            contact_duration=100.0,
        )
        assert decision.exchange_time <= 15.0 + 1e-9

    def test_valuable_models_get_high_psi(self):
        decision = optimize_compression(
            flat_maps(),
            flat_maps(),
            loss_i_on_cj=10.0,
            loss_j_on_ci=10.0,
            model_size_bytes=self.SIZE,
            bandwidth_bps=self.BANDWIDTH,
            time_budget=30.0,
            contact_duration=100.0,
        )
        assert decision.psi_i > 0.5 and decision.psi_j > 0.5

    def test_worthless_models_not_sent(self):
        # Receivers already beat the senders everywhere: gains are zero,
        # so the time award drives psi to 0.
        decision = optimize_compression(
            flat_maps(loss_at_one=5.0, loss_at_min=6.0),
            flat_maps(loss_at_one=5.0, loss_at_min=6.0),
            loss_i_on_cj=0.1,
            loss_j_on_ci=0.1,
            model_size_bytes=self.SIZE,
            bandwidth_bps=self.BANDWIDTH,
            time_budget=15.0,
            contact_duration=100.0,
        )
        assert decision.psi_i == 0.0 and decision.psi_j == 0.0

    def test_asymmetric_value_asymmetric_psi(self):
        decision = optimize_compression(
            flat_maps(),  # i's model: j gains a lot
            flat_maps(loss_at_one=5.0, loss_at_min=6.0),  # j's model: useless to i
            loss_i_on_cj=0.1,
            loss_j_on_ci=10.0,
            model_size_bytes=self.SIZE,
            bandwidth_bps=self.BANDWIDTH,
            time_budget=15.0,
            contact_duration=100.0,
        )
        assert decision.psi_i > decision.psi_j

    def test_short_contact_limits_exchange(self):
        decision = optimize_compression(
            flat_maps(),
            flat_maps(),
            loss_i_on_cj=10.0,
            loss_j_on_ci=10.0,
            model_size_bytes=self.SIZE,
            bandwidth_bps=self.BANDWIDTH,
            time_budget=15.0,
            contact_duration=3.0,
        )
        assert decision.exchange_time <= 3.0 + 1e-9

    @pytest.mark.parametrize("lambda_c", [0.0, 0.02])
    def test_a_side_with_no_map_sends_nothing(self, lambda_c):
        """A diverged sender fits no map (``None``): its axis is the one a
        worthless model has, and the other side decides as beside one."""
        kwargs = dict(
            loss_i_on_cj=10.0,
            loss_j_on_ci=10.0,
            model_size_bytes=self.SIZE,
            bandwidth_bps=self.BANDWIDTH,
            time_budget=15.0,
            contact_duration=100.0,
            lambda_c=lambda_c,
        )
        worthless = flat_maps(loss_at_one=50.0, loss_at_min=60.0)
        for maps, no_map in (((None, flat_maps()), (worthless, flat_maps())),
                             ((flat_maps(), None), (flat_maps(), worthless))):
            decision = optimize_compression(*maps, **kwargs)
            assert decision == optimize_compression(*no_map, **kwargs)
        assert optimize_compression(None, flat_maps(), **kwargs).psi_i == 0.0
        neither = optimize_compression(None, None, **kwargs)
        assert (neither.psi_i, neither.psi_j) == (0.0, 0.0)

    def test_lambda_c_discourages_marginal_sends(self):
        greedy = optimize_compression(
            flat_maps(loss_at_one=1.0, loss_at_min=1.05),
            flat_maps(loss_at_one=1.0, loss_at_min=1.05),
            loss_i_on_cj=1.1,
            loss_j_on_ci=1.1,
            model_size_bytes=self.SIZE,
            bandwidth_bps=self.BANDWIDTH,
            time_budget=15.0,
            contact_duration=100.0,
            lambda_c=0.0,
        )
        frugal = optimize_compression(
            flat_maps(loss_at_one=1.0, loss_at_min=1.05),
            flat_maps(loss_at_one=1.0, loss_at_min=1.05),
            loss_i_on_cj=1.1,
            loss_j_on_ci=1.1,
            model_size_bytes=self.SIZE,
            bandwidth_bps=self.BANDWIDTH,
            time_budget=15.0,
            contact_duration=100.0,
            lambda_c=10.0,
        )
        assert frugal.psi_i + frugal.psi_j <= greedy.psi_i + greedy.psi_j


def seeded_maps(n_maps: int, seed: int = 20240):
    """``(psis, losses)`` pairs of 3 to 7 knots in four shapes: random,
    monotone, a flat run (Akima's weights vanish: the ``f12`` cutoff) and
    values rounded to 0.1 (interval slopes tie)."""
    from repro.core.psi import DEFAULT_PSI_GRID

    rng = np.random.default_rng(seed)
    grid = np.asarray(DEFAULT_PSI_GRID)
    for k in range(n_maps):
        n = int(rng.integers(3, 8))
        if k % 2:
            psis = np.sort(rng.choice(grid, n, replace=False))
        else:
            psis = np.cumsum(rng.uniform(0.02, 0.3, n))
        shape = k % 4
        if shape == 0:
            losses = rng.normal(2.0, 1.0, n)
        elif shape == 1:
            losses = np.sort(rng.uniform(0.0, 5.0, n))[::-1].copy()
        elif shape == 2:
            losses = rng.uniform(0.0, 5.0, n)
            start = int(rng.integers(0, n - 1))
            losses[start : start + int(rng.integers(2, n + 1))] = losses[start]
        else:
            losses = np.round(rng.uniform(0.0, 2.0, n), 1)
        yield psis, losses


class TestAkimaAgainstScipy:
    """The in-repo fit against ``scipy.interpolate.Akima1DInterpolator``.

    ``PsiLossMap`` follows scipy 1.17's arithmetic statement for
    statement, so on that scipy every value is equal to the bit; scipy
    has rewritten the knot-slope expression between releases, so on
    another one the comparison falls back to ``rtol=1e-12`` and warns.
    """

    FOLLOWED = (1, 17)
    #: Where Eq. 7 reads a map (``linspace`` gives 0.35000000000000003,
    #: not the knot 0.35), and two points outside any knot range.
    LATTICE = np.concatenate([np.linspace(0.0, 1.0, 21), [-1.0, 7.0]])

    def test_equal_to_scipy_on_seeded_maps(self):
        import warnings

        import scipy
        from scipy.interpolate import Akima1DInterpolator

        followed = tuple(int(p) for p in scipy.__version__.split(".")[:2]) == self.FOLLOWED
        mismatched = 0
        for psis, losses in seeded_maps(2400):
            psi_map = PsiLossMap(psis, losses)
            points = np.concatenate([self.LATTICE, psis])
            got = psi_map.losses_at(points)
            want = Akima1DInterpolator(psis, losses)(np.clip(points, psis[0], psis[-1]))
            # Through every knot an interval starts at (the last one is the
            # end of its cubic: scipy's value, not the sample's bits), and
            # clamped outside the knot range.
            assert np.array_equal(got[-len(psis) : -1], losses[:-1])
            assert got[21] == losses[0] and got[22] == got[-1]
            if followed:
                assert np.array_equal(got, want), (psis, losses)
            else:
                mismatched += not np.array_equal(got, want)
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        if mismatched:
            warnings.warn(
                f"scipy {scipy.__version__}'s Akima differs from the in-repo fit (which "
                f"follows scipy {'.'.join(map(str, self.FOLLOWED))}) in the last bits of "
                f"{mismatched} of 2400 maps; compared at rtol=1e-12",
                stacklevel=1,
            )

    def test_one_psi_is_the_array_statement(self):
        for psis, losses in seeded_maps(50, seed=7):
            psi_map = PsiLossMap(psis, losses)
            many = psi_map.losses_at(self.LATTICE)
            assert [psi_map.loss_at(p) for p in self.LATTICE] == many.tolist()
            assert all(type(psi_map.loss_at(p)) is float for p in self.LATTICE[:3])

    def test_two_knots_are_np_interp(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            psis = np.cumsum(rng.uniform(0.05, 0.6, 2))
            losses = rng.normal(2.0, 1.0, 2)
            got = PsiLossMap(psis, losses).losses_at(self.LATTICE)
            want = np.interp(np.clip(self.LATTICE, psis[0], psis[1]), psis, losses)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "psis, losses",
        [
            ([0.1, 0.5, np.nan], [1.0, 2.0, 3.0]),
            ([0.1, 0.5, 1.0], [1.0, np.inf, 3.0]),
            ([0.1, 0.5, 0.5], [1.0, 2.0, 3.0]),
            ([0.5, 0.1], [1.0, 2.0]),
        ],
        ids=["nan-psi", "inf-loss", "repeated-psi", "descending"],
    )
    def test_refuses_what_scipy_refused(self, psis, losses):
        with pytest.raises(ValueError):
            PsiLossMap(np.array(psis), np.array(losses))


class TestEq7Lattice:
    """``optimize_compression`` against the objective evaluated point by
    point: the scalar map, the scalar gain, a double loop."""

    def test_decision_is_the_brute_force_argmax(self):
        rng = np.random.default_rng(11)
        maps = [PsiLossMap(psis, losses) for psis, losses in seeded_maps(120, seed=5)]
        size, lambda_c = 52 * 1024 * 1024, 0.02
        sent = 0
        for map_i, map_j in zip(maps[::2], maps[1::2]):
            loss_i_on_cj, loss_j_on_ci = rng.uniform(0.0, 6.0, 2)
            bandwidth = rng.uniform(5e6, 200e6)
            budget, contact = rng.uniform(1.0, 30.0, 2)
            decision = optimize_compression(
                map_i, map_j, loss_i_on_cj, loss_j_on_ci, size, bandwidth, budget, contact,
                lambda_c=lambda_c,
            )
            window, grid = min(budget, contact), np.linspace(0.0, 1.0, 21)
            best = (-np.inf, 0.0, 0.0, 0.0)
            for psi_i in grid:
                for psi_j in grid:
                    t_c = size * (psi_i + psi_j) / (bandwidth / 8.0)
                    if t_c > window:
                        continue
                    gain_i = gain_j = 0.0
                    if psi_i > 0:
                        gain_i = truncated_gain(loss_j_on_ci, map_i.loss_at(psi_i))
                    if psi_j > 0:
                        gain_j = truncated_gain(loss_i_on_cj, map_j.loss_at(psi_j))
                    objective = gain_i + gain_j + lambda_c * (window - t_c)
                    if objective > best[0]:
                        best = (objective, psi_i, psi_j, t_c)
            got = (decision.objective, decision.psi_i, decision.psi_j, decision.exchange_time)
            assert got == best
            sent += decision.psi_i > 0 or decision.psi_j > 0
        assert sent > 10  # the lattice was not all "send nothing"


#: Non-negative losses, diverged ones (inf, NaN) included.
LOSSES = st.one_of(
    st.floats(min_value=0.0, allow_infinity=True), st.just(math.inf), st.just(math.nan)
)


class TestAggregation:
    def test_lower_loss_gets_larger_weight(self):
        w_local, w_received = aggregation_weights(2.0, 1.0)
        assert w_received > w_local
        assert w_local + w_received == pytest.approx(1.0)

    def test_equal_losses_even_split(self):
        assert aggregation_weights(1.0, 1.0) == (0.5, 0.5)

    def test_zero_losses_even_split(self):
        assert aggregation_weights(0.0, 0.0) == (0.5, 0.5)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            aggregation_weights(-1.0, 1.0)

    @given(loss_local=LOSSES, loss_received=LOSSES)
    def test_any_losses_give_a_distribution(self, loss_local, loss_received):
        """A diverged (inf/NaN) loss gets weight 0 and both diverged keep
        the local model; finite losses keep the formula's exact bits."""
        w_local, w_received = aggregation_weights(loss_local, loss_received)
        assert 0.0 <= w_local <= 1.0 and 0.0 <= w_received <= 1.0
        assert w_local + w_received == pytest.approx(1.0, abs=1e-12)
        if not math.isfinite(loss_received):
            assert (w_local, w_received) == (1.0, 0.0)
        elif not math.isfinite(loss_local):
            assert (w_local, w_received) == (0.0, 1.0)
        elif 0 < loss_local + loss_received < math.inf:
            total = loss_local + loss_received
            assert (w_local, w_received) == (loss_received / total, loss_local / total)

    def test_aggregate_convex_combination(self):
        local = np.zeros(4, dtype=np.float32)
        received = np.ones(4, dtype=np.float32)
        merged = aggregate_models(local, received, loss_local=3.0, loss_received=1.0)
        assert np.allclose(merged, 0.75)  # received weight = 3/4

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            aggregate_models(np.zeros(3), np.zeros(4), 1.0, 1.0)
