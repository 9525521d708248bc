"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.compression import compress_topk, decompress, topk_for_psi
from repro.core.aggregate import aggregation_weights
from repro.core.chat import equal_compression_decision
from repro.coreset.construction import allocate_layer_quotas, layer_assignments
from repro.engine import Simulator, TimeSeriesRecorder
from repro.sim.geometry import to_vehicle_frame, to_world_frame, wrap_angle

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
losses_arrays = hnp.arrays(
    np.float64,
    st.integers(1, 200),
    elements=st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
)


class TestGeometryProperties:
    @given(finite_floats)
    def test_wrap_angle_in_range(self, theta):
        wrapped = wrap_angle(theta)
        assert -np.pi <= wrapped <= np.pi

    @given(
        hnp.arrays(np.float64, (5, 2), elements=st.floats(-1e3, 1e3)),
        st.floats(-1e3, 1e3),
        st.floats(-1e3, 1e3),
        st.floats(-np.pi, np.pi),
    )
    def test_frame_roundtrip(self, points, px, py, heading):
        pos = np.array([px, py])
        back = to_world_frame(to_vehicle_frame(points, pos, heading), pos, heading)
        assert np.allclose(back, points, atol=1e-6)

    @given(
        hnp.arrays(np.float64, (4, 2), elements=st.floats(-1e3, 1e3)),
        st.floats(-np.pi, np.pi),
    )
    def test_frame_transform_preserves_distances(self, points, heading):
        pos = np.array([7.0, -3.0])
        local = to_vehicle_frame(points, pos, heading)
        d_world = np.linalg.norm(points[0] - points[1])
        d_local = np.linalg.norm(local[0] - local[1])
        assert np.isclose(d_world, d_local, atol=1e-6)


class TestCompressionProperties:
    @given(
        hnp.arrays(np.float32, st.integers(1, 500), elements=st.floats(-100, 100, width=32)),
        st.floats(0.0, 1.0),
    )
    def test_psi_achieved_at_most_target(self, flat, psi):
        compressed = compress_topk(flat, psi, 1_000_000)
        assert compressed.psi <= max(psi, 1e-9) + 1e-9 or compressed.indices.size == flat.size

    @given(
        hnp.arrays(np.float32, st.integers(2, 300), elements=st.floats(-100, 100, width=32)),
        st.floats(0.05, 0.95),
    )
    def test_kept_values_dominate_dropped(self, flat, psi):
        compressed = compress_topk(flat, psi, 1_000_000)
        if compressed.indices.size in (0, flat.size):
            return
        kept_min = np.abs(compressed.values).min()
        mask = np.ones(flat.size, dtype=bool)
        mask[compressed.indices] = False
        if mask.any():
            assert np.abs(flat[mask]).max() <= kept_min + 1e-6

    @given(
        hnp.arrays(np.float32, st.integers(1, 300), elements=st.floats(-100, 100, width=32)),
        st.floats(0.0, 1.0),
    )
    def test_decompress_matches_original_on_kept(self, flat, psi):
        compressed = compress_topk(flat, psi, 1_000_000)
        dense = decompress(compressed)
        assert np.array_equal(dense[compressed.indices], flat[compressed.indices])

    @given(st.integers(0, 10_000), st.floats(0.0, 1.0))
    def test_topk_bounded_by_n(self, n, psi):
        assert 0 <= topk_for_psi(n, psi) <= n


class TestCoresetProperties:
    @given(losses_arrays)
    def test_layers_nonnegative_and_bounded(self, losses):
        layers = layer_assignments(losses)
        assert (layers >= 0).all()
        assert layers.max() <= np.log2(max(losses.size, 2)) + 34  # float range guard

    @given(losses_arrays)
    def test_min_loss_sample_in_layer_zero(self, losses):
        layers = layer_assignments(losses)
        assert layers[np.argmin(losses)] == 0

    @given(
        st.lists(st.tuples(st.floats(0.0, 100.0), st.integers(0, 50)), min_size=1, max_size=8),
        st.integers(1, 100),
    )
    def test_quota_invariants(self, layer_spec, target):
        weight = np.array([w for w, _ in layer_spec])
        count = np.array([c for _, c in layer_spec])
        quotas = allocate_layer_quotas(weight, count, target)
        assert (quotas <= count).all()
        assert (quotas >= 0).all()
        nonempty = count > 0
        assert (quotas[nonempty] >= 1).all() or not nonempty.any()


class TestAggregationProperties:
    @given(st.floats(0.0, 1e6), st.floats(0.0, 1e6))
    def test_weights_convex(self, loss_a, loss_b):
        w_local, w_received = aggregation_weights(loss_a, loss_b)
        assert 0.0 <= w_local <= 1.0
        assert w_local + w_received == 1.0 or abs(w_local + w_received - 1.0) < 1e-9

    @given(st.floats(0.001, 1e3), st.floats(0.001, 1e3))
    def test_lower_loss_never_smaller_weight(self, loss_a, loss_b):
        w_local, w_received = aggregation_weights(loss_a, loss_b)
        if loss_a < loss_b:
            assert w_local >= w_received
        elif loss_b < loss_a:
            assert w_received >= w_local


class TestChatDecisionProperties:
    @given(
        st.floats(1e5, 1e9),
        st.floats(1e6, 1e9),
        st.floats(0.1, 100.0),
        st.floats(0.1, 500.0),
    )
    def test_equal_compression_fits_window(self, size, bandwidth, budget, contact):
        decision = equal_compression_decision(size, bandwidth, budget, contact)
        assert decision.exchange_time <= min(budget, contact) + 1e-6
        assert 0.0 <= decision.psi_i <= 1.0
        assert decision.psi_i == decision.psi_j


class TestEngineProperties:
    @settings(max_examples=25)
    @given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=20))
    def test_clock_monotone_over_random_timeouts(self, delays):
        sim = Simulator()
        observed = []

        def proc():
            for delay in delays:
                yield sim.wait_until(sim.now + delay)
                observed.append(sim.now)

        sim.process(proc())
        sim.run()
        assert observed == sorted(observed)
        assert observed[-1] == sum(delays)


class TestRecorderProperties:
    @given(
        st.lists(
            st.tuples(st.floats(0.0, 100.0), st.floats(-10.0, 10.0)),
            min_size=1,
            max_size=30,
        )
    )
    def test_mean_curve_within_value_range(self, samples):
        samples = sorted(samples, key=lambda sv: sv[0])
        rec = TimeSeriesRecorder()
        for t, v in samples:
            rec.record("k", t, v)
        grid = np.linspace(0.0, 100.0, 7)
        curve = rec.mean_curve(grid)
        values = [v for _, v in samples]
        assert curve.min() >= min(values) - 1e-9
        assert curve.max() <= max(values) + 1e-9
