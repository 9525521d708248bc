"""City-scale machinery: registry API, city maps, sharding, budgets.

Covers the ISSUE 8 surface end to end at unit granularity: the open
scale registry (``register_scale``/``iter_scales``/``derived``), the
multi-district city map and its perfect-square district partition, the
``shard_stepping`` field (still accepted, selects nothing), the
bounded loss-cache/chat-log budgets, and the propagation of city
fields into trace worlds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.configs import (
    CI,
    CITY,
    PAPER,
    ExperimentScale,
    get_scale,
    iter_scales,
    register_scale,
    scale_names,
)
from repro.sim.map import TownMap
from repro.sim.world import World, WorldConfig


class TestScaleRegistry:
    def test_builtins_registered(self):
        assert set(scale_names()) >= {"ci", "paper", "city"}
        assert get_scale("ci") is CI
        assert get_scale("paper") is PAPER
        assert get_scale("city") is CITY

    def test_iter_scales_matches_names(self):
        assert tuple(s.name for s in iter_scales()) == scale_names()

    def test_unknown_scale_error_lists_registry(self):
        with pytest.raises(ValueError, match="city"):
            get_scale("galaxy")

    def test_third_party_registration_roundtrip(self):
        scale = CI.derived("unit-test-scale", coreset_size=5)
        try:
            assert register_scale(scale) is scale
            assert get_scale("unit-test-scale") is scale
            assert "unit-test-scale" in scale_names()
            # Duplicate names are an error unless explicitly replaced.
            with pytest.raises(ValueError, match="already registered"):
                register_scale(CI.derived("unit-test-scale"))
            replacement = CI.derived("unit-test-scale", coreset_size=7)
            register_scale(replacement, replace=True)
            assert get_scale("unit-test-scale").coreset_size == 7
        finally:
            from repro.experiments import configs

            configs._SCALES.pop("unit-test-scale", None)

    def test_register_rejects_bad_values(self):
        with pytest.raises(TypeError):
            register_scale("paper")
        with pytest.raises(ValueError):
            register_scale(CI.derived(""))


class TestDerivedScales:
    def test_plain_overrides(self):
        scale = PAPER.derived("custom", coreset_size=99)
        assert scale.name == "custom"
        assert scale.coreset_size == 99
        assert scale.world is PAPER.world  # untouched world is shared

    def test_nested_world_mapping_override(self):
        scale = PAPER.derived("custom", world=dict(n_vehicles=7))
        assert scale.world.n_vehicles == 7
        # Every other world field is inherited, not reset.
        assert scale.world.map_size == PAPER.world.map_size
        assert scale.world.seed == PAPER.world.seed

    def test_world_config_override(self):
        world = WorldConfig(map_size=123.0, grid_n=3, n_vehicles=2)
        assert PAPER.derived("custom", world=world).world is world

    def test_world_rejects_other_types(self):
        with pytest.raises(TypeError):
            PAPER.derived("custom", world=42)

    def test_builtin_scales_are_derived_from_paper(self):
        # CI and CITY are expressed as PAPER.derived(...) overrides;
        # spot-check fields that must inherit.
        assert CI.hidden == PAPER.hidden
        assert CI.world.n_districts == PAPER.world.n_districts
        assert CITY.world.ped_district_skew == PAPER.world.ped_district_skew
        assert CITY.world.n_districts == 9
        assert CITY.world.shard_stepping is True
        assert CITY.loss_cache_budget > 0 and CITY.chat_log_budget > 0

    def test_fingerprint_distinguishes_derived_worlds(self):
        from repro.experiments.io import scale_fingerprint

        base = PAPER.derived("fp-base")
        tweaked = PAPER.derived("fp-base", world=dict(city_blocks=2))
        assert scale_fingerprint(base) == scale_fingerprint(PAPER.derived("fp-base"))
        assert scale_fingerprint(base) != scale_fingerprint(tweaked)


class TestCityMap:
    @pytest.fixture(scope="class")
    def city(self):
        return TownMap(size=1200.0, grid_n=4, seed=5, districts_per_side=3)

    def test_connected_with_arterials(self, city):
        import networkx as nx

        assert nx.is_connected(nx.Graph(city.adjacency))
        arterials = [(a, b) for a, b in city.edges() if city.adjacency[a][b]["arterial"]]
        assert len(arterials) >= 2 * 3 * 2 * 2  # 2 lanes x (3x2 block seams) x 2 axes
        # Town nodes exist in every block.
        blocks = {(n[1], n[2]) for n in [n for n in city.nodes() if n[0] == "t"]}
        assert blocks == {(i, j) for i in range(3) for j in range(3)}

    def test_town_map_unchanged_by_default(self):
        a = TownMap(size=500.0, grid_n=3, seed=2)
        b = TownMap(size=500.0, grid_n=3, seed=2, districts_per_side=1)
        assert sorted(a.nodes()) == sorted(b.nodes())

    def test_rejects_bad_districts(self):
        with pytest.raises(ValueError):
            TownMap(size=500.0, grid_n=3, seed=2, districts_per_side=0)

    def test_district_of_perfect_square(self, city):
        n_districts = 9
        seen = set()
        rng = np.random.default_rng(0)
        for point in rng.uniform(0, city.size, size=(500, 2)):
            d = city.district_of(point, n_districts)
            assert 0 <= d < n_districts
            seen.add(d)
        assert seen == set(range(n_districts))
        # Points beyond the map edge clamp into the border districts.
        assert city.district_of(np.array([-50.0, -50.0]), 9) == 0
        assert city.district_of(np.array([1e6, 1e6]), 9) == 8

    def test_district_of_rejects_non_square(self, city):
        with pytest.raises(ValueError, match="perfect square"):
            city.district_of(np.array([10.0, 10.0]), 3)

    def test_district_nodes_partition_all_nodes(self, city):
        groups = [city.district_nodes(d, 9) for d in range(9)]
        assert all(groups)
        total = sum(len(g) for g in groups)
        assert total == len(city.nodes())


class TestShardedSpatialGrid:
    """``shard_stepping`` once picked a sharded grid for ``World.step``;
    the driver bank left it nothing to select, and it must stay accepted."""

    def test_sharded_world_step_is_bit_identical(self):
        config = WorldConfig(
            map_size=500.0, grid_n=3, n_vehicles=4, n_background_cars=4,
            n_pedestrians=10, seed=13, min_route_length=120.0,
        )
        plain = World(config)
        from dataclasses import replace

        sharded = World(replace(config, shard_stepping=True))
        for _ in range(30):
            plain.step()
            sharded.step()
        np.testing.assert_array_equal(
            plain.bank.position,
            sharded.bank.position,
        )
        np.testing.assert_array_equal(
            np.asarray(plain.traffic.car_positions()),
            np.asarray(sharded.traffic.car_positions()),
        )


class TestBoundedBudgets:
    def _node(self, budget, n_frames=40):
        from repro.core.fleet import FleetEngine
        from repro.core.node import NodeConfig
        from repro.engine.random import spawn_rng
        from repro.nn import make_driving_model
        from repro.sim.dataset import DrivingDataset, Frame

        bev_shape, n_waypoints = (4, 8, 8), 3
        rng = np.random.default_rng(0)
        frames = [
            Frame(
                f"b-{i}",
                rng.normal(size=bev_shape).astype(np.float32),
                int(rng.integers(0, 4)),
                rng.normal(size=2 * n_waypoints).astype(np.float32),
                1.0,
            )
            for i in range(n_frames)
        ]
        config = NodeConfig(coreset_size=8, loss_cache_budget=budget)
        model = make_driving_model(bev_shape, n_waypoints, hidden=16, seed=0)
        member = ("budget", DrivingDataset(frames), spawn_rng(7, "budget"))
        return FleetEngine(model, [member], config).nodes[0]

    def test_loss_cache_never_exceeds_budget_over_long_run(self):
        node = self._node(budget=16, n_frames=48)
        for round_ in range(12):
            node.per_sample_losses(node.dataset)
            assert node.loss_cache_size <= 16, f"round {round_}"
            node.train_step()  # bumps model_version, stales the cache
        node.per_sample_losses(node.dataset)
        assert node.loss_cache_size <= 16

    def test_zero_budget_is_unbounded(self):
        node = self._node(budget=0, n_frames=48)
        node.per_sample_losses(node.dataset)
        assert node.loss_cache_size == 48

    def test_budget_resets_are_counted(self):
        from repro.telemetry.hooks import TelemetrySession

        node = self._node(budget=16, n_frames=48)
        with TelemetrySession() as session:
            node.per_sample_losses(node.dataset.subset(range(16)))  # at the budget
            node.per_sample_losses(node.dataset.subset(range(8)))  # all hits, no write
            assert node.loss_cache_size == 16
            node.per_sample_losses(node.dataset)  # 48 > 16: emptied
            assert node.loss_cache_size == 0
        assert session.registry.snapshot()["counters"]["loss_cache.resets"] == 1.0

    def test_chat_log_ring_eviction(self):
        from repro.core.chatlog import ChatLog, ChatRecord

        log = ChatLog(max_records=5)
        for i in range(23):
            log.append(
                ChatRecord(
                    time=float(i), initiator="a", partner="b", duration=1.0,
                    coresets_exchanged=True, psi_i=0.1, psi_j=0.1,
                    i_received=True, j_received=True, absorbed=2, aborted="",
                )
            )
            assert len(log) <= 5
        assert log.dropped == 18
        # The survivors are the newest records, in order.
        assert [r.time for r in log.records] == [18.0, 19.0, 20.0, 21.0, 22.0]

    def test_unbounded_chat_log_drops_nothing(self):
        from repro.core.chatlog import ChatLog, ChatRecord

        log = ChatLog()
        for i in range(50):
            log.append(
                ChatRecord(
                    time=float(i), initiator="a", partner="b", duration=1.0,
                    coresets_exchanged=False, psi_i=0.0, psi_j=0.0,
                    i_received=False, j_received=False, absorbed=0, aborted="x",
                )
            )
        assert len(log) == 50 and log.dropped == 0


class TestCityTraceWorld:
    def test_simulate_traces_propagates_city_fields(self):
        from repro.sim.traces import simulate_traces

        config = WorldConfig(
            map_size=600.0, grid_n=3, n_vehicles=3, n_background_cars=0,
            n_pedestrians=0, seed=13, min_route_length=100.0,
            city_blocks=2, shard_stepping=True, n_districts=4,
        )
        traces = simulate_traces(config, duration=5.0)
        assert traces.positions.shape[1] == 3
        assert np.all(np.isfinite(traces.positions))
