"""Tests for the experiment harness (configs, runner, render)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.experiments import (
    METHOD_NAMES,
    METHODS,
    RunSpec,
    build_context,
    get_scale,
    make_config,
    make_nodes,
    make_trainer,
    online_evaluate,
    render_curves,
    render_table,
    run_method,
)
from repro.experiments.configs import CI, PAPER, ExperimentScale
from repro.sim.world import WorldConfig

MICRO = replace(
    CI,
    name="micro-test",
    world=WorldConfig(
        map_size=400.0,
        grid_n=3,
        n_vehicles=3,
        n_background_cars=2,
        n_pedestrians=5,
        seed=11,
        min_route_length=120.0,
    ),
    collect_duration=40.0,
    trace_duration=150.0,
    train_duration=80.0,
    train_interval=2.0,
    record_interval=20.0,
    coreset_size=8,
    eval_trials=1,
    eval_models=1,
    eval_normal_cars=2,
    eval_normal_pedestrians=5,
)


@pytest.fixture(scope="module")
def context():
    return build_context(MICRO)


class TestConfigs:
    def test_get_scale(self):
        assert get_scale("ci") is CI
        assert get_scale("paper") is PAPER

    def test_unknown_scale(self):
        with pytest.raises(ValueError):
            get_scale("galactic")

    def test_paper_matches_section_iv_a(self):
        assert PAPER.world.n_vehicles == 32
        assert PAPER.world.n_background_cars == 50
        assert PAPER.world.n_pedestrians == 250
        assert PAPER.world.map_size == 1000.0
        assert PAPER.coreset_size == 150


class TestContext:
    def test_context_memoized(self):
        assert build_context(MICRO) is build_context(MICRO)

    def test_a_second_scale_under_one_name_is_refused(self, context):
        """The memo is keyed by name: serving the first scale's world to a
        spec asking for another width would train the wrong model."""
        narrower = replace(MICRO, hidden=MICRO.hidden // 2, collect_duration=20.0)
        with pytest.raises(ValueError, match=MICRO.name):
            build_context(narrower)
        assert build_context(MICRO) is context

    def test_datasets_nonempty(self, context):
        assert len(context.datasets) == MICRO.world.n_vehicles
        assert all(len(ds) > 20 for ds in context.datasets.values())

    def test_validation_disjoint_from_locals(self, context):
        val_ids = set(context.validation.ids)
        for dataset in context.datasets.values():
            assert val_ids.isdisjoint(dataset.ids)

    def test_nodes_share_initialization(self, context):
        nodes = make_nodes(context)
        ref = nodes[0].flat_params
        for node in nodes[1:]:
            assert np.array_equal(node.flat_params, ref)

    def test_nodes_have_private_datasets(self, context):
        nodes_a = make_nodes(context)
        nodes_b = make_nodes(context)
        nodes_a[0].dataset.extend([])
        assert nodes_a[0].dataset is not nodes_b[0].dataset


class TestRunner:
    def test_every_method_instantiates(self, context):
        for method in METHOD_NAMES:
            nodes = make_nodes(context)
            trainer = make_trainer(method, nodes, context)
            assert trainer is not None

    @pytest.mark.parametrize("method", list(METHODS))
    def test_the_table_is_the_method(self, context, method):
        """A method is its row: the trainer class, the class's config, the
        fixed fields — which win over a conflicting override."""
        trainer_class, fixed = METHODS[method]
        trainer = make_trainer(method, make_nodes(context), context)
        assert type(trainer) is trainer_class and trainer.name == method
        assert type(trainer.config) is trainer_class.config_class
        assert {key: getattr(trainer.config, key) for key in fixed} == fixed
        for key, value in fixed.items():
            assert getattr(make_config(method, **{key: not value}), key) == value
        with pytest.raises(AttributeError, match="bogus"):
            make_config(method, bogus=1)

    def test_unknown_method_rejected(self, context):
        nodes = make_nodes(context)
        with pytest.raises(ValueError):
            make_trainer("FancyNet", nodes, context)

    def test_run_method_produces_curve(self, context):
        spec = RunSpec.for_context(context, "LbChat", wireless=False)
        result = run_method(context, spec)
        grid, curve = result.loss_curve(5)
        assert len(grid) == len(curve) == 5
        assert curve[-1] < curve[0]
        assert result.spec is spec
        assert result.method == "LbChat" and result.wireless is False

    def test_method_name_is_not_a_spec(self, context):
        with pytest.raises(TypeError, match="RunSpec"):
            run_method(context, "LbChat")

    def test_spec_rejects_extra_kwargs(self, context):
        spec = RunSpec.for_context(context, "LbChat")
        with pytest.raises(TypeError):
            run_method(context, spec, wireless=False)

    def test_run_spec_validates_method(self, context):
        with pytest.raises(ValueError):
            RunSpec.for_context(context, "FancyNet")

    def test_make_config_validates_fields(self):
        config = make_config("DP", lambda_c=0.2)
        assert config.lambda_c == 0.2
        with pytest.raises(ValueError):
            make_config("FancyNet")
        with pytest.raises(AttributeError, match="bogus"):
            make_config("LbChat", bogus=1)

    def test_coreset_size_override(self, context):
        spec = RunSpec.for_context(context, "LbChat", wireless=False, coreset_size=4)
        result = run_method(context, spec)
        for node in result.nodes:
            assert node.config.coreset_size == 4

    def test_trainer_overrides_applied(self, context):
        spec = RunSpec.for_context(
            context,
            "LbChat",
            wireless=False,
            overrides={"lambda_c": 0.5, "record_interval": 40.0},
        )
        result = run_method(context, spec)
        assert result.trainer.config.lambda_c == 0.5
        assert result.trainer.config.record_interval == 40.0

    def test_trainer_overrides_unknown_field_rejected(self, context):
        spec = RunSpec.for_context(
            context, "LbChat", wireless=False, overrides={"bogus": 1}
        )
        with pytest.raises(AttributeError):
            run_method(context, spec)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("track_contention", True),
            ("multicast_coresets", True),
            ("multicast_cooldown", 60.0),
            ("dynamic_time_budget", True),
            ("min_time_budget", 3.0),
            ("selection_policy", "nearest"),
            ("compressor", "quantize"),
            ("use_merge_reduce", False),
            ("psi_grid", (0.1, 0.4, 0.7, 1.0)),
            ("train_with_weight_decay", True),
        ],
    )
    def test_removed_knob_is_refused_by_name(self, context, field, value):
        """A saved ``run.json`` or a snippet that still sets a deleted
        field must not run as something else."""
        from repro.core.node import NodeConfig
        from repro.experiments.runner import prepare_trainer

        if field in (  # were NodeConfig's
            "compressor", "use_merge_reduce", "psi_grid", "train_with_weight_decay"
        ):
            with pytest.raises(TypeError, match=field):
                NodeConfig(**{field: value})
        with pytest.raises(AttributeError, match=field):
            make_config("LbChat", **{field: value})
        spec = RunSpec.for_context(context, "LbChat", overrides={field: value})
        with pytest.raises(AttributeError, match=field):
            prepare_trainer(context, spec)  # before any training step

    def test_coreset_strategy_override(self, context):
        spec = RunSpec.for_context(
            context, "SCO", wireless=False, coreset_strategy="uniform"
        )
        result = run_method(context, spec)
        for node in result.nodes:
            assert node.config.coreset_strategy == "uniform"

    def test_online_evaluate_shape(self, context):
        from repro.sim.evaluate import DrivingCondition

        result = run_method(context, RunSpec.for_context(context, "SCO", wireless=False))
        rates = online_evaluate(
            result, context, conditions=[DrivingCondition.STRAIGHT]
        )
        assert set(rates) == {"Straight"}
        assert 0.0 <= rates["Straight"] <= 100.0

    def test_select_eval_nodes_median(self, context):
        from repro.experiments.runner import select_eval_nodes

        result = run_method(context, RunSpec.for_context(context, "SCO", wireless=False))
        chosen = select_eval_nodes(result, context)
        assert len(chosen) == context.scale.eval_models
        losses = sorted(
            node.evaluate(context.validation, with_penalty=False)
            for node in result.nodes
        )
        chosen_losses = sorted(
            node.evaluate(context.validation, with_penalty=False) for node in chosen
        )
        # The chosen models are neither the best nor the worst extremes
        # (when the fleet is larger than the selection).
        if len(result.nodes) > context.scale.eval_models + 1:
            assert chosen_losses[-1] <= losses[-1]
            assert chosen_losses[0] >= losses[0]


class TestRender:
    def test_table_contains_all_cells(self):
        text = render_table(
            "T", ["r1", "r2"], ["c1", "c2"], {"r1": {"c1": 1.0, "c2": 2.0}, "r2": {"c1": 3.0}}
        )
        assert "r1" in text and "c2" in text
        assert "-" in text  # missing r2/c2 renders as dash

    def test_table_alignment(self):
        text = render_table("T", ["row"], ["col"], {"row": {"col": 42.0}})
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "42" in text

    def test_curves_render(self):
        grid = np.linspace(0, 100, 11)
        text = render_curves("F", grid, {"m": np.linspace(5, 1, 11)})
        assert "m" in text and "t(s)" in text
