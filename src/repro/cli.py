"""Command-line interface.

Examples
--------
::

    python -m repro scales
    python -m repro run --method LbChat --scale ci --wireless
    python -m repro run --method SCO --out sco.json --save-model sco.npz
    python -m repro run --method LbChat --checkpoint-every 60
    python -m repro resume .repro_cache/checkpoints/lbchat-seed1-0123456789abcdef
    python -m repro table 3 --scale ci
    python -m repro fig 2b
    python -m repro rates
    python -m repro trace --method LbChat --out trace.jsonl
    python -m repro report --trace trace.jsonl
    python -m repro eval --model sco.npz --trials 4
    python -m repro selfcheck
"""

from __future__ import annotations

import argparse
import sys

from repro.blas import pin_blas_threads

# Nothing at module level may import numpy: ``main`` pins BLAS threading
# through the environment, which only a BLAS that has yet to load reads.


def _add_scale_arg(parser: argparse.ArgumentParser) -> None:
    from repro.experiments.configs import scale_names

    parser.add_argument(
        "--scale", default="ci", choices=scale_names(), help="experiment scale preset"
    )


def _add_jobs_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for independent runs (0 = all cores); "
        "results are bit-identical to --jobs 1",
    )


def _add_step_workers_arg(parser: argparse.ArgumentParser, default: str = "1") -> None:
    parser.add_argument(
        "--step-workers", default=default, metavar="N|auto",
        help="shard each run's fleet training step across N forked workers "
        "over shared-memory banks ('auto' = measured per-host tuning); "
        "results are bit-identical for every value",
    )


def _step_workers(args: argparse.Namespace) -> int:
    """Resolve the --step-workers flag ('auto' probes/reads the host cache)."""
    from repro.parallel import resolve_step_workers

    return resolve_step_workers(args.step_workers)


def _add_overlap_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--overlap-chat", action=argparse.BooleanOptionalAction, default=False,
        help="overlap chat model transfers with training: chats plan "
        "synchronously, then ship models in the background and commit "
        "them atomically when the transfer resolves (default off; the "
        "synchronous protocol stays the golden-pinned reference)",
    )


def _run_overrides(args: argparse.Namespace) -> dict:
    """Config overrides from the execution flags every training command shares."""
    workers = _step_workers(args)
    overrides: dict = {}
    if workers != 1:
        overrides["step_workers"] = workers
    if getattr(args, "overlap_chat", False):
        overrides["overlap_chat"] = True
    return overrides


def _add_run_args(parser: argparse.ArgumentParser) -> None:
    """Flags shared by every single-training-run command (run, trace)."""
    parser.add_argument("--method", default="LbChat")
    _add_scale_arg(parser)
    parser.add_argument("--wireless", action=argparse.BooleanOptionalAction, default=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=True,
        help="use the on-disk context cache",
    )
    parser.add_argument(
        "--checkpoint-every", type=float, default=None, metavar="SECONDS",
        help="snapshot run state every N virtual seconds; an interrupted "
        "run continues from the newest snapshot (repro resume <run-dir>)",
    )
    parser.add_argument(
        "--checkpoint-dir", default=None,
        help="checkpoint store root (default .repro_cache/checkpoints)",
    )
    _add_jobs_arg(parser)
    _add_step_workers_arg(parser)
    _add_overlap_arg(parser)


def _cmd_scales(args: argparse.Namespace) -> int:
    from repro.experiments.configs import iter_scales

    for scale in iter_scales():
        world = scale.world
        print(
            f"{scale.name:6s} map {world.map_size:.0f}m  vehicles {world.n_vehicles}  "
            f"traffic {world.n_background_cars}c/{world.n_pedestrians}p  "
            f"coreset {scale.coreset_size}  T {scale.train_duration:.0f}s"
        )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments.configs import get_scale
    from repro.experiments.runner import RunSpec
    from repro.parallel import run_specs

    scale = get_scale(args.scale)
    spec = RunSpec(
        method=args.method,
        scale=scale,
        wireless=args.wireless,
        seed=args.seed,
        coreset_size=args.coreset_size,
        overrides=_run_overrides(args),
        use_cache=args.cache,
        checkpoint_every=args.checkpoint_every,
        checkpoint_dir=args.checkpoint_dir,
    )
    print(f"Training {args.method} (scale={args.scale}, wireless={args.wireless})...")
    result = run_specs([spec], jobs=args.jobs)[0]
    _render_result(args, result)
    return 0


def _render_result(args: argparse.Namespace, result) -> None:
    """Shared tail of the run/resume commands: curve, rate, artifacts."""
    from repro.experiments.io import save_run
    from repro.experiments.render import render_curves

    grid, curve = result.loss_curve(11)
    print(render_curves(f"{result.method}: fleet validation loss", grid, {result.method: curve}))
    print(f"receive rate: {100 * result.receive_rate:.1f}%")
    if args.out:
        save_run(result, args.out)
        print(f"run archived to {args.out}")
    if args.save_model:
        from repro.nn.serialize import save_model

        save_model(result.nodes[0].detached_model(), args.save_model)
        print(f"model checkpoint written to {args.save_model}")


def _cmd_resume(args: argparse.Namespace) -> int:
    from repro.checkpoint import resume_run_dir

    print(f"Resuming run from {args.run_dir}...")
    workers = None if args.step_workers is None else _step_workers(args)
    result = resume_run_dir(args.run_dir, step_workers=workers)
    _render_result(args, result)
    return 0


def _produce(args: argparse.Namespace, name: str):
    """One artifact of ``repro.experiments.artifacts.ARTIFACTS``, made now."""
    from repro.experiments.artifacts import produce

    return produce(
        [name], args.scale, seed=args.seed, jobs=args.jobs, overrides=_run_overrides(args)
    )[name]


def _cmd_table(args: argparse.Namespace) -> int:
    print(f"Reproducing Table {args.number} at scale {args.scale} "
          "(trains every required method; this takes a while)...")
    result = _produce(args, f"table{args.number}")
    print(result.render())
    print("\nreceive rates: " + ", ".join(
        f"{column}={100 * result.receive_rates[column]:.0f}%" for column in result.columns
    ))
    return 0


def _cmd_fig(args: argparse.Namespace) -> int:
    print(_produce(args, f"fig{args.which}").render())
    return 0


def _cmd_rates(args: argparse.Namespace) -> int:
    print(_produce(args, "rates").render())
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.experiments.configs import get_scale
    from repro.experiments.io import cached_context
    from repro.nn.serialize import load_model
    from repro.sim.comfort import comfort_score, compute_comfort
    from repro.sim.evaluate import DrivingCondition, EvalConfig, route_for_condition, run_episode
    from repro.sim.scenarios import SCENARIOS
    from repro.engine.random import spawn_rng

    scale = get_scale(args.scale)
    context = cached_context(scale)
    model = load_model(args.model)
    print(f"{'scenario':22s} {'outcome':10s} {'min gap':>8s}")
    for name, scenario in SCENARIOS.items():
        result = scenario(context.town, model, scale.bev)
        gap = "-" if result.min_gap == float("inf") else f"{result.min_gap:.1f}m"
        print(f"{name:22s} {result.reason:10s} {gap:>8s}")
    if args.comfort:
        config = EvalConfig(
            bev_spec=scale.bev,
            n_waypoints=scale.n_waypoints,
            normal_cars=0,
            normal_pedestrians=0,
        )
        plan = route_for_condition(
            context.town, DrivingCondition.NAVI_EMPTY, spawn_rng(args.seed, "cmf"), config
        )
        episode = run_episode(
            model, context.town, plan, DrivingCondition.NAVI_EMPTY, config,
            seed=args.seed, record_trajectory=True,
        )
        if episode.trajectory is not None and len(episode.trajectory) >= 3:
            metrics = compute_comfort(episode.trajectory, config.dt)
            print(f"\ncomfort on an empty navigation route ({episode.reason}):")
            print(f"  max accel {metrics.max_acceleration:.2f} m/s², "
                  f"max brake {metrics.max_deceleration:.2f} m/s²")
            print(f"  jerk RMS {metrics.jerk_rms:.2f} m/s³, "
                  f"max lateral {metrics.max_lateral_acceleration:.2f} m/s²")
            print(f"  comfort score: {comfort_score(metrics):.0f}/100")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.experiments.configs import get_scale
    from repro.experiments.runner import RunSpec
    from repro.parallel import run_specs
    from repro.telemetry import TelemetrySession, export_jsonl, report_session

    scale = get_scale(args.scale)
    spec = RunSpec(
        method=args.method,
        scale=scale,
        wireless=args.wireless,
        seed=args.seed,
        overrides=_run_overrides(args),
        use_cache=args.cache,
    )
    print(f"Tracing {args.method} (scale={args.scale}, wireless={args.wireless})...")
    session = TelemetrySession(label=f"{args.method} @ {args.scale}")
    with session:
        result = run_specs([spec], jobs=args.jobs)[0]
    path = export_jsonl(session, args.out)
    print(report_session(session))
    print(f"\ntrace written to {path}")
    if args.csv:
        from repro.telemetry import export_metrics_csv

        print(f"metrics written to {export_metrics_csv(session.registry, args.csv)}")
    print(f"receive rate: {100 * result.receive_rate:.1f}%")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    if args.trace:
        from repro.telemetry import load_jsonl, report_trace

        report = report_trace(load_jsonl(args.trace))
        if args.out:
            Path(args.out).write_text(report + "\n")
            print(f"report written to {args.out}")
        else:
            print(report)
        return 0

    from repro.experiments.report import build_report

    report = build_report(args.artifacts)
    if args.out:
        Path(args.out).write_text(report)
        print(f"report written to {args.out}")
    else:
        print(report)
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    from repro.experiments.configs import get_scale
    from repro.nn.serialize import load_model
    from repro.experiments.io import cached_context
    from repro.sim.evaluate import DrivingCondition, EvalConfig, success_rate

    scale = get_scale(args.scale)
    context = cached_context(scale)
    model = load_model(args.model)
    config = EvalConfig(
        bev_spec=scale.bev,
        n_waypoints=scale.n_waypoints,
        normal_cars=scale.eval_normal_cars,
        normal_pedestrians=scale.eval_normal_pedestrians,
    )
    print(f"{'condition':16s} {'success':>8s}")
    for condition in DrivingCondition:
        rate = success_rate(
            model, context.town, condition, args.trials, config, seed=args.seed
        )
        print(f"{condition.value:16s} {100 * rate:7.0f}%")
    return 0


def _cmd_selfcheck(args: argparse.Namespace) -> int:
    from repro.selfcheck import selfcheck

    return selfcheck(args.rows, record=args.record)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro", description="LbChat reproduction experiment runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scales", help="list scale presets")
    p.set_defaults(fn=_cmd_scales)

    p = sub.add_parser("run", help="train one method")
    _add_run_args(p)
    p.add_argument("--coreset-size", type=int, default=None)
    p.add_argument("--out", default=None, help="archive run results to JSON")
    p.add_argument("--save-model", default=None, help="write a model checkpoint (.npz)")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("resume", help="continue a checkpointed run from its run directory")
    p.add_argument("run_dir", help="checkpoint run directory (contains run.json)")
    _add_step_workers_arg(p, default=None)
    p.add_argument("--out", default=None, help="archive run results to JSON")
    p.add_argument("--save-model", default=None, help="write a model checkpoint (.npz)")
    p.set_defaults(fn=_cmd_resume)

    p = sub.add_parser("table", help="reproduce a paper table")
    p.add_argument("number", choices=("2", "3", "4", "5", "6", "7"))
    _add_scale_arg(p)
    p.add_argument("--seed", type=int, default=1)
    _add_jobs_arg(p)
    _add_step_workers_arg(p)
    _add_overlap_arg(p)
    p.set_defaults(fn=_cmd_table)

    p = sub.add_parser("fig", help="reproduce a paper figure")
    p.add_argument("which", choices=("2a", "2b", "3"))
    _add_scale_arg(p)
    p.add_argument("--seed", type=int, default=1)
    _add_jobs_arg(p)
    _add_step_workers_arg(p)
    _add_overlap_arg(p)
    p.set_defaults(fn=_cmd_fig)

    p = sub.add_parser("rates", help="§IV-C receive-rate comparison")
    _add_scale_arg(p)
    p.add_argument("--seed", type=int, default=1)
    _add_jobs_arg(p)
    _add_step_workers_arg(p)
    _add_overlap_arg(p)
    p.set_defaults(fn=_cmd_rates)

    p = sub.add_parser("scenario", help="run stress scenarios on a checkpoint")
    p.add_argument("--model", required=True)
    _add_scale_arg(p)
    p.add_argument("--comfort", action="store_true", help="also report comfort metrics")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_scenario)

    p = sub.add_parser("trace", help="train one method with telemetry on")
    _add_run_args(p)
    p.add_argument("--out", default="trace.jsonl", help="JSONL trace destination")
    p.add_argument("--csv", default=None, help="also dump the metric snapshot as CSV")
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser("report", help="assemble the reproduction report")
    p.add_argument("--artifacts", default="benchmarks/out")
    p.add_argument("--trace", default=None, help="render a telemetry JSONL trace instead")
    p.add_argument("--out", default=None, help="write the report to a file")
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("eval", help="online-evaluate a model checkpoint")
    p.add_argument("--model", required=True)
    _add_scale_arg(p)
    p.add_argument("--trials", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("selfcheck", help="run the bit-identity gates and print the digest table")
    p.add_argument("rows", nargs="*", metavar="ROW", help="rows to run (default: all)")
    p.add_argument(
        "--record", action="store_true",
        help="re-baseline the golden digests of the rows named (all when none are)",
    )
    p.set_defaults(fn=_cmd_selfcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    pin_blas_threads()  # the digest gates and bit-identical resume assume one GEMM thread
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
