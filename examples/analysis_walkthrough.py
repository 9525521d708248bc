"""Analysis walkthrough: chat logs, convergence stats, multi-seed tests.

Runs a small LbChat-vs-DP comparison across two seeds and then shows
the analysis toolkit on the results:

* per-chat records (Eq. 7 allocations, one-sided sends, abort stages),
* convergence statistics (time-to-threshold, AUC),
* multi-seed mean ± std and a Welch t-test on final losses.

Run:  python examples/analysis_walkthrough.py
"""

from dataclasses import replace

import numpy as np

from repro.blas import pin_blas_threads
from repro.experiments.analysis import convergence_summary
from repro.experiments.configs import CI
from repro.experiments.multiseed import compare_methods, run_seeds
from repro.experiments.runner import RunSpec, build_context, run_method
from repro.sim.world import WorldConfig

# A miniature scale so the walkthrough finishes in a couple of minutes.
SCALE = replace(
    CI,
    name="walkthrough",
    world=WorldConfig(
        map_size=400.0,
        # 5 x 5: a district (a quarter of the map) must hold a route of
        # min_route_length, and a 3 x 3 grid's 200 m blocks leave it none.
        grid_n=5,
        n_vehicles=4,
        n_background_cars=4,
        n_pedestrians=10,
        seed=5,
        min_route_length=120.0,
        n_districts=4,
        ped_district_skew=True,
    ),
    collect_duration=60.0,
    trace_duration=400.0,
    train_duration=300.0,
    train_interval=2.0,
    coreset_size=10,
)


def main() -> None:
    pin_blas_threads()  # one GEMM thread: the digests any host reproduces
    print("Building the shared context...")
    context = build_context(SCALE)

    print("\n== Chat-log anatomy of one LbChat run ==")
    result = run_method(context, RunSpec.for_context(context, "LbChat", seed=1))
    log = result.trainer.chat_log
    print(f"  chats: {len(log)}")
    print(f"  mean psi per direction: {log.mean_psi():.2f}")
    print(f"  one-sided sends: {100 * log.one_sided_fraction():.0f}% of completed chats")
    print(f"  aborts by stage: {log.abort_counts() or 'none'}")
    print(f"  chats per vehicle: {log.per_vehicle_chats()}")

    print("\n== Convergence statistics (LbChat vs DP, seed 1) ==")
    dp = run_method(context, RunSpec.for_context(context, "DP", seed=1))
    grid, lb_curve = result.loss_curve(13)
    _, dp_curve = dp.loss_curve(13)
    summary = convergence_summary(grid, {"LbChat": lb_curve, "DP": dp_curve})
    for method, stats in summary.items():
        t = stats["time_to_threshold"]
        t_text = f"{t:.0f}s" if np.isfinite(t) else "never"
        print(f"  {method:7s} final {stats['final']:.3f}  "
              f"reaches threshold at {t_text}  AUC {stats['auc']:.0f}")

    print("\n== Multi-seed comparison (2 seeds each) ==")
    lbchat = run_seeds(context, "LbChat", seeds=[1, 2], wireless=True, n_points=13)
    dp_seeds = run_seeds(context, "DP", seeds=[1, 2], wireless=True, n_points=13)
    print(" ", lbchat.describe())
    print(" ", dp_seeds.describe())
    verdict = compare_methods(lbchat, dp_seeds)
    print(f"  LbChat better by {-verdict['difference']:.3f} loss "
          f"(one-sided Welch p = {verdict['p_value_a_less_than_b']:.3f}; "
          "2 seeds is only a demo — add seeds for real inference)")


if __name__ == "__main__":
    main()
