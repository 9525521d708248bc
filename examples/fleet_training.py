"""Fleet scenario: LbChat vs. decentralized baselines under wireless loss.

Reproduces the paper's headline comparison at demo scale: a fleet of
vehicles trains collaboratively while driving; LbChat's coreset-guided
exchanges converge like the idealized central server and beat the
decentralized baselines, with a far higher model-receive completion
rate thanks to route-based neighbor prioritization (Eq. 5).

Run:  python examples/fleet_training.py
"""

import numpy as np

from repro.blas import pin_blas_threads
from repro.experiments.configs import CI
from repro.experiments.render import render_curves
from repro.experiments.runner import RunSpec, build_context, run_method

METHODS = ("ProxSkip", "DFL-DDS", "DP", "LbChat")


def main() -> None:
    pin_blas_threads()  # one GEMM thread: the digests any host reproduces
    print("Building the shared world (datasets + mobility traces)...")
    context = build_context(CI)
    total = sum(len(d) for d in context.datasets.values())
    print(f"  {len(context.datasets)} vehicles, {total} frames total, "
          f"{context.traces.duration:.0f} s of traces\n")

    grid = np.linspace(0.0, CI.train_duration, 11)
    curves, rates = {}, {}
    for method in METHODS:
        print(f"Training with {method} (wireless loss on)...")
        result = run_method(context, RunSpec.for_context(context, method, seed=1))
        _, curves[method] = result.loss_curve(11)
        rates[method] = result.receive_rate

    print()
    print(render_curves("Fleet validation loss vs time (w wireless loss)", grid, curves))
    print()
    print("Successful model receiving rate:")
    for method in METHODS:
        marker = "  <-- coreset + route sharing" if method == "LbChat" else ""
        print(f"  {method:10s} {100 * rates[method]:5.1f}%{marker}")

    lbchat_final = curves["LbChat"][-1]
    print(f"\nLbChat final loss {lbchat_final:.3f} vs "
          f"DFL-DDS {curves['DFL-DDS'][-1]:.3f}, DP {curves['DP'][-1]:.3f} "
          f"(ProxSkip, the idealized server: {curves['ProxSkip'][-1]:.3f})")


if __name__ == "__main__":
    main()
