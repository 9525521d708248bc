"""Multi-seed experiment aggregation.

Single-seed tables are noisy at ci scale (8-16 driving trials per
cell).  These helpers repeat a run across seeds and aggregate curves
and scalars into mean ± std summaries, plus a Welch t-test for "is
method A really better than method B here?" — the statistical rigor a
reproduction's claims should rest on when compute allows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.runner import ExperimentContext, RunSpec, register_context
from repro.parallel import run_specs

__all__ = ["SeedSummary", "run_seeds", "compare_methods", "aggregate_tables"]


@dataclass
class SeedSummary:
    """Aggregated outcomes of one method across seeds."""

    method: str
    seeds: list[int]
    grid: np.ndarray
    curves: np.ndarray  # (n_seeds, n_points)
    receive_rates: np.ndarray  # (n_seeds,)

    @property
    def mean_curve(self) -> np.ndarray:
        """Mean loss curve across seeds."""
        return self.curves.mean(axis=0)

    @property
    def std_curve(self) -> np.ndarray:
        """Per-point std across seeds (zeros for one seed)."""
        return self.curves.std(axis=0, ddof=1) if len(self.seeds) > 1 else np.zeros_like(
            self.mean_curve
        )

    @property
    def final_losses(self) -> np.ndarray:
        """Final loss of each seed's curve."""
        return self.curves[:, -1]

    def describe(self) -> str:
        """One-line human summary (mean ± std, receive rate)."""
        final = self.final_losses
        rate = self.receive_rates.mean()
        return (
            f"{self.method}: final loss {final.mean():.3f} ± {final.std(ddof=1) if len(final) > 1 else 0.0:.3f} "
            f"(n={len(self.seeds)}), receive rate {100 * rate:.1f}%"
        )


def run_seeds(
    context: ExperimentContext,
    method: str,
    seeds: list[int],
    wireless: bool = True,
    n_points: int = 21,
    jobs: int = 1,
    coreset_size: int | None = None,
    coreset_strategy: str | None = None,
    overrides: dict | None = None,
) -> SeedSummary:
    """Run one method across several seeds and stack the loss curves.

    One :class:`RunSpec` is built per seed and executed through
    :func:`repro.parallel.run_specs` — ``jobs > 1`` fans the seeds out
    to worker processes with bit-identical results and ordering.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    register_context(context)  # serial path / forked workers reuse it
    specs = [
        RunSpec.for_context(
            context,
            method,
            wireless=wireless,
            seed=seed,
            coreset_size=coreset_size,
            coreset_strategy=coreset_strategy,
            overrides=dict(overrides or {}),
        )
        for seed in seeds
    ]
    results = run_specs(specs, jobs=jobs)
    curves, rates = [], []
    grid = None
    for seed, result in zip(seeds, results):
        seed_grid, curve = result.loss_curve(n_points)
        if grid is None:
            grid = seed_grid
        elif not np.array_equal(seed_grid, grid):
            raise ValueError(
                f"seed {seed} produced a different time grid than seed "
                f"{seeds[0]} (durations {seed_grid[-1]} vs {grid[-1]}, "
                f"{len(seed_grid)} vs {len(grid)} points); seeds of one "
                "summary must share duration and n_points"
            )
        curves.append(curve)
        rates.append(result.receive_rate)
    return SeedSummary(
        method=method,
        seeds=list(seeds),
        grid=grid,
        curves=np.stack(curves),
        receive_rates=np.asarray(rates),
    )


def compare_methods(a: SeedSummary, b: SeedSummary) -> dict[str, float]:
    """Welch t-test on final losses: is A's final loss lower than B's?

    Returns the means, the difference, and the one-sided p-value for
    ``mean(A) < mean(B)``.  With a single seed the p-value is NaN.
    """
    mean_a = float(a.final_losses.mean())
    mean_b = float(b.final_losses.mean())
    if len(a.seeds) < 2 or len(b.seeds) < 2:
        p_value = float("nan")
    else:
        # Imported here: scipy.stats is 0.3 s of every ``repro`` start-up
        # (this module is imported by ``repro.experiments``) for one test.
        from scipy import stats

        t_stat, p_two_sided = stats.ttest_ind(
            a.final_losses, b.final_losses, equal_var=False
        )
        p_value = p_two_sided / 2 if t_stat < 0 else 1.0 - p_two_sided / 2
    return {
        "mean_a": mean_a,
        "mean_b": mean_b,
        "difference": mean_a - mean_b,
        "p_value_a_less_than_b": float(p_value),
    }


def aggregate_tables(tables: list[dict[str, dict[str, float]]]) -> dict[str, dict[str, tuple[float, float]]]:
    """Combine per-seed success tables into (mean, std) cells.

    Each input is ``{condition: {column: value}}``; all must share the
    same keys.
    """
    if not tables:
        raise ValueError("need at least one table")
    out: dict[str, dict[str, tuple[float, float]]] = {}
    for condition in tables[0]:
        out[condition] = {}
        for column in tables[0][condition]:
            values = np.array([table[condition][column] for table in tables])
            std = float(values.std(ddof=1)) if len(values) > 1 else 0.0
            out[condition][column] = (float(values.mean()), std)
    return out
