"""Compression-ratio optimization (Eq. 7) with Akima-interpolated maps.

To predict how compression degrades a model before sending it, a
vehicle samples a handful of compression levels ``psi``, compresses its
model at each, evaluates every compressed variant on its own coreset
(cheap — the coreset is tiny), and fits an interpolating curve through
the ``(psi, loss)`` pairs with Akima's method, as the paper prescribes.
The two vehicles exchange these curves (a few floats) and then solve
Eq. 7 jointly: pick ``(psi_i, psi_j)`` maximizing the sum of truncated
gains plus a reward for finishing early, subject to the exchange
fitting inside ``min(T_B, T_contact)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import Akima1DInterpolator

from repro.compression import decompress, topk_plan
from repro.core.value import truncated_gain
from repro.nn.params import get_flat_params

__all__ = ["PsiLossMap", "build_psi_map", "optimize_compression", "PsiDecision"]

#: The compression levels every psi map samples, ascending (Akima's
#: abscissae); the dense prober sizes its bank from it.
DEFAULT_PSI_GRID = (0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class PsiLossMap:
    """The mapping ``phi``: relative model size -> loss on own coreset."""

    psis: np.ndarray
    losses: np.ndarray

    def __post_init__(self):
        if len(self.psis) != len(self.losses):
            raise ValueError("psis and losses must align")
        if len(self.psis) < 2:
            raise ValueError("need at least two sample points")
        # Akima needs >= 3 points; fall back to linear for 2.
        if len(self.psis) >= 3:
            interp = Akima1DInterpolator(self.psis, self.losses)
        else:
            interp = lambda x: np.interp(x, self.psis, self.losses)  # noqa: E731
        object.__setattr__(self, "_interp", interp)

    def loss_at(self, psi: float) -> float:
        """Interpolated loss of the model compressed to relative size psi.

        Akima interpolation inside the sampled range; clamped at the
        ends (extrapolation of loss curves is untrustworthy).
        """
        psi = float(np.clip(psi, self.psis[0], self.psis[-1]))
        return float(self._interp(psi))

    def payload(self) -> list[tuple[float, float]]:
        """The (psi, loss) pairs a vehicle sends to its peer."""
        return list(zip(self.psis.tolist(), self.losses.tolist()))


def build_psi_map(model, evaluate_on_coreset, nominal_size_bytes: int) -> PsiLossMap:
    """Sample :data:`DEFAULT_PSI_GRID` and fit the phi mapping, level by level.

    The levels share one sort of the magnitudes
    (:func:`repro.compression.topk_plan`) instead of re-sorting per psi.
    Kept as the test oracle of :class:`~repro.core.overlap.DensePsiProber`,
    which fits every chat's map in one batched forward; no chat runs
    this loop.

    Parameters
    ----------
    model:
        The vehicle's current model (restored untouched afterwards).
    evaluate_on_coreset:
        Callable ``(model) -> float`` returning the weighted loss on the
        vehicle's own coreset.
    nominal_size_bytes:
        Paper-scale uncompressed model size (for size accounting only).
    """
    from repro.nn.params import clone_model, set_flat_params

    flat = get_flat_params(model)
    plan = topk_plan(flat, nominal_size_bytes)
    probe = clone_model(model)
    psis, losses = [], []
    for psi in DEFAULT_PSI_GRID:
        if psi >= 1.0:
            set_flat_params(probe, flat)
        else:
            set_flat_params(probe, decompress(plan.compress(psi)))
        psis.append(float(psi))
        losses.append(float(evaluate_on_coreset(probe)))
    return PsiLossMap(np.asarray(psis), np.asarray(losses))


@dataclass(frozen=True)
class PsiDecision:
    """Solution of Eq. 7 for one pairwise exchange."""

    psi_i: float
    psi_j: float
    objective: float
    exchange_time: float  # T_c


def optimize_compression(
    map_i: PsiLossMap,
    map_j: PsiLossMap,
    loss_i_on_cj: float,
    loss_j_on_ci: float,
    model_size_bytes: float,
    bandwidth_bps: float,
    time_budget: float,
    contact_duration: float,
    lambda_c: float = 0.02,
    grid_points: int = 21,
) -> PsiDecision:
    """Solve Eq. 7 by exhaustive search over a psi grid.

    The objective is evaluated on a ``grid_points x grid_points`` lattice
    over ``[0, 1]^2`` (psi = 0 meaning "send nothing"); with Akima maps
    this is exact enough, deterministic, and free of local minima
    concerns.  Gains follow §III-B: the receiver's loss on the sender's
    coreset minus the (compression-degraded) sender loss, truncated at
    zero; ``lambda_c`` rewards unfinished contact time so uninteresting
    exchanges end quickly.
    """
    window = min(time_budget, contact_duration)
    bytes_per_second = bandwidth_bps / 8.0
    grid = np.linspace(0.0, 1.0, grid_points)
    # Precompute each side's gain along its own psi axis (the objective
    # is separable apart from the shared time constraint).
    gains_i_axis = np.array(
        [truncated_gain(loss_j_on_ci, map_i.loss_at(p)) if p > 0 else 0.0 for p in grid]
    )
    gains_j_axis = np.array(
        [truncated_gain(loss_i_on_cj, map_j.loss_at(p)) if p > 0 else 0.0 for p in grid]
    )
    t_c = model_size_bytes * (grid[:, None] + grid[None, :]) / bytes_per_second
    objective = (
        gains_i_axis[:, None]
        + gains_j_axis[None, :]
        + lambda_c * (window - t_c)
    )
    objective[t_c > window] = -np.inf
    flat_idx = int(np.argmax(objective))
    i_idx, j_idx = np.unravel_index(flat_idx, objective.shape)
    if not np.isfinite(objective[i_idx, j_idx]):
        return PsiDecision(0.0, 0.0, 0.0, 0.0)
    return PsiDecision(
        float(grid[i_idx]),
        float(grid[j_idx]),
        float(objective[i_idx, j_idx]),
        float(t_c[i_idx, j_idx]),
    )
