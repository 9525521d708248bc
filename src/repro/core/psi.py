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

from repro.compression import decompress, topk_plan
from repro.nn.params import get_flat_params

__all__ = ["PsiLossMap", "build_psi_map", "optimize_compression", "PsiDecision"]

#: The compression levels every psi map samples, ascending (Akima's
#: abscissae).  The last is the dense model, whose loss the prober is
#: handed rather than computes.
DEFAULT_PSI_GRID = (0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class PsiLossMap:
    """The mapping ``phi``: relative model size -> loss on own coreset.

    Akima's piecewise cubic through the samples, fitted here once, with
    the arithmetic of ``scipy.interpolate.Akima1DInterpolator`` (scipy
    1.17: ``CubicHermiteSpline`` coefficients, ``PPoly`` evaluation)
    statement for statement, so a map's bits — and with them an
    ``argmax`` over the Eq. 7 lattice — do not depend on which scipy is
    installed.  ``tests/test_core_value_psi_aggregate.py`` holds it to
    scipy with ``==``.  Two samples give the line through them.
    """

    psis: np.ndarray
    losses: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.psis, dtype=float)
        y = np.asarray(self.losses, dtype=float)
        if len(x) != len(y):
            raise ValueError("psis and losses must align")
        if len(x) < 2:
            raise ValueError("need at least two sample points")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("psis and losses must be finite")
        dx = np.diff(x)
        if (dx <= 0).any():
            raise ValueError("psis must be strictly increasing")
        # Akima needs >= 3 points; two are np.interp's line.
        object.__setattr__(self, "_coefficients", _akima(dx, y) if len(x) >= 3 else None)

    def losses_at(self, psi) -> np.ndarray:
        """Interpolated losses of the model compressed to each size in ``psi``.

        Akima interpolation inside the sampled range; clamped at the
        ends (extrapolation of loss curves is untrustworthy).
        """
        x = self.psis
        psi = np.clip(psi, x[0], x[-1])
        if self._coefficients is None:
            return np.interp(psi, x, self.losses)
        # The interval [x_i, x_i+1) holding each psi (the last one
        # closed), then the cubic in s = psi - x_i summed from its
        # constant term up, powers of s by repeated multiplication.
        i = np.clip(np.searchsorted(x, psi, side="right") - 1, 0, len(x) - 2)
        cubic, square, linear, constant = self._coefficients[:, i]
        s = psi - x[i]
        power = s * s
        return constant + linear * s + square * power + cubic * (power * s)

    def loss_at(self, psi: float) -> float:
        """:meth:`losses_at` for one psi."""
        return float(self.losses_at(psi))


def _akima(dx: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Akima's cubic through ``y`` at knots ``dx`` apart: ``(4, n - 1)``
    coefficients, highest power first, of each interval's polynomial in
    the offset from its left knot."""
    n = len(y)
    slope = np.diff(y) / dx
    # Interval slopes, continued by two on each side.
    m = np.empty(n + 3)
    m[2:-2] = slope
    m[1] = 2.0 * m[2] - m[3]
    m[0] = 2.0 * m[1] - m[2]
    m[-2] = 2.0 * m[-3] - m[-4]
    m[-1] = 2.0 * m[-2] - m[-3]
    # Knot slopes: where m1 == m2 != m3 == m4 leaves Akima's weights
    # undefined (their sum at most 1e-9 of the largest), the mean of the
    # two neighbouring interval slopes; elsewhere m2 and m3 weighted by
    # |m4 - m3| and |m2 - m1|.
    t = 0.5 * (m[3:] + m[:-3])
    dm = np.abs(np.diff(m))
    f1, f2 = dm[2:], dm[:-2]
    f12 = f1 + f2
    ind = np.nonzero(f12 > 1e-9 * f12.max())[0]
    t[ind] = m[ind + 1] + (f2[ind] / f12[ind]) * (m[ind + 2] - m[ind + 1])
    # The Hermite cubic of each interval from its end values and slopes.
    curve = (t[:-1] + t[1:] - 2 * slope) / dx
    return np.stack((curve / dx, (slope - t[:-1]) / dx - curve, t[:-1], y[:-1]))


def build_psi_map(model, evaluate_on_coreset, nominal_size_bytes: int) -> PsiLossMap:
    """Sample :data:`DEFAULT_PSI_GRID` and fit the phi mapping, level by level.

    The levels share one sort of the magnitudes
    (:func:`repro.compression.topk_plan`) instead of re-sorting per psi.
    Kept as the oracle of :class:`~repro.core.overlap.DensePsiProber`,
    which fits every chat's map in one batch (``tests/test_psi_prober.py``
    and the ``psi.loop`` selfcheck row compare the two); no chat runs
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
    map_i: PsiLossMap | None,
    map_j: PsiLossMap | None,
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
    exchanges end quickly.  A side whose map is ``None`` (a diverged
    model fits none) gains nothing at any psi, so it sends nothing.
    """
    window = min(time_budget, contact_duration)
    bytes_per_second = bandwidth_bps / 8.0
    grid = np.linspace(0.0, 1.0, grid_points)
    # Each side's gain along its own psi axis — truncated_gain at every
    # lattice point, nothing at psi = 0 (the objective is separable apart
    # from the shared time constraint).
    sends = grid > 0

    def gains(sender_map, receiver_loss):
        if sender_map is None:  # a diverged sender fitted no map: nothing to gain
            return np.zeros_like(grid)
        return np.where(sends, np.maximum(receiver_loss - sender_map.losses_at(grid), 0.0), 0.0)

    gains_i_axis, gains_j_axis = gains(map_i, loss_j_on_ci), gains(map_j, loss_i_on_cj)
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
