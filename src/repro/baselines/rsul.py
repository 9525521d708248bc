"""RSU-L — road-side-unit based opportunistic learning (Xu et al.).

Road-side units sit at road crossings; each maintains its own RSU model
and acts as a local coordinator: a passing vehicle uploads its model,
the RSU folds it into its running aggregate, and the vehicle downloads
the RSU model and adopts it.  The backend behind the RSUs is assumed
unconstrained (§IV-B), but the *radio hop* between the vehicle and the
RSU is a real transfer: distance-based wireless loss applies and the
vehicle must stay in range long enough, so the vehicle-side experience
matches LbChat's constraints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.trainer_base import ROUTE_HORIZON, TrainerBase, TrainerConfig
from repro.engine.random import spawn_rng
from repro.net.channel import simulate_transfer
from repro.net.wireless import WirelessModel, table_loss

__all__ = ["RsuLConfig", "RsuLTrainer", "RoadSideUnit"]


@dataclass
class RsuLConfig(TrainerConfig):
    """RSU placement and session configuration."""
    n_rsus: int = 4
    rsu_range: float = 500.0
    #: A vehicle syncs with (any) RSU at most this often.
    rsu_cooldown: float = 30.0
    #: Fraction of the session window the up+down transfers are sized to
    #: fill — the protocol's fixed headroom for retransmissions.
    fill_factor: float = 0.75


class RoadSideUnit:
    """One RSU: a fixed position plus an aggregate of recent uploads.

    The RSU model is the mean of the last few uploaded vehicle models
    (a sliding window), so it tracks the fleet's *current* training
    progress instead of an ever-staler EMA reaching back to the shared
    initialization.
    """

    WINDOW = 6

    def __init__(self, rsu_id: str, position: np.ndarray, params: np.ndarray):
        self.rsu_id = rsu_id
        self.position = np.asarray(position, dtype=float)
        self.params = params.copy()
        self.uploads = 0
        self._recent: list[np.ndarray] = []

    def fold_in(self, params: np.ndarray) -> None:
        """Fold an uploaded model into the sliding-window aggregate."""
        self._recent.append(params.copy())
        if len(self._recent) > self.WINDOW:
            self._recent.pop(0)
        self.params = np.mean(self._recent, axis=0).astype(params.dtype)
        self.uploads += 1


class RsuLTrainer(TrainerBase):
    """RSU-based opportunistic aggregation."""

    name = "RSU-L"
    config_class = RsuLConfig
    config: RsuLConfig

    def __init__(
        self,
        nodes,
        traces,
        validation,
        config: RsuLConfig | None = None,
        rsu_positions: np.ndarray | None = None,
    ):
        super().__init__(nodes, traces, validation, config)
        self._rng = spawn_rng(self.config.seed, "rsul-links")
        if rsu_positions is None:
            rsu_positions = self._default_positions()
        init = nodes[0].flat_params
        self.rsus = [
            RoadSideUnit(f"rsu{k}", pos, init) for k, pos in enumerate(rsu_positions)
        ]
        self._last_sync: dict[int, float] = {}

    def _default_positions(self) -> np.ndarray:
        """Spread RSUs over the area the traces actually cover."""
        pts = self.traces.positions.reshape(-1, 2)
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        k = self.config.n_rsus
        # Place on a diagonal-ish lattice inside the bounding box.
        fractions = np.linspace(0.25, 0.75, max(k, 1))
        return np.stack(
            [lo + f * (hi - lo) for f in fractions]
        ) if k > 1 else np.array([(lo + hi) / 2.0])

    def on_scan(self, i: int) -> None:
        """Sync with the nearest in-range RSU once per cooldown."""
        last = self._last_sync.get(i)
        if last is not None and self.sim.now - last < self.config.rsu_cooldown:
            return
        pos = self.traces.position(i, self.sim.now)
        best, best_dist = None, np.inf
        for rsu in self.rsus:
            dist = float(np.linalg.norm(rsu.position - pos))
            if dist <= self.config.rsu_range and dist < best_dist:
                best, best_dist = rsu, dist
        if best is None:
            return
        self._sync_with_rsu(i, best)

    def _sync_with_rsu(self, i: int, rsu: RoadSideUnit) -> None:
        node = self.nodes[i]
        now = self.sim.now
        self._last_sync[i] = now

        def distance_fn(t: float) -> float:
            return float(np.linalg.norm(self.traces.position(i, t) - rsu.position))

        # Session window: remaining dwell in RSU range.  Unlike V2V
        # chats, an RSU session has no T_B cap — the RSU is fixed
        # infrastructure and keeps serving as long as the vehicle stays
        # in range (the paper grants RSU-L an unconstrained backend).
        future = self.traces.future_positions(i, now, ROUTE_HORIZON)
        dists = np.linalg.norm(future - rsu.position, axis=1)
        out = np.where(dists > self.config.rsu_range)[0]
        dwell = (out[0] if len(out) else len(dists)) * self.traces.interval
        window = min(max(float(dwell), 1.0), ROUTE_HORIZON)
        deadline = now + window
        # Size both directions to fit the window at the *raw* bandwidth
        # (the RSU protocol does not do LbChat's loss-aware estimation).
        bytes_per_second = node.config.bandwidth_bps / 8.0
        psi = min(
            self.config.fill_factor
            * window
            * bytes_per_second
            / (2.0 * node.config.nominal_model_bytes),
            1.0,
        )
        # Per §IV-C the RSU link's wireless loss is sampled uniformly
        # from the distance-loss lookup table (as for ProxSkip), one
        # draw per transfer.
        if self.config.wireless_loss:
            up_wireless = WirelessModel.fixed(table_loss(self._rng))
            down_wireless = WirelessModel.fixed(table_loss(self._rng))
        else:
            up_wireless = down_wireless = self.wireless
        up_model = node.compress_model(psi)
        up = simulate_transfer(
            up_model.nominal_bytes, distance_fn, up_wireless, self.config.channel, now, deadline
        )
        elapsed = up.elapsed
        if up.completed:
            from repro.compression import decompress

            rsu.fold_in(decompress(up_model, fill=node.flat_params))
            down = simulate_transfer(
                up_model.nominal_bytes,
                distance_fn,
                down_wireless,
                self.config.channel,
                now + elapsed,
                deadline,
            )
            elapsed += down.elapsed
            self.receive_rate.observe(down.completed)
            if down.completed:
                # Merge the RSU aggregate into the local model (keeping
                # half the local progress, as the RSU model lags the
                # freshest local training between visits).
                merged = 0.5 * node.flat_params + 0.5 * rsu.params
                node.replace_model_params(merged.astype(np.float32))
                self.counters.add("rsu_syncs")
        else:
            self.receive_rate.observe(False)
        self.occupy(i, elapsed)

    # -- checkpointing ------------------------------------------------------------

    def extra_state(self) -> dict:
        items = sorted(self._last_sync.items())
        return {
            "rsus": [
                {
                    "params": rsu.params.copy(),
                    "uploads": rsu.uploads,
                    "recent": [params.copy() for params in rsu._recent],
                }
                for rsu in self.rsus
            ],
            "sync_vehicles": np.asarray([i for i, _ in items], dtype=np.int64),
            "sync_times": np.asarray([t for _, t in items], dtype=float),
            "rng": self._rng.bit_generator.state,
        }

    def restore_extra(self, state) -> None:
        for rsu, rsu_state in zip(self.rsus, state["rsus"], strict=True):
            rsu.params = np.asarray(rsu_state["params"]).copy()
            rsu.uploads = int(rsu_state["uploads"])
            rsu._recent = [np.asarray(p).copy() for p in rsu_state["recent"]]
        self._last_sync = {
            int(i): float(t)
            for i, t in zip(state["sync_vehicles"], state["sync_times"])
        }
        self._rng.bit_generator.state = state["rng"]
