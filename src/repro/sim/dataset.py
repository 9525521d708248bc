"""Driving frame datasets for imitation learning.

A *frame* is one training sample: the BEV observation, the active
high-level command, and the expert's future waypoints in the vehicle
frame.  A :class:`DrivingDataset` is an array-backed weighted collection
of frames supporting everything LbChat needs: weighted minibatch
sampling, per-sample loss evaluation hooks, absorption of received
coresets, and per-command statistics (for the Eq. 6 entropy penalty).

Storage is array-native: frames live in contiguous preallocated numpy
buffers (amortized-doubling growth) with an id → row dict for O(1)
dedup, so :meth:`DrivingDataset.arrays` returns cached read-only views
instead of re-stacking Python lists, :meth:`DrivingDataset.sample_batch`
fancy-indexes rows directly, and bulk operations (:meth:`subset`,
:meth:`with_weights`, :meth:`absorb_from`) copy whole array slices
without materializing per-frame objects.  The :attr:`generation`
counter (bumped on every mutation) lets callers — the view cache here,
and :class:`repro.core.node.VehicleNode`'s loss cache — invalidate
derived state exactly when the dataset changes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.nn.model import N_COMMANDS
from repro.sim.bev import BevSpec, render_fleet_bev
from repro.sim.geometry import to_vehicle_frame_fleet
from repro.sim.world import World

__all__ = ["Frame", "DrivingDataset", "collect_fleet_datasets"]

#: Process-wide unique ids so caches can key datasets without holding
#: references (``id()`` values get recycled; these never do).
_DATASET_UIDS = itertools.count()

_MIN_CAPACITY = 8


@dataclass(frozen=True)
class Frame:
    """One imitation-learning sample."""

    frame_id: str
    bev: np.ndarray  # (C, H, W) float32
    command: int
    waypoints: np.ndarray  # (2 * n_waypoints,) float32, vehicle frame
    weight: float = 1.0


class DrivingDataset:
    """Weighted, array-backed collection of frames."""

    def __init__(self, frames: list[Frame] | None = None):
        self._ids: list[str] = []
        self._index: dict[str, int] = {}
        self._size = 0
        # Buffers are allocated on first append (the first frame fixes
        # the BEV shape and waypoint length).
        self._bev: np.ndarray | None = None  # (cap, C, H, W) float32
        self._commands: np.ndarray | None = None  # (cap,) int64
        self._targets: np.ndarray | None = None  # (cap, 2n) float32
        self._weights: np.ndarray | None = None  # (cap,) float64
        self._generation = 0
        self._uid = next(_DATASET_UIDS)
        self._views: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None
        self._views_generation = -1
        for frame in frames or []:
            self.add(frame)

    def __len__(self) -> int:
        return self._size

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_views"] = None  # views would pickle duplicated buffer data
        state["_views_generation"] = -1
        for name in ("_bev", "_commands", "_targets", "_weights"):
            buffer = state[name]
            if buffer is not None and buffer.shape[0] != self._size:
                state[name] = buffer[: self._size].copy()  # drop spare capacity
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        # A fresh uid in the receiving process: pickled uids could
        # collide with ids handed out locally, confusing caches keyed
        # on (uid, generation).
        self._uid = next(_DATASET_UIDS)

    @classmethod
    def from_arrays(
        cls,
        ids,
        bev: np.ndarray,
        commands: np.ndarray,
        targets: np.ndarray,
        weights: np.ndarray,
    ) -> "DrivingDataset":
        """Build a dataset directly from column arrays (checkpoint restore).

        ``ids`` must be unique; rows are adopted in order with no dedup
        pass, so a dataset rebuilt from its own :meth:`arrays` output is
        identical to the original (same ids, same row order).
        """
        out = cls()
        ids = [str(frame_id) for frame_id in ids]
        if len(set(ids)) != len(ids):
            raise ValueError("from_arrays requires unique frame ids")
        if ids:
            out._bulk_append(
                ids,
                np.asarray(bev, dtype=np.float32),
                np.asarray(commands, dtype=np.int64),
                np.asarray(targets, dtype=np.float32),
                np.asarray(weights, dtype=np.float64),
            )
        return out

    @property
    def uid(self) -> int:
        """Process-wide unique identity (stable across mutations)."""
        return self._uid

    @property
    def generation(self) -> int:
        """Mutation counter; changes whenever frames are appended."""
        return self._generation

    # -- growth ---------------------------------------------------------------

    def _ensure_capacity(self, extra: int, bev_shape, target_len: int) -> None:
        needed = self._size + extra
        if self._bev is None:
            cap = max(_MIN_CAPACITY, needed)
            self._bev = np.empty((cap, *bev_shape), dtype=np.float32)
            self._commands = np.empty(cap, dtype=np.int64)
            self._targets = np.empty((cap, target_len), dtype=np.float32)
            self._weights = np.empty(cap, dtype=np.float64)
            return
        cap = self._bev.shape[0]
        if needed <= cap:
            return
        new_cap = max(2 * cap, needed)
        for name in ("_bev", "_commands", "_targets", "_weights"):
            old = getattr(self, name)
            grown = np.empty((new_cap, *old.shape[1:]), dtype=old.dtype)
            grown[: self._size] = old[: self._size]
            setattr(self, name, grown)

    def add(self, frame: Frame) -> None:
        """Append a frame; duplicate ids are silently skipped.

        Duplicate skipping makes coreset absorption idempotent — a
        vehicle may receive overlapping coresets from repeat encounters.
        """
        if frame.frame_id in self._index:
            return
        bev = np.asarray(frame.bev, dtype=np.float32)
        target = np.asarray(frame.waypoints, dtype=np.float32).ravel()
        self._ensure_capacity(1, bev.shape, target.size)
        row = self._size
        self._bev[row] = bev
        self._commands[row] = int(frame.command)
        self._targets[row] = target
        self._weights[row] = float(frame.weight)
        self._index[frame.frame_id] = row
        self._ids.append(frame.frame_id)
        self._size += 1
        self._generation += 1

    def extend(self, frames: list[Frame]) -> None:
        """Append several frames (duplicates skipped by id)."""
        for frame in frames:
            self.add(frame)

    def _bulk_append(
        self,
        ids: list[str],
        bev: np.ndarray,
        commands: np.ndarray,
        targets: np.ndarray,
        weights: np.ndarray,
    ) -> None:
        """Append rows known to be absent from the id index."""
        m = len(ids)
        if m == 0:
            return
        self._ensure_capacity(m, bev.shape[1:], targets.shape[1])
        start = self._size
        self._bev[start : start + m] = bev
        self._commands[start : start + m] = commands
        self._targets[start : start + m] = targets
        self._weights[start : start + m] = weights
        for offset, frame_id in enumerate(ids):
            self._index[frame_id] = start + offset
        self._ids.extend(ids)
        self._size += m
        self._generation += 1

    def absorb_from(self, other: "DrivingDataset", weight: float | None = None) -> int:
        """Bulk-append another dataset's frames, skipping duplicate ids.

        ``weight`` overrides every appended frame's weight (coreset
        absorption resets received samples to the local convention);
        ``None`` keeps the source weights.  Returns the number of frames
        actually added, preserving the source's insertion order.
        """
        if len(other) == 0:
            return 0
        index = self._index
        keep = [i for i, fid in enumerate(other._ids) if fid not in index]
        if not keep:
            return 0
        rows = np.asarray(keep, dtype=np.intp)
        bev, commands, targets, weights = other.arrays()
        if weight is not None:
            new_weights = np.full(len(keep), float(weight), dtype=np.float64)
        else:
            new_weights = weights[rows]
        self._bulk_append(
            [other._ids[i] for i in keep],
            bev[rows],
            commands[rows],
            targets[rows],
            new_weights,
        )
        return len(keep)

    # -- array views ---------------------------------------------------------

    @property
    def ids(self) -> list[str]:
        """Frame ids in insertion order (a copy)."""
        return list(self._ids)

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(bev, commands, targets, weights) as read-only array views.

        Views are cached and only rebuilt after a mutation; they stay
        valid (and frozen at their snapshot) even if the dataset grows
        afterwards, because growth reallocates the buffers.
        """
        if self._size == 0:
            raise ValueError("dataset is empty")
        if self._views is None or self._views_generation != self._generation:
            views = []
            for buffer in (self._bev, self._commands, self._targets, self._weights):
                view = buffer[: self._size]
                view.flags.writeable = False
                views.append(view)
            self._views = tuple(views)
            self._views_generation = self._generation
        return self._views

    def frame(self, index: int) -> Frame:
        """Materialize the i-th frame as a Frame object (zero-copy views)."""
        frame_id = self._ids[index]  # list indexing handles negatives/bounds
        if index < 0:
            index += self._size
        bev = self._bev[index]
        bev.flags.writeable = False
        waypoints = self._targets[index]
        waypoints.flags.writeable = False
        return Frame(
            frame_id=frame_id,
            bev=bev,
            command=int(self._commands[index]),
            waypoints=waypoints,
            weight=float(self._weights[index]),
        )

    def frames(self) -> list[Frame]:
        """All frames as Frame objects."""
        return [self.frame(i) for i in range(len(self))]

    def copy(self) -> "DrivingDataset":
        """An independent copy (same frames, fresh buffers)."""
        out = DrivingDataset()
        out.absorb_from(self)
        return out

    def subset(
        self, indices, weights: np.ndarray | None = None
    ) -> "DrivingDataset":
        """A new dataset holding only the given indices.

        Duplicate indices are dropped (keeping the first occurrence),
        matching the id-dedup the frame-by-frame path applied.  The
        optional ``weights`` (aligned with ``indices``) replace the
        copied frames' weights — coreset construction selects rows and
        assigns their coreset weights in one pass this way.
        """
        rows = [int(i) for i in indices]
        if len(rows) != len(set(rows)):
            keep_weights: dict[int, float] = {}
            if weights is not None:
                for row, w in zip(rows, weights):
                    keep_weights.setdefault(row, float(w))
                rows = list(keep_weights)
                weights = np.asarray([keep_weights[row] for row in rows])
            else:
                rows = list(dict.fromkeys(rows))
        out = DrivingDataset()
        if not rows:
            return out
        bev, commands, targets, own_weights = self.arrays()
        idx = np.asarray(rows, dtype=np.intp)
        new_weights = (
            own_weights[idx]
            if weights is None
            else np.asarray(weights, dtype=np.float64)
        )
        out._bulk_append(
            [self._ids[row] for row in rows],
            bev[idx],
            commands[idx],
            targets[idx],
            new_weights,
        )
        return out

    def with_weights(self, weights: np.ndarray) -> "DrivingDataset":
        """Copy with replaced per-frame weights."""
        if len(weights) != len(self):
            raise ValueError(f"{len(weights)} weights for {len(self)} frames")
        out = DrivingDataset()
        if self._size:
            bev, commands, targets, _ = self.arrays()
            out._bulk_append(
                list(self._ids),
                bev,
                commands,
                targets,
                np.asarray(weights, dtype=np.float64),
            )
        return out

    @property
    def weights(self) -> np.ndarray:
        """Per-frame weights as an array (a fresh, writable copy)."""
        if self._size == 0:
            return np.zeros(0, dtype=np.float64)
        return self._weights[: self._size].copy()

    def total_weight(self) -> float:
        """Sum of all frame weights."""
        if self._size == 0:
            return 0.0
        return float(self._weights[: self._size].sum())

    def command_counts(self) -> np.ndarray:
        """Frame counts per high-level command, shape ``(N_COMMANDS,)``."""
        if self._size == 0:
            return np.zeros(N_COMMANDS, dtype=np.int64)
        return np.bincount(
            self._commands[: self._size], minlength=N_COMMANDS
        ).astype(np.int64)

    # -- sampling --------------------------------------------------------------

    def sample_batch(
        self,
        batch_size: int,
        rng: np.random.Generator,
        balance_commands: bool = False,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Weighted random minibatch: (bev, commands, targets, indices).

        Always ``batch_size`` rows, drawn with replacement when the
        dataset holds fewer frames than that, so every node's batch
        stacks into the fleet's one dense step whatever it has collected.

        With ``balance_commands`` the batch is stratified uniformly over
        the commands present in the dataset (the standard trick for
        command-branched imitation models — rare branches like 'turn
        left' would otherwise starve), sampling by weight within each
        command.
        """
        if self._size == 0:
            raise ValueError("cannot sample from an empty dataset")
        bev, commands_arr, targets, weights = self.arrays()
        if balance_commands:
            present = np.unique(commands_arr)
            picks: list[int] = []
            share, extra = divmod(batch_size, len(present))
            for k, cmd in enumerate(present):
                members = np.where(commands_arr == cmd)[0]
                quota = share + (1 if k < extra else 0)
                probs = weights[members] / weights[members].sum()
                picks.extend(
                    rng.choice(members, size=quota, replace=True, p=probs).tolist()
                )
            idx = np.asarray(picks)
        else:
            probs = weights / weights.sum()
            idx = rng.choice(
                len(self), size=batch_size, replace=len(self) < batch_size, p=probs
            )
        return bev[idx], commands_arr[idx], targets[idx], idx


def collect_fleet_datasets(
    world: World,
    duration: float,
    bev_spec: BevSpec,
    n_waypoints: int = 5,
    waypoint_interval: float = 0.5,
) -> dict[str, DrivingDataset]:
    """Run the world and build each vehicle's local dataset.

    The world is stepped for ``duration`` plus the waypoint horizon (the
    last frames need future positions for their targets), then frames
    are assembled offline from the recorded snapshots, mirroring how a
    real vehicle would label frames once the future is known.
    """
    snap_dt = world.config.snapshot_interval
    stride = max(int(round(waypoint_interval / snap_dt)), 1)
    horizon = n_waypoints * stride
    world.run(duration + horizon * snap_dt + snap_dt)
    snapshots = world.snapshots
    datasets: dict[str, DrivingDataset] = {
        v.vehicle_id: DrivingDataset() for v in world.vehicles
    }
    n_usable = len(snapshots) - horizon
    if n_usable <= 0 or not datasets:
        return datasets
    # Fleet positions across all snapshots, (n_snapshots, V, 2); slices
    # of this provide both BEV origins and future waypoint labels.
    ids = list(snapshots[0].vehicle_states)
    all_pos = np.array(
        [[snap.vehicle_states[vid].position for vid in ids] for snap in snapshots]
    )
    for k in range(n_usable):
        snap = snapshots[k]
        states = [snap.vehicle_states[vid] for vid in ids]
        headings = np.array([s.heading for s in states])
        bevs = render_fleet_bev(
            world.town,
            bev_spec,
            states,
            [snap.vehicle_plans[vid] for vid in ids],
            all_pos[k],
            snap.bg_car_positions,
            snap.pedestrian_positions,
        )
        # (V, n_waypoints, 2): each vehicle's future positions at
        # snapshots k + stride, k + 2*stride, ..., in its current frame.
        future = np.swapaxes(
            all_pos[k + stride : k + n_waypoints * stride + 1 : stride], 0, 1
        )
        waypoints = to_vehicle_frame_fleet(future, all_pos[k], headings)
        for v, vehicle_id in enumerate(ids):
            datasets[vehicle_id].add(
                Frame(
                    frame_id=f"{vehicle_id}:{k}",
                    bev=bevs[v],
                    command=snap.vehicle_commands[vehicle_id],
                    waypoints=waypoints[v].ravel().astype(np.float32),
                )
            )
    return datasets
