"""Driving frame datasets for imitation learning.

A *frame* is one training sample: the BEV observation, the active
high-level command, and the expert's future waypoints in the vehicle
frame.  Frames live once, as rows of an append-only :class:`FramePool`
(one for a whole fleet, made by :func:`collect_fleet_datasets`); a
:class:`DrivingDataset` is row numbers and weights over a pool and
supports everything LbChat needs: weighted minibatch sampling,
per-sample loss evaluation hooks, absorption of received coresets, and
per-command statistics (for the Eq. 6 entropy penalty).

Because every coreset is a subset of somebody's dataset and every chat
ends with ``D_i <- D_i U C_j``, a chatting fleet's datasets converge on
the same frames.  Over one pool that costs row numbers: :meth:`subset`,
:meth:`with_weights`, :meth:`copy` and :meth:`absorb_from` move no frame
bytes, :meth:`DrivingDataset.sample_batch` and :meth:`take` gather the
rows they need straight from the pool (which stores a rendered BEV as
``uint8`` occupancy and one speed per frame, and decodes on the way
out), and :meth:`arrays` is a read-only gather cached until the next
mutation — for the small datasets that are read whole (a coreset, the
validation set), never for a vehicle's growing local dataset.  In a run
a frame has one name, its pool row: a vehicle's loss cache and a
checkpoint's frame table key frames by it.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass

import numpy as np

from repro.nn.model import N_COMMANDS
from repro.sim.autopilot import WAYPOINT_INTERVAL
from repro.sim.bev import BevSpec, render_fleet_bev
from repro.sim.geometry import to_vehicle_frame_fleet
from repro.sim.world import SNAPSHOT_INTERVAL, World

__all__ = ["N_WAYPOINTS", "Frame", "FramePool", "DrivingDataset", "collect_fleet_datasets"]

#: Waypoints in a frame's label, ``WAYPOINT_INTERVAL`` apart: the
#: expert's next 2.5 s, what the driving model predicts (§IV-A).
N_WAYPOINTS = 5

_MIN_CAPACITY = 8

_ONE_BITS = np.float32(1.0).view(np.uint32)

_NO_ROWS = np.zeros(0, dtype=np.intp)
_NO_ROWS.flags.writeable = False


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class Frame:
    """One imitation-learning sample."""

    frame_id: str
    bev: np.ndarray  # (C, H, W) float32
    command: int
    waypoints: np.ndarray  # (2 * n_waypoints,) float32, vehicle frame
    weight: float = 1.0


class FramePool:
    """Append-only store of frames, one row each, keyed by frame id.

    Rows never move or change once written, so a row number stays a
    valid name for its frame for the life of the pool; datasets hold
    row numbers.  The columns live in preallocated buffers that double
    when full (``capacity`` sizes the first allocation for a caller that
    knows how many frames are coming).

    While every frame interned so far is a rendered BEV to the bit —
    each channel before the last 0/1 (the bits of ``+0.0`` or ``1.0``),
    the last (the speed) one bit pattern per frame — the BEV is stored
    as ``uint8`` occupancy plus one ``float32`` per frame: 1/5 of its
    float32 bytes for the 5-channel BEV.  The first frame that is not
    (a ``-0.0``, a NaN, a synthetic test frame) re-encodes the pool's
    rows to ``float32`` per pixel, once; the pool never narrows again.
    What a reader sees is the float32 frame: :meth:`take` decodes.
    """

    def __init__(self, capacity: int = 0):
        self.ids: list[str] = []
        self._index: dict[str, int] = {}
        self._capacity = capacity
        # Set by the first frame (it fixes the BEV shape and the
        # waypoint length).
        self._frame_shape: tuple[int, ...] | None = None  # (C, H, W)
        # The BEV: ``(occupancy, speeds)``, ``(cap, C-1, H, W)`` uint8 and
        # ``(cap, 1, 1)`` float32, while every frame is rendered;
        # ``(bev,)``, ``(cap, C, H, W)`` float32, once one is not.
        self._stores: tuple[np.ndarray, ...] = ()
        self._commands: np.ndarray | None = None  # (cap,) int64
        self._targets: np.ndarray | None = None  # (cap, 2n) float32

    def __len__(self) -> int:
        return len(self.ids)

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_index"]  # rebuilt from ids
        n = len(self)  # drop spare capacity
        state["_stores"] = tuple(store[:n] for store in self._stores)
        for name in ("_commands", "_targets"):
            if state[name] is not None:
                state[name] = state[name][:n]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._index = {frame_id: row for row, frame_id in enumerate(self.ids)}

    @property
    def frame_shape(self) -> tuple[int, ...] | None:
        """``(C, H, W)`` of every frame's BEV (``None`` before the first frame)."""
        return self._frame_shape

    @property
    def commands(self) -> np.ndarray:
        """``(len,)`` int64 high-level commands."""
        return self._commands[: len(self)]

    @property
    def targets(self) -> np.ndarray:
        """``(len, 2 * n_waypoints)`` float32 expert waypoints."""
        return self._targets[: len(self)]

    def row(self, frame_id: str) -> int | None:
        """The row holding ``frame_id``, or ``None``."""
        return self._index.get(frame_id)

    def _reserve(self, extra: int, target_len: int) -> None:
        needed = len(self) + extra
        if self._commands is None:
            cap = max(_MIN_CAPACITY, self._capacity, needed)
            self._commands = np.empty(cap, dtype=np.int64)
            self._targets = np.empty((cap, target_len), dtype=np.float32)
            return
        cap = self._commands.shape[0]
        if needed <= cap:
            return
        new_cap = max(2 * cap, needed)

        def grown(old):
            new = np.empty((new_cap, *old.shape[1:]), dtype=old.dtype)
            new[: len(self)] = old[: len(self)]
            return new

        self._commands, self._targets = grown(self._commands), grown(self._targets)
        self._stores = tuple(grown(store) for store in self._stores)

    def _write(self, start: int, bev: np.ndarray) -> None:
        """Store the float32 frames ``bev`` at rows ``start:``, first
        re-encoding the rows before ``start`` to float32 if ``bev`` is
        the first batch that is not rendered."""
        cap = self._commands.shape[0]
        if len(self._stores) != 1 and not _rendered(bev):
            dense = np.empty((cap, *bev.shape[1:]), dtype=np.float32)
            if self._stores:
                self._decoded(np.arange(start), out=dense[:start])
            self._stores = (dense,)
        elif not self._stores:
            channels, *pixels = bev.shape[1:]
            self._stores = (
                np.empty((cap, channels - 1, *pixels), dtype=np.uint8),
                np.empty((cap, 1, 1), dtype=np.float32),
            )
        stop = start + len(bev)
        if len(self._stores) == 1:
            self._stores[0][start:stop] = bev
        else:
            occupancy, speeds = self._stores
            occupancy[start:stop] = bev[:, :-1]
            speeds[start:stop] = bev[:, -1, :1, :1]

    def _decoded(self, rows, out=None, mode="raise") -> np.ndarray:
        """The float32 BEV of ``rows``, into ``out`` if given."""
        if len(self._stores) == 1:
            return self._stores[0].take(rows, axis=0, out=out, mode=mode)
        if out is None:
            out = np.empty((len(rows), *self._frame_shape), dtype=np.float32)
        occupancy, speeds = self._stores
        out[:, :-1] = occupancy.take(rows, axis=0, mode=mode)
        out[:, -1] = speeds.take(rows, axis=0, mode=mode)  # broadcast over the pixels
        return out

    def intern(self, ids, bev, commands, targets) -> np.ndarray:
        """The row of each id, appending the frames the pool lacks.

        ``bev`` / ``commands`` / ``targets`` are aligned with ``ids``; a
        frame whose id the pool already holds keeps the pool's copy (a
        frame id names its content).
        """
        index = self._index
        start = len(self)
        rows = np.empty(len(ids), dtype=np.intp)
        new_rows: dict[str, int] = {}  # id -> row, in row order
        picks: list[int] = []  # where in ``ids`` each new row's frame is
        for k, frame_id in enumerate(ids):
            row = index.get(frame_id, new_rows.get(frame_id))
            if row is None:
                row = new_rows[frame_id] = start + len(new_rows)
                picks.append(k)
            rows[k] = row
        if picks:
            bev = np.asarray(bev)[picks].astype(np.float32, copy=False)
            targets = np.asarray(targets)[picks]
            if bev.ndim != 4:
                raise ValueError(f"a frame's BEV is (C, H, W), not {bev.shape[1:]}")
            if self._frame_shape is not None and (
                bev.shape[1:] != self._frame_shape
                or targets.shape[1:] != self._targets.shape[1:]
            ):
                raise ValueError(
                    f"frames of shape {bev.shape[1:]} / {targets.shape[1:]} in a pool of "
                    f"{self._frame_shape} / {self._targets.shape[1:]}"
                )
            self._reserve(len(picks), targets.shape[1])
            self._write(start, bev)
            self._frame_shape = bev.shape[1:]
            stop = start + len(picks)
            self._commands[start:stop] = np.asarray(commands)[picks]
            self._targets[start:stop] = targets
            # Committed last: a frame of another shape raises above and
            # leaves the pool as it was.
            index.update(new_rows)
            self.ids.extend(new_rows)
        return rows

    def take(self, rows, out=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(bev, commands, targets)`` of ``rows``, gathered read-only.

        The BEV comes out float32, decoded from its stored form.
        Read-only because nobody else holds the gather: a
        forward-only evaluation can alias it without the defensive copy
        a layer takes of a buffer its caller might refill.  ``out``
        (three arrays of the gather's shapes and dtypes) receives the
        gather instead.
        """
        if out is not None:
            # Rows are this pool's by construction; "clip" gathers
            # straight into ``out`` where "raise" would buffer it (a
            # rendered BEV still goes through its uint8 gather).
            self._decoded(rows, out[0], mode="clip")
            self._commands.take(rows, axis=0, out=out[1], mode="clip")
            self._targets.take(rows, axis=0, out=out[2], mode="clip")
            return out
        return (
            _frozen(self._decoded(rows)),
            _frozen(self._commands[rows]),
            _frozen(self._targets[rows]),
        )

    def dataset(self, rows, weights=None) -> "DrivingDataset":
        """A dataset of ``rows`` (distinct) of this pool, unit weights by default."""
        rows = np.array(rows, dtype=np.intp)
        if weights is None:
            weights = np.ones(rows.size)
        out = DrivingDataset(pool=self)
        out._append(rows, np.array(weights, dtype=np.float64))
        absent = rows.size and not 0 <= rows.min() <= rows.max() < len(self)
        if absent or len(out._members) != rows.size:
            raise ValueError("a dataset holds rows of its pool, each at most once")
        return out


def _rendered(bev: np.ndarray) -> bool:
    """Whether every frame of float32 ``bev`` is a rendered BEV to the
    bit: each channel before the last 0/1, the last one value per frame.
    Bits, not values: ``-0.0 == 0.0`` but would decode as ``+0.0``."""
    bits = bev.view(np.uint32)
    occupancy, speeds = bits[:, :-1], bits[:, -1].reshape(len(bits), -1)
    return bool(
        ((occupancy == 0) | (occupancy == _ONE_BITS)).all()
        and (speeds == speeds[:, :1]).all()
    )


class DrivingDataset:
    """Weighted collection of frames: rows of a :class:`FramePool` and weights.

    Built on its own (``DrivingDataset()``, ``DrivingDataset(frames)``)
    a dataset gets a private pool; datasets derived
    from it share that pool, and absorbing from a dataset of another
    pool interns the frames it brings.
    """

    def __init__(self, frames: list[Frame] | None = None, *, pool: FramePool | None = None):
        self._pool = pool if pool is not None else FramePool()
        # Replaced, never written in place, so a view handed out by
        # :meth:`arrays` stays frozen at its snapshot and copies can
        # share them.
        self._rows = _NO_ROWS  # (n,) intp, pool row of each frame
        self._weights = _frozen(np.zeros(0))  # (n,) float64
        self._members: set[int] = set()
        self._generation = 0
        self._views: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None
        self._views_generation = -1
        self._strata: list[tuple[np.ndarray, np.ndarray]] = []
        self._strata_generation = -1
        for frame in frames or []:
            self.add(frame)

    def __len__(self) -> int:
        return self._rows.size

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_views"] = None  # a gather would pickle the frames a second time
        state["_views_generation"] = -1
        del state["_members"]  # rebuilt from the rows
        del state["_strata"], state["_strata_generation"]  # rebuilt by the next balanced draw
        return state

    def __setstate__(self, state):
        if "_pool" not in state:
            raise pickle.UnpicklingError(
                "a DrivingDataset pickled before frames moved into a FramePool"
            )
        self.__dict__.update(state)
        _frozen(self._rows), _frozen(self._weights)  # pickling drops the flag
        self._members = set(self._rows.tolist())
        self._strata, self._strata_generation = [], -1

    @property
    def pool(self) -> FramePool:
        """The pool this dataset's frames are rows of."""
        return self._pool

    @property
    def rows(self) -> np.ndarray:
        """Pool row of each frame, in insertion order (read-only)."""
        return self._rows

    # -- growth ---------------------------------------------------------------

    def _append(self, rows: np.ndarray, weights: np.ndarray) -> None:
        """Append pool rows known to be absent from this dataset."""
        if rows.size == 0:
            return
        self._rows = _frozen(np.concatenate([self._rows, rows]))
        self._weights = _frozen(np.concatenate([self._weights, weights]))
        self._members.update(rows.tolist())
        self._generation += 1

    def add(self, frame: Frame) -> None:
        """Append a frame; duplicate ids are silently skipped.

        Duplicate skipping makes coreset absorption idempotent — a
        vehicle may receive overlapping coresets from repeat encounters.
        """
        row = self._pool.intern(
            [frame.frame_id],
            np.asarray(frame.bev, dtype=np.float32)[None],
            [int(frame.command)],
            np.asarray(frame.waypoints, dtype=np.float32).reshape(1, -1),
        )
        if int(row[0]) not in self._members:
            self._append(row, np.array([float(frame.weight)]))

    def extend(self, frames: list[Frame]) -> None:
        """Append several frames (duplicates skipped by id)."""
        for frame in frames:
            self.add(frame)

    def absorb_from(self, other: "DrivingDataset", weight: float | None = None) -> int:
        """Append another dataset's frames, skipping duplicate ids.

        Between datasets of one pool this merges row numbers and moves
        no frame; from another pool the frames this pool lacks are
        interned first.  ``weight`` overrides every appended frame's
        weight (coreset absorption resets received samples to the local
        convention); ``None`` keeps the source weights.  Returns the
        number of frames actually added, preserving the source's
        insertion order.
        """
        if len(other) == 0:
            return 0
        rows = other._rows
        if other._pool is not self._pool:
            rows = self._pool.intern(other.ids, *other._pool.take(rows))
        members = self._members
        keep = [k for k, row in enumerate(rows.tolist()) if row not in members]
        if not keep:
            return 0
        if weight is not None:
            new_weights = np.full(len(keep), float(weight), dtype=np.float64)
        else:
            new_weights = other._weights[keep]
        self._append(rows[keep], new_weights)
        return len(keep)

    # -- reading ------------------------------------------------------------------

    @property
    def ids(self) -> list[str]:
        """Frame ids in insertion order (a copy)."""
        pool_ids = self._pool.ids
        return [pool_ids[row] for row in self._rows.tolist()]

    def take(self, indices) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(bev, commands, targets)`` of the frames at ``indices``.

        A read-only gather straight from the pool: how to read part of a
        dataset (a minibatch, the frames that miss a loss cache) without
        materialising all of it.
        """
        return self._pool.take(self._rows[indices])

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(bev, commands, targets, weights) of the whole dataset, read-only.

        A gather from the pool, cached until the next mutation and frozen
        at its snapshot if the dataset grows afterwards.  It costs the
        dataset's frames a second time in memory, so it is for datasets
        read whole and left alone (a coreset, a joint coreset, the
        validation set); nothing in a run calls it on a vehicle's local
        dataset (``tests/test_tooling.py::TestFramesAreStoredOnce``).
        """
        if len(self) == 0:
            raise ValueError("dataset is empty")
        if self._views is None or self._views_generation != self._generation:
            self._views = (*self._pool.take(self._rows), self._weights)
            self._views_generation = self._generation
        return self._views

    def frame(self, index: int) -> Frame:
        """Materialize the i-th frame as a Frame object (read-only arrays)."""
        row = int(self._rows[index])
        bev, commands, targets = self._pool.take([row])
        return Frame(
            frame_id=self._pool.ids[row],
            bev=bev[0],
            command=int(commands[0]),
            waypoints=targets[0],
            weight=float(self._weights[index]),
        )

    def frames(self) -> list[Frame]:
        """All frames as Frame objects."""
        return [self.frame(i) for i in range(len(self))]

    def copy(self) -> "DrivingDataset":
        """An independent dataset of the same frames (row numbers, no frame bytes)."""
        out = DrivingDataset(pool=self._pool)
        out.absorb_from(self)
        return out

    def subset(
        self, indices, weights: np.ndarray | None = None
    ) -> "DrivingDataset":
        """A new dataset, on the same pool, holding only the given indices.

        Duplicate indices are dropped (keeping the first occurrence),
        matching the id-dedup the frame-by-frame path applied.  The
        optional ``weights`` (aligned with ``indices``) replace the
        selected frames' weights — coreset construction selects rows and
        assigns their coreset weights in one pass this way.
        """
        picks = [int(i) for i in indices]
        if len(picks) != len(set(picks)):
            if weights is not None:
                first: dict[int, float] = {}
                for pick, w in zip(picks, weights):
                    first.setdefault(pick, float(w))
                picks = list(first)
                weights = np.asarray([first[pick] for pick in picks])
            else:
                picks = list(dict.fromkeys(picks))
        idx = np.asarray(picks, dtype=np.intp)
        return self._pool.dataset(
            self._rows[idx], self._weights[idx] if weights is None else weights
        )

    def with_weights(self, weights: np.ndarray) -> "DrivingDataset":
        """The same frames with replaced per-frame weights (a new dataset)."""
        if len(weights) != len(self):
            raise ValueError(f"{len(weights)} weights for {len(self)} frames")
        return self._pool.dataset(self._rows, weights)

    @property
    def weights(self) -> np.ndarray:
        """Per-frame weights as an array (a fresh, writable copy)."""
        return self._weights.copy()

    @property
    def commands(self) -> np.ndarray:
        """Per-frame high-level commands (a fresh gather)."""
        return self._pool.commands[self._rows] if len(self) else np.zeros(0, dtype=np.int64)

    def command_counts(self) -> np.ndarray:
        """Frame counts per high-level command, shape ``(N_COMMANDS,)``."""
        return np.bincount(self.commands, minlength=N_COMMANDS).astype(np.int64)

    # -- sampling --------------------------------------------------------------

    def _command_strata(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """``(members, cdf)`` per command present, in command order, for
        the current generation: the members' indices, and the cumulative
        sum of their weights over the stratum's total, scaled to end at 1."""
        if self._strata_generation != self._generation:
            commands = self.commands
            strata = []
            for cmd in np.unique(commands):
                members = np.where(commands == cmd)[0]
                weights = self._weights[members]
                total = weights.sum()
                if not (np.isfinite(total) and total > 0 and (weights >= 0).all()):
                    raise ValueError(f"command {cmd}: weights are not a distribution")
                cdf = (weights / total).cumsum()
                cdf /= cdf[-1]
                strata.append((members, cdf))
            self._strata = strata
            self._strata_generation = self._generation
        return self._strata

    def sample_indices(self, batch_size: int, rng: np.random.Generator) -> np.ndarray:
        """Indices of a command-balanced weighted minibatch.

        Always ``batch_size`` of them, drawn with replacement when the
        dataset holds fewer frames than that, so every node's batch
        stacks into the fleet's one dense step whatever it has collected.

        The batch is stratified uniformly over the commands present in
        the dataset (the standard trick for command-branched imitation
        models — rare branches like 'turn left' would otherwise starve),
        sampling by weight within each command.  The strata come from a
        table cached per dataset and rebuilt on the first draw after a
        mutation: per present command, its members' indices and the
        cumulative distribution of their normalised weights.  A stratum's draw is the statement
        ``Generator.choice(members, quota, replace=True, p=probs)`` runs
        — one uniform per pick, located in that distribution — so the
        picks and the generator's state are the same as ``choice``'s
        (``tests/test_dataset_balanced_traces_io.py`` holds it to that).
        """
        if len(self) == 0:
            raise ValueError("cannot sample from an empty dataset")
        strata = self._command_strata()
        share, extra = divmod(batch_size, len(strata))
        return np.concatenate(
            [
                members[cdf.searchsorted(rng.random(share + (k < extra)), side="right")]
                for k, (members, cdf) in enumerate(strata)
            ]
        )

    def sample_batch(
        self, batch_size: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Command-balanced weighted minibatch: (bev, commands, targets, indices).

        The frames at :meth:`sample_indices`' draw, gathered from the
        pool (read-only).  A fleet step draws the same indices per row
        and gathers a whole shard's rows at once
        (:meth:`~repro.core.fleet.FleetEngine.train_step_all`).
        """
        idx = self.sample_indices(batch_size, rng)
        return (*self._pool.take(self._rows[idx]), idx)


def collect_fleet_datasets(
    world: World,
    duration: float,
    bev_spec: BevSpec,
    n_waypoints: int = N_WAYPOINTS,
) -> dict[str, DrivingDataset]:
    """Run the world and build each vehicle's local dataset, on one pool.

    The world is stepped for ``duration`` plus the waypoint horizon (the
    last frames need future positions for their targets), then frames
    are assembled offline from the recorded snapshots, mirroring how a
    real vehicle would label frames once the future is known.  Every
    frame of the fleet is a row of one :class:`FramePool` (reachable as
    any returned dataset's ``pool``), which whatever is later derived
    from these datasets shares.
    """
    snap_dt = SNAPSHOT_INTERVAL
    stride = max(int(round(WAYPOINT_INTERVAL / snap_dt)), 1)
    horizon = n_waypoints * stride
    world.run(duration + horizon * snap_dt + snap_dt)
    snapshots = world.snapshots
    vehicle_ids = [v.vehicle_id for v in world.vehicles]
    n_usable = len(snapshots) - horizon
    if n_usable <= 0 or not vehicle_ids:
        return {vehicle_id: DrivingDataset() for vehicle_id in vehicle_ids}
    # Fleet positions across all snapshots, (n_snapshots, V, 2); slices
    # of this provide both BEV origins and future waypoint labels.
    ids = list(snapshots[0].vehicle_states)
    all_pos = np.array(
        [[snap.vehicle_states[vid].position for vid in ids] for snap in snapshots]
    )
    pool = FramePool(capacity=n_usable * len(ids))
    rows = np.empty((n_usable, len(ids)), dtype=np.intp)
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
        rows[k] = pool.intern(
            [f"{vehicle_id}:{k}" for vehicle_id in ids],
            bevs,
            [snap.vehicle_commands[vehicle_id] for vehicle_id in ids],
            waypoints.reshape(len(ids), -1),
        )
    column = {vehicle_id: v for v, vehicle_id in enumerate(ids)}
    return {vehicle_id: pool.dataset(rows[:, column[vehicle_id]]) for vehicle_id in vehicle_ids}
