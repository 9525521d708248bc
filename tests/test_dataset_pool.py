"""The pooled ``DrivingDataset`` against a list-of-frames reference.

A dataset is row numbers and weights over a ``FramePool``; what callers
see — ids in insertion order, the gathered arrays, minibatches drawn
from an RNG, the counts ``absorb_from`` returns — must be what a plain
list of ``Frame`` objects would give.  ``RefDataset`` is that list; the
model-based test drives both through seeded random operation sequences.
"""

import pickle

import numpy as np
import pytest

from repro.sim.dataset import DrivingDataset, Frame, FramePool

BEV_SHAPE, N_TARGETS = (2, 4, 4), 6


class RefDataset:
    """The semantics, with no storage tricks: a list of frames."""

    def __init__(self, frames=()):
        self.frames = []
        self.extend(frames)

    def add(self, frame):
        if all(frame.frame_id != held.frame_id for held in self.frames):
            self.frames.append(frame)

    def extend(self, frames):
        for frame in frames:
            self.add(frame)

    def absorb_from(self, other, weight=None):
        before = len(self.frames)
        for f in other.frames:
            w = f.weight if weight is None else float(weight)
            self.add(Frame(f.frame_id, f.bev, f.command, f.waypoints, w))
        return len(self.frames) - before

    def subset(self, indices, weights=None):
        out, seen = RefDataset(), set()
        for k, i in enumerate(int(i) for i in indices):
            if i not in seen:
                seen.add(i)
                f = self.frames[i]
                w = f.weight if weights is None else float(weights[k])
                out.add(Frame(f.frame_id, f.bev, f.command, f.waypoints, w))
        return out

    def with_weights(self, weights):
        return self.subset(range(len(self.frames)), weights)

    def arrays(self):
        return (
            np.stack([f.bev for f in self.frames]),
            np.array([f.command for f in self.frames], dtype=np.int64),
            np.stack([f.waypoints for f in self.frames]),
            np.array([f.weight for f in self.frames], dtype=np.float64),
        )

    def sample_batch(self, batch_size, rng):
        bev, commands, targets, weights = self.arrays()
        present, picks = np.unique(commands), []
        share, extra = divmod(batch_size, len(present))
        for k, cmd in enumerate(present):
            members = np.where(commands == cmd)[0]
            probs = weights[members] / weights[members].sum()
            quota = share + (1 if k < extra else 0)
            picks.extend(rng.choice(members, size=quota, replace=True, p=probs).tolist())
        idx = np.asarray(picks)
        return bev[idx], commands[idx], targets[idx], idx


def make_frame(rng, frame_id):
    return Frame(
        frame_id,
        rng.normal(size=BEV_SHAPE).astype(np.float32),
        int(rng.integers(0, 4)),
        rng.normal(size=N_TARGETS).astype(np.float32),
        float(rng.uniform(0.25, 4.0)),
    )


def make_rendered_frame(rng, frame_id):
    """A frame as ``sim.bev`` renders one: 0/1 occupancy channels, then a
    speed plane (0.0 for a car at rest)."""
    bev = (rng.random(BEV_SHAPE) < 0.2).astype(np.float32)
    bev[-1] = np.float32(rng.choice([0.0, rng.uniform(0.0, 1.5)]))
    return Frame(
        frame_id,
        bev,
        int(rng.integers(0, 4)),
        rng.normal(size=N_TARGETS).astype(np.float32),
        float(rng.uniform(0.25, 4.0)),
    )


def assert_same(pooled: DrivingDataset, ref: RefDataset):
    assert pooled.ids == [f.frame_id for f in ref.frames]
    assert len(pooled) == len(ref.frames)
    if not ref.frames:
        return
    for got, want in zip(pooled.arrays(), ref.arrays()):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert not got.flags.writeable
    assert np.array_equal(pooled.weights, ref.arrays()[3])
    assert np.array_equal(pooled.commands, ref.arrays()[1])
    assert [f.frame_id for f in pooled.frames()] == pooled.ids


@pytest.mark.parametrize("seed", range(8))
def test_random_operation_sequences_match_the_reference(seed):
    run_operation_sequence(seed, make_frame)


@pytest.mark.parametrize("seed", range(4))
def test_rendered_frames_match_the_reference(seed):
    """The same sequences over frames the pool stores narrow: absorbs
    across pools intern them, and pickling carries the narrow columns."""
    run_operation_sequence(seed, make_rendered_frame)


def run_operation_sequence(seed, make):
    rng = np.random.default_rng(seed)
    # The frames any dataset may ever see; an id always names the same content.
    universe = [make(rng, f"f{i}") for i in range(40)]
    first = universe[:6]
    pairs = [(DrivingDataset(first), RefDataset(first))]

    def pick():
        return pairs[int(rng.integers(len(pairs)))]

    def same_draws(pooled, ref):
        batch_size = int(rng.choice([1, 5, 16]))
        draw = int(rng.integers(1 << 30))
        rng_a, rng_b = np.random.default_rng(draw), np.random.default_rng(draw)
        got = pooled.sample_batch(batch_size, rng_a)
        want = ref.sample_batch(batch_size, rng_b)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        assert len(got[3]) == batch_size
        assert rng_a.random() == rng_b.random()  # and consumed the same draws

    for _ in range(120):
        op = rng.choice(
            ["add", "extend", "absorb", "absorb_w", "subset", "subset_w", "with_weights",
             "copy", "pickle", "sample"]
        )
        pooled, ref = pick()
        if op == "add":
            frame = universe[int(rng.integers(len(universe)))]
            pooled.add(frame), ref.add(frame)
        elif op == "extend":
            frames = [universe[i] for i in rng.integers(len(universe), size=4)]
            pooled.extend(frames), ref.extend(frames)
        elif op in ("absorb", "absorb_w"):
            other_pooled, other_ref = pick()  # same pool, another pool, or itself
            weight = None if op == "absorb" else float(rng.uniform(0.5, 2.0))
            if ref.frames:  # a stratum table of the generation before the absorb
                same_draws(pooled, ref)
            assert pooled.absorb_from(other_pooled, weight) == ref.absorb_from(other_ref, weight)
            if ref.frames:
                same_draws(pooled, ref)
        elif op in ("subset", "subset_w") and ref.frames:
            indices = rng.integers(len(ref.frames), size=int(rng.integers(0, 8)))
            weights = rng.uniform(0.5, 2.0, size=indices.size) if op == "subset_w" else None
            pairs.append((pooled.subset(indices, weights), ref.subset(indices, weights)))
            assert pairs[-1][0].pool is pooled.pool  # rows, not frames
        elif op == "with_weights":
            weights = rng.uniform(0.5, 2.0, size=len(ref.frames))
            pairs.append((pooled.with_weights(weights), ref.with_weights(weights)))
        elif op == "copy":
            pairs.append((pooled.copy(), RefDataset(ref.frames)))
            assert pairs[-1][0].pool is pooled.pool
        elif op == "pickle":
            if ref.frames:
                same_draws(pooled, ref)
            pairs.append((pickle.loads(pickle.dumps(pooled)), RefDataset(ref.frames)))
            assert pairs[-1][0]._strata == []  # the table does not travel
            if ref.frames:
                same_draws(*pairs[-1])
        elif op == "sample" and ref.frames:
            same_draws(pooled, ref)
        for pooled, ref in pairs:
            assert_same(pooled, ref)
        pairs = pairs[-6:]


def frames(prefix, n, seed=0):
    rng = np.random.default_rng(seed)
    return [make_frame(rng, f"{prefix}{i}") for i in range(n)]


class TestPools:
    def test_derived_datasets_add_no_frame_to_the_pool(self):
        data = DrivingDataset(frames("a", 10))
        pool = data.pool
        derived = [data.copy(), data.subset([1, 3, 3]), data.with_weights(np.arange(1.0, 11.0))]
        derived[0].absorb_from(derived[1])
        assert len(pool) == 10 and all(d.pool is pool for d in derived)

    def test_cross_pool_absorb_interns_only_what_is_missing(self):
        ours, theirs = DrivingDataset(frames("a", 5)), DrivingDataset(frames("b", 4))
        theirs.extend(ours.frames()[:2])  # two frames both pools hold
        assert ours.absorb_from(theirs, weight=1.0) == 4
        assert len(ours.pool) == 9 and len(theirs.pool) == 6  # theirs is untouched
        assert ours.ids == [f"a{i}" for i in range(5)] + [f"b{i}" for i in range(4)]
        assert np.array_equal(ours.arrays()[0][5:], theirs.arrays()[0][:4])
        assert ours.absorb_from(theirs) == 0  # idempotent

    def test_a_frame_of_another_shape_is_refused_and_leaves_the_pool_whole(self):
        data = DrivingDataset(frames("a", 3))
        odd = Frame("odd", np.zeros((1, 2, 2), np.float32), 0, np.zeros(N_TARGETS, np.float32))
        with pytest.raises(ValueError):
            data.add(odd)
        assert len(data.pool) == 3 and data.pool.row("odd") is None
        data.add(frames("b", 1)[0])
        assert data.ids == ["a0", "a1", "a2", "b0"]

    def test_pool_dataset_refuses_a_row_twice(self):
        pool = DrivingDataset(frames("a", 3)).pool
        with pytest.raises(ValueError, match="at most once"):
            pool.dataset([0, 1, 1])
        with pytest.raises(ValueError, match="rows of its pool"):
            pool.dataset([0, 3])

    def test_growth_keeps_earlier_rows(self):
        data = DrivingDataset(pool=FramePool())
        for frame in frames("g", 40):  # past several doublings of the buffers
            data.add(frame)
        assert np.array_equal(data.arrays()[0], np.stack([f.bev for f in frames("g", 40)]))


class TestArraysViews:
    def test_views_are_read_only_and_frozen_at_their_snapshot(self):
        data = DrivingDataset(frames("a", 4))
        before = data.arrays()
        assert data.arrays() is before  # cached per generation
        kept = [view.copy() for view in before]
        data.absorb_from(DrivingDataset(frames("b", 30)))  # the pool's buffers reallocate
        for view, copy in zip(before, kept):
            assert not view.flags.writeable and np.array_equal(view, copy)
        assert data.arrays() is not before and len(data.arrays()[0]) == 34

    def test_take_gathers_read_only_rows_without_materialising(self):
        data = DrivingDataset(frames("a", 6))
        bev, commands, targets = data.take(np.array([4, 1]))
        assert np.array_equal(bev, np.stack([data.frame(4).bev, data.frame(1).bev]))
        assert not (bev.flags.writeable or commands.flags.writeable or targets.flags.writeable)
        assert data._views is None


class TestPickling:
    def test_fresh_uid_and_frozen_arrays_after_unpickling(self):
        data = DrivingDataset(frames("a", 3))
        clone = pickle.loads(pickle.dumps(data))
        assert clone.ids == data.ids
        assert not clone.arrays()[3].flags.writeable
        assert clone.absorb_from(data) == 0  # membership survived the trip

    def test_datasets_of_one_pool_pickle_it_once(self):
        data = DrivingDataset(frames("a", 50))
        family = [data, data.copy(), data.subset(range(0, 50, 2)), data.with_weights(np.ones(50))]
        blob = pickle.dumps(family)
        frame_bytes = sum(store[: len(data.pool)].nbytes for store in stores(data.pool))
        assert len(blob) < 1.5 * frame_bytes + 4 * len(pickle.dumps(data.pool.ids)) + 8192
        clones = pickle.loads(blob)
        assert len({id(clone.pool) for clone in clones}) == 1
        assert [clone.ids for clone in clones] == [member.ids for member in family]

    def test_a_run_result_carries_its_pool_once(self):
        """What a ``jobs=N`` worker sends back: every node's dataset and
        coreset, over one copy of the frames."""
        from repro import selfcheck
        from repro.experiments.runner import RunSpec, run_method

        context = selfcheck._context("hotpath")
        result = run_method(context, RunSpec.for_context(context, "SCO", seed=selfcheck.SEED))
        pool = context.validation.pool
        gather = result.nodes[0].coreset.data.arrays()[0]  # cached on the coreset
        blob = pickle.dumps(result)
        assert is_rendered(pool)
        for column in columns(pool):
            assert blob.count(column.tobytes()) == 1
        assert blob.count(gather.tobytes()) == 0  # a cached gather does not travel
        received = pickle.loads(blob)
        held = [d for node in received.nodes for d in (node.dataset, node.coreset.data)]
        assert len({id(d.pool) for d in held}) == 1 and held[0].pool is not pool
        assert [n.dataset.ids for n in received.nodes] == [n.dataset.ids for n in result.nodes]


class TestGatherInPlace:
    def test_the_fleet_buffers_are_todays_batches_stacked(self):
        """A block's ``sample_indices`` draws, gathered with one
        ``FramePool.take(out=...)`` into its shard's stacked scratch,
        stack what per-node ``sample_batch`` calls return, from the same
        RNG draws."""
        from tests.test_nn_bank import build_fleet
        from tests.test_stepshard import record_draws

        engine = build_fleet(n_nodes=3)
        drawn = record_draws(engine)
        clones = [pickle.loads(pickle.dumps(node.rng)) for node in engine.nodes]
        batches = [
            node.dataset.sample_batch(node.config.batch_size, rng)
            for node, rng in zip(engine.nodes, clones)
        ]
        engine.train_step_all()
        for k in range(3):
            stacked = np.stack([drawn[row][k] for row in range(len(engine.nodes))])
            assert stacked.tobytes() == np.stack([batch[k] for batch in batches]).tobytes()
        for node, rng in zip(engine.nodes, clones):
            assert node.rng.bit_generator.state == rng.bit_generator.state

    def test_out_returns_the_buffers_and_the_indices(self):
        """What a shard's one gather is: the draw's pool rows taken into
        ``out``, the same frames ``sample_batch`` returns."""
        dataset = DrivingDataset(frames("o", 5))
        pool = dataset.pool
        out = (
            np.empty((4, *pool._frame_shape), dtype=np.float32),
            np.empty(4, dtype=pool.commands.dtype),
            np.empty((4, *pool._targets.shape[1:]), dtype=pool._targets.dtype),
        )
        idx = dataset.sample_indices(4, np.random.default_rng(1))
        got = pool.take(dataset.rows[idx], out=out)
        assert all(column is buf for column, buf in zip(got, out))
        want = dataset.sample_batch(4, np.random.default_rng(1))
        assert np.array_equal(idx, want[3])
        for column, ref in zip(out, want):
            assert np.array_equal(column, ref)


def stores(pool):
    """The pool's BEV stores, spare rows included: ``(occupancy, speeds)``
    while every frame is rendered, ``(bev,)`` once one is not."""
    return pool._stores


def is_rendered(pool):
    return [store.dtype for store in stores(pool)] == [np.uint8, np.float32]


def is_dense(pool):
    return [store.dtype for store in stores(pool)] == [np.float32]


def columns(pool):
    """Every column the pool stores, its rows only."""
    return [*(store[: len(pool)] for store in stores(pool)), pool.commands, pool._targets[: len(pool)]]


def pool_of(bevs, prefix="s"):
    """A pool of ``bevs`` (float32 ``(n, C, H, W)``), interned in one call."""
    pool = FramePool()
    n = len(bevs)
    pool.intern(
        [f"{prefix}{i}" for i in range(n)],
        bevs,
        np.arange(n) % 4,
        np.arange(n * N_TARGETS, dtype=np.float32).reshape(n, N_TARGETS),
    )
    return pool


def intern(pool, prefix, bevs):
    n = len(bevs)
    pool.intern([f"{prefix}{i}" for i in range(n)], bevs, np.zeros(n), np.zeros((n, N_TARGETS)))


def assert_bits(pool, bevs):
    """Every way out of the pool reads ``bevs`` to the bit."""
    rows = np.arange(len(bevs))
    assert pool.take(rows)[0].tobytes() == bevs.tobytes()
    out = (
        np.empty_like(bevs),
        np.empty(len(bevs), dtype=np.int64),
        np.empty((len(bevs), N_TARGETS), np.float32),
    )
    assert pool.take(rows[::-1], out=out)[0].tobytes() == bevs[::-1].tobytes()
    data = pool.dataset(rows)
    assert data.arrays()[0].tobytes() == bevs.tobytes()
    assert data.frame(-1).bev.tobytes() == bevs[-1].tobytes()


def rendered(n, seed=0, speed=None):
    """``(n,) + BEV_SHAPE`` frames as ``sim.bev`` renders them: channel 0
    occupancy, channel 1 the speed plane (``speed``, or a random value
    per frame)."""
    rng = np.random.default_rng(seed)
    bevs = (rng.random((n, *BEV_SHAPE)) < 0.3).astype(np.float32)
    values = rng.uniform(0.1, 1.5, n) if speed is None else np.full(n, speed)
    bevs[:, 1] = values.astype(np.float32)[:, None, None]
    return bevs


class TestStorageForms:
    """Rendered frames are stored as uint8 occupancy plus one speed per
    frame; the first frame that is not turns the pool float32, once."""

    def test_each_form_round_trips_to_the_bit(self):
        bevs = rendered(12)
        pool = pool_of(bevs)
        assert is_rendered(pool)
        assert_bits(pool, bevs)
        dense = np.random.default_rng(3).normal(size=(12, *BEV_SHAPE)).astype(np.float32)
        pool = pool_of(dense)
        assert is_dense(pool)
        assert_bits(pool, dense)

    def test_a_rendered_frame_takes_a_fifth_of_its_float32_bytes(self):
        bevs = (np.random.default_rng(0).random((30, 5, 20, 20)) < 0.1).astype(np.float32)
        bevs[:, 4] = np.linspace(0.0, 1.2, 30, dtype=np.float32)[:, None, None]
        pool = pool_of(bevs)
        assert is_rendered(pool)
        assert sum(store[: len(pool)].nbytes for store in stores(pool)) == 30 * (1600 + 4)
        assert_bits(pool, bevs)

    def test_an_all_dark_first_batch_stays_rendered(self):
        dark = np.zeros((3, *BEV_SHAPE), np.float32)
        pool = pool_of(dark)
        assert is_rendered(pool)
        before = stores(pool)
        lit = rendered(4, seed=1)
        intern(pool, "l", lit)
        assert all(now is then for now, then in zip(stores(pool), before))  # no re-encode
        assert_bits(pool, np.concatenate([dark, lit]))

    def test_a_speed_that_leaves_zero_needs_no_reencode(self):
        at_rest = rendered(5, seed=2, speed=0.0)
        pool = pool_of(at_rest, "r")
        before = stores(pool)
        moving = rendered(3, seed=3, speed=0.37)
        intern(pool, "m", moving)
        assert is_rendered(pool)  # not dense
        assert all(now is then for now, then in zip(stores(pool), before))
        assert_bits(pool, np.concatenate([at_rest, moving]))

    @pytest.mark.parametrize("channel", [0, 1], ids=["occupancy", "speed"])
    def test_a_frame_that_is_not_rendered_makes_the_pool_dense(self, channel):
        held = rendered(6, seed=4)
        pool = pool_of(held, "h")
        odd = rendered(1, seed=5)
        odd[0, channel, 1, 2] = 0.5  # neither 0/1 nor one value per frame
        intern(pool, "odd", odd)
        assert is_dense(pool)
        # The pool never narrows again: a later rendered frame is written
        # in place, with no re-encode of the rows before it.
        before = stores(pool)
        late = rendered(1, seed=6)
        intern(pool, "late", late)
        assert is_dense(pool) and stores(pool)[0] is before[0]
        assert_bits(pool, np.concatenate([held, odd, late]))

    @pytest.mark.parametrize("where", [(0, 0, 0), (1, 3, 3)], ids=["occupancy", "speed"])
    @pytest.mark.parametrize(
        "special", [np.float32(-0.0), np.float32(np.nan)], ids=["negative_zero", "nan"]
    )
    def test_negative_zero_and_nan_stay_dense(self, special, where):
        """The layout is chosen by bits, not values: ``-0.0 == 0.0`` would
        let occupancy or a ``+0.0`` speed decode it as ``+0.0``."""
        bevs = rendered(4, seed=8, speed=0.0)
        bevs[(2, *where)] = special
        pool = pool_of(bevs)
        assert is_dense(pool)
        assert_bits(pool, bevs)
        assert np.signbit(pool.take([2])[0][(0, *where)]) == np.signbit(special)

    def test_a_speed_of_one_bit_pattern_stays_rendered(self):
        """A whole plane of ``-0.0`` is one value per frame: its bits are kept."""
        bevs = rendered(3, seed=12, speed=-0.0)
        pool = pool_of(bevs)
        assert is_rendered(pool)
        assert_bits(pool, bevs)
        assert np.signbit(pool.take([1])[0][0, 1]).all()

    def test_frames_interned_one_by_one_read_as_one_batch(self):
        bevs = np.concatenate([rendered(3, speed=0.0), rendered(3, seed=9)])
        bevs[5, 0, 2, 2] = 0.75
        one_by_one = FramePool()
        for i, bev in enumerate(bevs):
            one_by_one.intern([f"s{i}"], bev[None], [0], np.zeros((1, N_TARGETS)))
        assert is_dense(one_by_one) and is_dense(pool_of(bevs))
        assert_bits(one_by_one, bevs)

    @pytest.mark.parametrize("odd", [None, 15], ids=["rendered", "dense"])
    def test_pickling_drops_spare_capacity_and_carries_each_column_once(self, odd):
        bevs = rendered(20, seed=10)
        if odd is not None:
            bevs[odd, 0, 0, 0] = 0.5  # the second intern re-encodes the first's rows
        pool = FramePool(capacity=64)
        data = pool.dataset([])
        for start in (0, 10):
            rows = pool.intern(
                [f"c{i}" for i in range(start, start + 10)],
                bevs[start : start + 10],
                np.zeros(10),
                np.ones((10, N_TARGETS)),
            )
            data._append(rows, np.ones(10))
        assert is_dense(pool) == (odd is not None)
        assert all(len(store) == 64 for store in stores(pool))
        blob = pickle.dumps([data, data.copy()])
        for column in columns(pool):
            assert blob.count(column.tobytes()) == 1
        clone, _ = pickle.loads(blob)
        assert all(len(store) == 20 for store in stores(clone.pool))  # no spare rows
        assert_bits(clone.pool, bevs)

    def test_a_checkpoints_carried_frames_reintern_to_equal_bits(self):
        from repro.checkpoint.state import FrameTable

        bevs = rendered(8, seed=11)
        data = pool_of(bevs).dataset(range(8))
        table = FrameTable()
        ref = table.ref(data.subset([6, 1, 3]))
        state = table.state()
        assert state["pools"][0]["bev"].tobytes() == bevs[[1, 3, 6]].tobytes()
        # A pool that holds none of them, and one that is dense.
        for pool in (FramePool(), pool_of(np.full((1, *BEV_SHAPE), 0.5, np.float32), "x")):
            restored = FrameTable(state).dataset(ref, pool)
            assert restored.ids == ["s6", "s1", "s3"]
            assert restored.arrays()[0].tobytes() == bevs[[6, 1, 3]].tobytes()
