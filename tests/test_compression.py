"""Unit tests for top-k sparsification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import (
    compress_topk,
    decompress,
    topk_for_psi,
    topk_plan,
)

NOMINAL = 52 * 1024 * 1024

#: Every psi Eq. 7 can decide on (``optimize_compression``'s lattice).
EQ7_LATTICE = np.linspace(0.0, 1.0, 21)


def brute_force_order(flat) -> list[int]:
    """Every index, largest magnitude first, equal magnitudes lowest index first.

    The stated rule, spelled as a sort: ``sorted(range(n), key=(-|x_i|, i))``
    with NaN above every finite magnitude and inf (as ``np.sort`` ranks it).
    The top k are its first k entries.
    """
    magnitude = [abs(float(x)) for x in flat]
    return sorted(
        range(len(magnitude)),
        key=lambda i: (not math.isnan(magnitude[i]), -magnitude[i], i),
    )


@st.composite
def vectors_built_to_tie(draw):
    """Draws from a set of at most three values: one value is an all-equal
    vector, and nearly every level's cut lands inside a run of equal
    magnitudes.  Long enough to leave numpy's small-array insertion sort."""
    value = st.sampled_from([0.0, -0.0, 1.5, -1.5, np.inf, -np.inf, np.nan]) | st.floats(
        width=32, allow_nan=False
    )
    pool = np.array(draw(st.lists(value, min_size=1, max_size=3)), dtype=np.float32)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    return rng.choice(pool, size=draw(st.integers(1, 400)))


def bits(values):
    return np.asarray(values, dtype=np.float32).view(np.uint32)


def assert_same_payload(got, want):
    """Two ``CompressedModel``s equal field for field, arrays to the bit."""
    assert vars(got).keys() == vars(want).keys()
    for name, value in vars(want).items():
        if isinstance(value, np.ndarray):
            assert getattr(got, name).dtype == value.dtype, name
            assert getattr(got, name).tobytes() == value.tobytes(), name
        else:
            assert getattr(got, name) == value, name


class TestTopkForPsi:
    def test_full_psi_keeps_everything(self):
        assert topk_for_psi(1000, 1.0) == 1000

    def test_zero_psi_keeps_nothing(self):
        assert topk_for_psi(1000, 0.0) == 0

    def test_index_value_overhead_halves_k(self):
        # At psi=0.5, pairs cost 8 bytes vs 4 -> k = 0.25 * n.
        assert topk_for_psi(1000, 0.5) == 250

    def test_invalid_psi_rejected(self):
        with pytest.raises(ValueError):
            topk_for_psi(10, 1.5)
        with pytest.raises(ValueError):
            topk_for_psi(10, -0.1)


class TestCompressTopk:
    def test_keeps_largest_magnitudes(self):
        flat = np.array([0.1, -5.0, 0.2, 3.0, -0.05], dtype=np.float32)
        compressed = compress_topk(flat, 0.8, NOMINAL)
        kept = set(compressed.indices.tolist())
        assert 1 in kept and 3 in kept  # the two largest magnitudes

    def test_dense_at_psi_one(self):
        flat = np.arange(10, dtype=np.float32)
        compressed = compress_topk(flat, 1.0, NOMINAL)
        assert compressed.is_dense
        assert compressed.nominal_bytes == NOMINAL
        assert np.array_equal(decompress(compressed), flat)

    def test_empty_at_psi_zero(self):
        compressed = compress_topk(np.ones(10, dtype=np.float32), 0.0, NOMINAL)
        assert compressed.is_empty
        assert compressed.nominal_bytes == 0

    def test_small_positive_psi_rounds_to_empty(self):
        # k = psi * n / 2 rounds to 0: a positive psi can still produce a
        # zero-byte model.  Senders must check nominal_bytes/is_empty, not
        # psi > 0 — see the guard in core.chat (and its regression test).
        compressed = compress_topk(np.ones(10, dtype=np.float32), 0.1, NOMINAL)
        assert compressed.is_empty
        assert compressed.psi == 0.0
        assert compressed.nominal_bytes == 0

    def test_achieved_psi_close_to_target(self):
        flat = np.random.default_rng(0).normal(size=10_000).astype(np.float32)
        compressed = compress_topk(flat, 0.4, NOMINAL)
        assert compressed.psi == pytest.approx(0.4, abs=0.01)
        assert compressed.nominal_bytes == pytest.approx(0.4 * NOMINAL, rel=0.02)

    def test_decompress_zero_fill(self):
        flat = np.array([1.0, -9.0, 2.0, 8.0], dtype=np.float32)
        compressed = compress_topk(flat, 0.9, NOMINAL)
        dense = decompress(compressed)
        for idx in range(4):
            if idx in compressed.indices:
                assert dense[idx] == flat[idx]
            else:
                assert dense[idx] == 0.0

    def test_decompress_overlay_fill(self):
        flat = np.array([1.0, -9.0, 2.0, 8.0], dtype=np.float32)
        fill = np.full(4, 7.0, dtype=np.float32)
        compressed = compress_topk(flat, 0.9, NOMINAL)
        dense = decompress(compressed, fill=fill)
        for idx in range(4):
            expected = flat[idx] if idx in compressed.indices else 7.0
            assert dense[idx] == expected

    def test_decompress_wrong_fill_size_rejected(self):
        compressed = compress_topk(np.ones(4, dtype=np.float32), 0.5, NOMINAL)
        with pytest.raises(ValueError):
            decompress(compressed, fill=np.ones(5, dtype=np.float32))

    def test_indices_sorted(self):
        flat = np.random.default_rng(1).normal(size=100).astype(np.float32)
        compressed = compress_topk(flat, 0.5, NOMINAL)
        assert np.all(np.diff(compressed.indices) > 0)


class TestTopkAgainstBruteForce:
    """Which k, as a rule and not as whatever a sort did with equal keys."""

    @settings(max_examples=200, deadline=None)
    @given(vectors_built_to_tie())
    def test_every_entry_point_selects_the_brute_force_top_k(self, flat):
        order = brute_force_order(flat)
        plan = topk_plan(flat, NOMINAL)
        for psi in EQ7_LATTICE:
            k = topk_for_psi(flat.size, psi)
            want = sorted(order[:k])
            for got in (compress_topk(flat, psi, NOMINAL), plan.compress(psi)):
                assert got.indices.tolist() == want  # exactly k, NaN and ties included
                assert np.array_equal(bits(got.values), bits(flat[want]))

    def test_a_cut_inside_a_run_of_equal_magnitudes(self):
        flat = np.array([2.0, -1.0, 1.0, 0.0, 1.0, -1.0, -0.0, 3.0, 0.5, 0.25], np.float32)
        # k = 4: both clear winners, then the two lowest-indexed of four 1.0s.
        assert compress_topk(flat, 0.8, NOMINAL).indices.tolist() == [0, 1, 2, 7]
        # k = 2: NaN outranks inf, whatever its sign, and inf the finite 3.0.
        flat[3], flat[0] = -np.nan, np.inf
        assert compress_topk(flat, 0.4, NOMINAL).indices.tolist() == [0, 3]

    # -- the perf gate, with no stopwatch ---------------------------------------

    def test_a_plan_keeps_values_and_no_index_order(self):
        """An ``argsort`` of the model (int64, 8 bytes a parameter, and ~5x
        the time of sorting the values) cannot come back unnoticed."""
        flat = np.random.default_rng(2).normal(size=10_000).astype(np.float32)
        plan = topk_plan(flat, NOMINAL)
        arrays = [value for value in vars(plan).values() if isinstance(value, np.ndarray)]
        assert all(array.dtype == np.float32 for array in arrays)
        own = [array for array in arrays if not np.shares_memory(array, flat)]
        assert sum(array.nbytes for array in own) <= 2 * flat.nbytes

    @settings(max_examples=50, deadline=None)
    @given(vectors_built_to_tie() | st.integers(0, 2**16).map(
        lambda seed: np.random.default_rng(seed).normal(size=300).astype(np.float32)
    ))
    def test_one_shot_and_planned_payloads_are_one_selection(self, flat):
        """Field for field on every psi Eq. 7 can pick, so a second
        statement of the set cannot grow back beside the first."""
        plan = topk_plan(flat, NOMINAL)
        for psi in EQ7_LATTICE:
            assert_same_payload(compress_topk(flat, psi, NOMINAL), plan.compress(psi))
