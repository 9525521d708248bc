"""The checkpoint store's ``.npz`` member writer.

``RunStore.save_checkpoint`` writes a plain ``.npz`` whose members are
each stored or deflated depending on a sample of their own bytes, from
arrays that are not copied first.  These tests pin the codec choice, the
bit-exact round trip over dtypes and memory layouts, compatibility with
checkpoints written by ``np.savez_compressed``, and that the SHA-256 —
not a deflate stream's checksum — is what catches a flipped byte.
"""

from __future__ import annotations

import json
import zipfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import RunStore, flatten_state, spec_fingerprint
from repro.checkpoint.format import FORMAT_VERSION, file_sha256
from repro.experiments.configs import CI
from repro.experiments.runner import RunSpec

SPEC = RunSpec(method="LbChat", scale=CI, seed=3, checkpoint_every=10.0)


def _state(barrier: int = 1, **arrays) -> dict:
    return {"barrier": barrier, "time": 10.0 * barrier, **arrays}


def _noise(n: int = 50_000) -> np.ndarray:
    return np.random.default_rng(0).standard_normal(n).astype(np.float32)


def _members(store: RunStore, barrier: int = 1) -> dict[str, zipfile.ZipInfo]:
    npz = store.run_dir(SPEC) / f"ckpt-{barrier:06d}.npz"
    with zipfile.ZipFile(npz) as archive:
        return {info.filename: info for info in archive.infolist()}


class TestMemberCodec:
    def test_noise_is_stored_and_zero_heavy_is_deflated(self, tmp_path):
        store = RunStore(tmp_path)
        frames = np.zeros((64, 20, 20), dtype=np.float32)
        frames[:, 3, 4] = 1.0
        store.save_checkpoint(SPEC, _state(params=_noise(), frames=frames))
        members = _members(store)
        assert members["/params.npy"].compress_type == zipfile.ZIP_STORED
        assert members["/params.npy"].compress_size == members["/params.npy"].file_size
        assert members["/frames.npy"].compress_type == zipfile.ZIP_DEFLATED
        assert members["/frames.npy"].compress_size < members["/frames.npy"].file_size // 20
        loaded = store.load_checkpoint(SPEC, 1)
        assert np.array_equal(loaded["params"], _noise())
        assert np.array_equal(loaded["frames"], frames)

    def test_compressible_tail_of_a_large_member_is_seen(self, tmp_path):
        # The probe samples the start, middle and end, not only the head.
        array = np.concatenate([_noise(4096), np.zeros(200_000, dtype=np.float32)])
        store = RunStore(tmp_path)
        store.save_checkpoint(SPEC, _state(array=array))
        assert _members(store)["/array.npy"].compress_type == zipfile.ZIP_DEFLATED

    def test_saved_event_explains_the_barrier(self, tmp_path):
        store = RunStore(tmp_path)
        state = _state(params=_noise(), zeros=np.zeros(50_000), step=np.int64(4))
        store.save_checkpoint(SPEC, state)
        (saved,) = [e for e in store.events(SPEC) if e["event"] == "saved"]
        npz = store.run_dir(SPEC) / "ckpt-000001.npz"
        assert saved == {
            "event": "saved",
            "barrier": 1,
            "time": 10.0,
            "npz_bytes": npz.stat().st_size,
            "raw_bytes": 50_000 * 4 + 50_000 * 8,
            "stored": 1,
            "deflated": 1,
        }


DTYPES = (np.bool_, np.int64, np.float32, np.float64)


@st.composite
def _layouts(draw) -> np.ndarray:
    """An array of a drawn dtype and shape in a drawn memory layout."""
    dtype = draw(st.sampled_from(DTYPES))
    shape = tuple(draw(st.lists(st.integers(0, 6), min_size=0, max_size=3)))
    seed = draw(st.integers(0, 2**16))
    layout = draw(st.sampled_from(["c", "fortran", "strided", "transposed", "readonly"]))
    # Oversize every axis so a strided view can be cut out of it.
    base_shape = tuple(2 * n + 1 for n in shape)
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        base = np.asarray(rng.integers(0, 2, size=base_shape) * 3).astype(dtype)
    else:
        base = np.asarray(rng.standard_normal(base_shape)).astype(dtype)
    if layout == "strided":
        return base[tuple(slice(1, 1 + 2 * n, 2) for n in shape) or ...]
    array = base[tuple(slice(0, n) for n in shape) or ...]
    if layout == "c":
        return np.ascontiguousarray(array)
    if layout == "fortran":
        return np.asfortranarray(array)
    if layout == "transposed":
        return array.T
    array = array.view()
    array.flags.writeable = False
    return array


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(arrays=st.lists(_layouts(), min_size=1, max_size=4))
    def test_bits_dtype_and_shape_survive(self, tmp_path_factory, arrays):
        store = RunStore(tmp_path_factory.mktemp("store"))
        store.save_checkpoint(SPEC, _state(arrays=arrays))
        loaded = store.load_checkpoint(SPEC, 1)["arrays"]
        assert len(loaded) == len(arrays)
        for before, after in zip(arrays, loaded):
            assert after.dtype == before.dtype
            assert after.shape == before.shape
            assert after.tobytes() == before.tobytes()  # C-order bytes

    def test_large_members_round_trip_under_both_codecs(self, tmp_path):
        zero_heavy = np.zeros((300, 1000))
        zero_heavy[::7, ::11] = np.pi
        arrays = {
            "noise": _noise(400_000).reshape(400, 1000),
            "noise_t": _noise(400_000).reshape(400, 1000).T,
            "zero_heavy": zero_heavy,
            "zero_heavy_strided": zero_heavy[::2, ::3],
        }
        store = RunStore(tmp_path)
        store.save_checkpoint(SPEC, _state(**arrays))
        members = _members(store)
        assert members["/noise_t.npy"].compress_type == zipfile.ZIP_STORED
        assert members["/zero_heavy_strided.npy"].compress_type == zipfile.ZIP_DEFLATED
        loaded = store.load_checkpoint(SPEC, 1)
        for name, array in arrays.items():
            assert np.array_equal(loaded[name], array)

    def test_plain_np_load_opens_it(self, tmp_path):
        store = RunStore(tmp_path)
        store.save_checkpoint(SPEC, _state(params=_noise(), zeros=np.zeros(9000)))
        with np.load(store.run_dir(SPEC) / "ckpt-000001.npz") as data:
            assert sorted(data.files) == ["/params", "/zeros"]
            assert np.array_equal(data["/params"], _noise())


class TestCompatibility:
    def test_savez_compressed_checkpoint_loads_under_unchanged_format(self, tmp_path):
        """A barrier written the way the store wrote it before this writer:
        the format version covers the state tree's shape, not how the
        zip members are encoded."""
        store = RunStore(tmp_path)
        run_dir = store.ensure_run(SPEC)
        state = _state(2, params=_noise(), nested=[{"m": np.zeros((3, 4))}])
        meta, arrays = flatten_state(state)
        npz = run_dir / "ckpt-000002.npz"
        np.savez_compressed(npz, **arrays)
        sidecar = {
            "format": FORMAT_VERSION,
            "barrier": 2,
            "time": 20.0,
            "fingerprint": spec_fingerprint(SPEC),
            "npz_sha256": file_sha256(npz),
            "state": meta,
        }
        (run_dir / "ckpt-000002.json").write_text(json.dumps(sidecar))
        loaded = store.latest_checkpoint(SPEC)
        assert loaded["barrier"] == 2
        assert np.array_equal(loaded["params"], _noise())
        assert loaded["nested"][0]["m"].shape == (3, 4)


class TestIntegrity:
    def test_flipped_byte_in_a_stored_member_falls_back(self, tmp_path):
        """No deflate stream to trip over: only the SHA-256 can notice."""
        store = RunStore(tmp_path)
        store.save_checkpoint(SPEC, _state(1, params=_noise()))
        store.save_checkpoint(SPEC, _state(2, params=_noise()))
        info = _members(store, 2)["/params.npy"]
        assert info.compress_type == zipfile.ZIP_STORED
        npz = store.run_dir(SPEC) / "ckpt-000002.npz"
        blob = bytearray(npz.read_bytes())
        # Well inside the member's data (past local header and npy header);
        # one mantissa bit of one float — the zip stays structurally valid.
        blob[info.header_offset + 4096] ^= 0x01
        npz.write_bytes(bytes(blob))
        assert store.latest_checkpoint(SPEC)["barrier"] == 1
        (corrupt,) = [e for e in store.events(SPEC) if e["event"] == "corrupt"]
        assert corrupt["barrier"] == 2 and "fingerprint mismatch" in corrupt["error"]


class TestZeroCopyFlatten:
    def test_flattened_arrays_share_memory_with_their_sources(self):
        bank = np.arange(12, dtype=np.float32).reshape(3, 4)
        owned = np.ones(5)
        _, arrays = flatten_state({"rows": [bank[0], bank[2]], "column": bank[:, 1], "own": owned})
        assert np.shares_memory(arrays["/rows/0"], bank)
        assert np.shares_memory(arrays["/rows/1"], bank)
        assert np.shares_memory(arrays["/column"], bank)
        assert arrays["/own"] is owned

    def test_mutating_a_source_after_save_does_not_change_the_checkpoint(self, tmp_path):
        bank = _noise(60_000).reshape(3, 20_000)
        expected = bank.copy()
        store = RunStore(tmp_path)
        store.save_checkpoint(SPEC, _state(rows=[bank[0], bank[1], bank[2]], column=bank[:, 7]))
        bank += 1.0  # the simulator resumes training the live bank
        loaded = store.load_checkpoint(SPEC, 1)
        for row, want in zip(loaded["rows"], expected):
            assert np.array_equal(row, want)
        assert np.array_equal(loaded["column"], expected[:, 7])
