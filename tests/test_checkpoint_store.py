"""The checkpoint store's ``.npz`` member writer.

``RunStore.save_checkpoint`` writes a plain ``.npz`` of stored members,
from arrays that are not copied first: an array whose nonzero mask and
nonzero values are smaller than it is written as those two members, any
other whole.  These tests pin that rule, the bit-exact round trip over
dtypes, special values and memory layouts, compatibility with
checkpoints written by ``np.savez_compressed``, and that a damaged file
— a flipped bit in a member's data, its npy header or the central
directory, a truncated member, another barrier's npz, a mask that
disagrees with its values — falls back to the previous barrier, while a
read the disk fails does not.  The npz's member table (names,
sizes, CRC-32s) is its fingerprint: a save never reads back what it
wrote, and a load reads the npz once.
"""

from __future__ import annotations

import builtins
import errno
import io
import json
import os
import zipfile
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import RunStore, flatten_state, spec_fingerprint
from repro.checkpoint.format import FORMAT_VERSION, CheckpointCorruptError
from repro.checkpoint.store import _member_digest
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


def _sidecar(store: RunStore, barrier: int = 1) -> dict:
    return json.loads((store.run_dir(SPEC) / f"ckpt-{barrier:06d}.json").read_text())


def _digest(npz) -> str:
    """The member-table digest a sidecar records for the npz at ``npz``."""
    with zipfile.ZipFile(npz) as archive:
        return _member_digest(archive.infolist())


class TestMemberCodec:
    def test_noise_is_stored_and_zero_heavy_is_split(self, tmp_path):
        store = RunStore(tmp_path)
        frames = np.zeros((64, 20, 20), dtype=np.float32)
        frames[:, 3, 4] = 1.0
        store.save_checkpoint(SPEC, _state(params=_noise(), frames=frames))
        members = _members(store)
        assert sorted(members) == ["/frames/mask.npy", "/frames/values.npy", "/params.npy"]
        assert {info.compress_type for info in members.values()} == {zipfile.ZIP_STORED}
        assert members["/params.npy"].file_size > _noise().nbytes
        split = members["/frames/mask.npy"].file_size + members["/frames/values.npy"].file_size
        assert split < frames.nbytes // 20
        assert _sidecar(store)["split"] == {"/frames": [64, 20, 20]}
        loaded = store.load_checkpoint(SPEC, 1)
        assert np.array_equal(loaded["params"], _noise())
        assert loaded["frames"].tobytes() == frames.tobytes()

    def test_compressible_tail_of_a_large_member_is_seen(self, tmp_path):
        # The rule counts the whole array's zeros, not a sample's.
        array = np.concatenate([_noise(4096), np.zeros(200_000, dtype=np.float32)])
        store = RunStore(tmp_path)
        store.save_checkpoint(SPEC, _state(array=array))
        assert "/array/values.npy" in _members(store)
        assert np.array_equal(store.load_checkpoint(SPEC, 1)["array"], array)

    def test_an_array_is_split_exactly_when_that_is_smaller(self, tmp_path):
        # 64 float32 are 256 bytes; the mask is 8.  With z zeros the split
        # is 8 + 4 (64 - z) bytes: not smaller at z = 2, smaller at z = 3.
        store = RunStore(tmp_path)
        arrays = {}
        for zeros in (2, 3):
            array = np.arange(1, 65, dtype=np.float32)
            array[:zeros] = 0.0
            arrays[f"zeros{zeros}"] = array
        store.save_checkpoint(SPEC, _state(**arrays))
        assert sorted(_members(store)) == [
            "/zeros2.npy", "/zeros3/mask.npy", "/zeros3/values.npy",
        ]

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
            "split": 1,
        }


DTYPES = (np.bool_, np.int64, np.float32, np.float64)

#: Element bit patterns that a value-level copy could change: -0.0, +-inf,
#: quiet and signalling NaNs with and without payloads (of either sign),
#: the smallest and the largest subnormal, and +0.0.
SPECIAL_BITS = {
    np.float32: [
        0x80000000, 0x7F800000, 0xFF800000, 0x7FC00000, 0x7FC00123, 0xFFC00007,
        0x7F800001, 0xFFA00005, 0x00000001, 0x807FFFFF, 0x00000000,
    ],
    np.float64: [
        0x8000000000000000, 0x7FF0000000000000, 0xFFF0000000000000,
        0x7FF8000000000000, 0x7FF8000000000123, 0xFFF8000000000007,
        0x7FF0000000000001, 0xFFF4000000000005, 0x0000000000000001,
        0x800FFFFFFFFFFFFF, 0x0000000000000000,
    ],
    np.int64: [np.iinfo(np.int64).min, np.iinfo(np.int64).max, -1, 0],
    np.bool_: [0, 1],
}
#: The dtype each ``SPECIAL_BITS`` list is written in.
PATTERN_DTYPE = {np.float32: np.uint32, np.float64: np.uint64, np.int64: np.int64, np.bool_: np.uint8}


def _content(rng, dtype, shape, kind: str) -> np.ndarray:
    """A C-ordered array of ``shape`` whose elements ``kind`` describes."""
    if kind == "specials":
        bits = np.array(SPECIAL_BITS[dtype], dtype=PATTERN_DTYPE[dtype])
        return rng.choice(bits, size=shape).view(dtype)
    if kind == "zeros":
        return np.zeros(shape, dtype=dtype)
    if kind == "no_zero":
        return (np.abs(rng.standard_normal(shape)) + 1).astype(dtype)
    if kind == "zero_heavy":
        keep = rng.random(shape) < 0.1
        return np.where(keep, rng.standard_normal(shape) + 2, 0).astype(dtype)
    return np.asarray(rng.integers(0, 2, size=shape) * 3).astype(dtype)


@st.composite
def _layouts(draw) -> np.ndarray:
    """An array of a drawn dtype, shape and content in a drawn memory layout."""
    dtype = draw(st.sampled_from(DTYPES))
    shape = tuple(draw(st.lists(st.integers(0, 6), min_size=0, max_size=3)))
    seed = draw(st.integers(0, 2**16))
    layout = draw(st.sampled_from(["c", "fortran", "strided", "transposed", "readonly"]))
    kind = draw(st.sampled_from(["half_zero", "zero_heavy", "specials", "zeros", "no_zero"]))
    # Oversize every axis so a strided view can be cut out of it.
    base_shape = tuple(2 * n + 1 for n in shape)
    base = _content(np.random.default_rng(seed), dtype, base_shape, kind)
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
    @settings(max_examples=100, deadline=None)
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
        specials = np.zeros(30_000, dtype=np.float32)
        specials[::3] = np.array(SPECIAL_BITS[np.float32], dtype=np.uint32).view(np.float32)[
            np.arange(10_000) % 11
        ]
        arrays = {
            "noise": _noise(400_000).reshape(400, 1000),
            "noise_t": _noise(400_000).reshape(400, 1000).T,
            "zero_heavy": zero_heavy,
            "zero_heavy_strided": zero_heavy[::2, ::3],
            "specials": specials,
        }
        store = RunStore(tmp_path)
        store.save_checkpoint(SPEC, _state(**arrays))
        assert _sidecar(store)["split"] == {
            "/zero_heavy": [300, 1000],
            "/zero_heavy_strided": [150, 334],
            "/specials": [30_000],
        }
        assert "/noise_t.npy" in _members(store)
        loaded = store.load_checkpoint(SPEC, 1)
        for name, array in arrays.items():
            assert loaded[name].tobytes() == array.tobytes()

    def test_plain_np_load_opens_it(self, tmp_path):
        """A split array is two members, ``<path>/mask`` (its nonzero
        elements' positions, ``np.packbits``-ed in C order) and
        ``<path>/values``."""
        store = RunStore(tmp_path)
        sparse = np.zeros((90, 100))
        sparse[::10, ::25] = 2.5
        store.save_checkpoint(SPEC, _state(params=_noise(), sparse=sparse))
        with np.load(store.run_dir(SPEC) / "ckpt-000001.npz") as data:
            assert sorted(data.files) == ["/params", "/sparse/mask", "/sparse/values"]
            assert np.array_equal(data["/params"], _noise())
            rebuilt = np.zeros(sparse.size)
            rebuilt[np.unpackbits(data["/sparse/mask"], count=sparse.size).view(bool)] = data[
                "/sparse/values"
            ]
            assert np.array_equal(rebuilt.reshape(sparse.shape), sparse)


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
            "npz_members": _digest(npz),
            "state": meta,
        }
        (run_dir / "ckpt-000002.json").write_text(json.dumps(sidecar))
        loaded = store.latest_checkpoint(SPEC)
        assert loaded["barrier"] == 2
        assert np.array_equal(loaded["params"], _noise())
        assert loaded["nested"][0]["m"].shape == (3, 4)


class TestIntegrity:
    def test_flipped_byte_in_a_stored_member_falls_back(self, tmp_path):
        """No deflate stream to trip over: only the member's CRC-32 can
        notice, checked as the load reads the member to its end."""
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
        assert "Bad CRC-32" in corrupt["error"]

    def test_an_npz_truncated_mid_member_falls_back(self, tmp_path):
        """A torn write under a committed sidecar: the member table at
        the end of the file is gone with it."""
        store = RunStore(tmp_path)
        for barrier in (1, 2):
            store.save_checkpoint(SPEC, _state(barrier, params=_noise(), zeros=np.zeros(9000)))
        info = _members(store, 2)["/params.npy"]
        npz = store.run_dir(SPEC) / "ckpt-000002.npz"
        npz.write_bytes(npz.read_bytes()[: info.header_offset + info.file_size // 2])
        assert store.latest_checkpoint(SPEC)["barrier"] == 1
        (corrupt,) = [e for e in store.events(SPEC) if e["event"] == "corrupt"]
        assert corrupt["barrier"] == 2 and "fingerprint mismatch" in corrupt["error"]

    def test_a_flipped_shape_digit_in_a_members_npy_header_falls_back(self, tmp_path):
        """A shorter shape stops the read more than a read-ahead short of
        the member's end, where its CRC-32 is checked: the bytes left over
        are what notice."""
        store = RunStore(tmp_path)
        for barrier in (1, 2):
            store.save_checkpoint(SPEC, _state(barrier, params=_noise()))
        info = _members(store, 2)["/params.npy"]
        npz = store.run_dir(SPEC) / "ckpt-000002.npz"
        blob = bytearray(npz.read_bytes())
        at = blob.index(b"(50000,)", info.header_offset)
        blob[at + 1] ^= 0x01  # '5' -> '4': 40 000 floats, 40 000 bytes unread
        npz.write_bytes(bytes(blob))
        with pytest.raises(CheckpointCorruptError, match="more bytes than its npy header"):
            store.load_checkpoint(SPEC, 2)
        assert store.latest_checkpoint(SPEC)["barrier"] == 1

    def test_no_flipped_byte_before_a_members_data_loads_other_arrays(self, tmp_path):
        """Every single-bit flip in a member's local header and npy header
        is refused as corrupt or reads the arrays as saved; the member is
        large enough that a shorter shape leaves over more than a read-ahead."""
        store = RunStore(tmp_path)
        store.save_checkpoint(SPEC, _state(1, params=_noise(5000)))
        npz = store.run_dir(SPEC) / "ckpt-000001.npz"
        written = npz.read_bytes()
        info = _members(store, 1)["/params.npy"]
        data_start = written.index(b"\n", written.index(b"{'descr'", info.header_offset)) + 1
        refused = 0
        for at in range(info.header_offset, data_start):
            for bit in range(8):
                blob = bytearray(written)
                blob[at] ^= 1 << bit
                npz.write_bytes(bytes(blob))
                try:
                    loaded = store.load_checkpoint(SPEC, 1)
                except CheckpointCorruptError:
                    refused += 1
                    continue
                assert np.array_equal(loaded["params"], _noise(5000)), (at, bit)
        assert refused > 8 * (data_start - info.header_offset) // 2

    def test_an_io_error_reading_the_npz_is_not_damage(self, tmp_path, monkeypatch):
        """Only the file's own bytes are evidence against it: a read the
        disk fails propagates instead of falling back to an older barrier."""
        store = RunStore(tmp_path)
        for barrier in (1, 2):
            store.save_checkpoint(SPEC, _state(barrier, params=_noise()))

        def failing_open(self, *args, **kwargs):
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(zipfile.ZipFile, "open", failing_open)
        with pytest.raises(OSError, match="Input/output error") as raised:
            store.latest_checkpoint(SPEC)
        assert not isinstance(raised.value, CheckpointCorruptError)
        assert not [e for e in store.events(SPEC) if e["event"] == "corrupt"]

    def test_a_split_member_that_disagrees_with_its_mask_falls_back(self, tmp_path):
        """The member digest matches (re-taken after the damage), so only
        joining the mask and the values can notice."""
        store = RunStore(tmp_path)
        sparse = np.zeros(9000)
        sparse[::100] = 1.5
        for barrier in (1, 2):
            store.save_checkpoint(SPEC, _state(barrier, sparse=sparse))
        npz = store.run_dir(SPEC) / "ckpt-000002.npz"
        with np.load(npz) as data:
            members = {name: data[name] for name in data.files}
        members["/sparse/values"] = members["/sparse/values"][:-1]
        np.savez(npz, **members)
        sidecar = _sidecar(store, 2)
        sidecar["npz_members"] = _digest(npz)
        (store.run_dir(SPEC) / "ckpt-000002.json").write_text(json.dumps(sidecar))
        with pytest.raises(CheckpointCorruptError, match="mask names 90 values, 89 written"):
            store.load_checkpoint(SPEC, 2)
        assert store.latest_checkpoint(SPEC)["barrier"] == 1
        (corrupt,) = [e for e in store.events(SPEC) if e["event"] == "corrupt"]
        assert corrupt["barrier"] == 2 and "/sparse" in corrupt["error"]


    def test_another_barriers_npz_under_this_sidecar_falls_back(self, tmp_path):
        """A well-formed npz whose every CRC-32 checks out, but whose
        contents are not the ones this sidecar committed."""
        store = RunStore(tmp_path)
        for barrier in (1, 2, 3):
            store.save_checkpoint(SPEC, _state(barrier, params=_noise() + barrier))
        run_dir = store.run_dir(SPEC)
        (run_dir / "ckpt-000003.npz").write_bytes((run_dir / "ckpt-000002.npz").read_bytes())
        with pytest.raises(CheckpointCorruptError, match="member table"):
            store.load_checkpoint(SPEC, 3)
        latest = store.latest_checkpoint(SPEC)
        assert latest["barrier"] == 2
        assert np.array_equal(latest["params"], _noise() + 2)
        (corrupt,) = [e for e in store.events(SPEC) if e["event"] == "corrupt"]
        assert corrupt["barrier"] == 3 and "fingerprint mismatch" in corrupt["error"]

    #: Offsets, in a central directory entry, of the fields that say where
    #: a member is and what it holds.
    DIRECTORY_FIELDS = {
        "compression": 10, "crc32": 16, "compressed_size": 20, "size": 24,
        "header_offset": 42, "name": 47,
    }

    @pytest.mark.parametrize("field", DIRECTORY_FIELDS)
    def test_a_flipped_byte_in_the_central_directory_falls_back(self, tmp_path, field):
        store = RunStore(tmp_path)
        for barrier in (1, 2):
            store.save_checkpoint(SPEC, _state(barrier, params=_noise(), zeros=np.zeros(9000)))
        npz = store.run_dir(SPEC) / "ckpt-000002.npz"
        with zipfile.ZipFile(npz) as archive:
            entry = archive.start_dir  # the first member's directory entry
        blob = bytearray(npz.read_bytes())
        assert blob[entry : entry + 4] == b"PK\x01\x02"
        blob[entry + self.DIRECTORY_FIELDS[field]] ^= 0x01
        npz.write_bytes(bytes(blob))
        with pytest.raises(CheckpointCorruptError, match="fingerprint mismatch"):
            store.load_checkpoint(SPEC, 2)
        assert store.latest_checkpoint(SPEC)["barrier"] == 1

    def test_no_flipped_byte_after_the_members_loads_other_arrays(self, tmp_path):
        """Every single-bit flip in the central directory and the end
        record is refused as corrupt or reads the arrays as saved."""
        store = RunStore(tmp_path)
        sparse = np.zeros(900)
        sparse[::7] = 2.5
        store.save_checkpoint(SPEC, _state(1, params=_noise(300), sparse=sparse))
        npz = store.run_dir(SPEC) / "ckpt-000001.npz"
        written = npz.read_bytes()
        with zipfile.ZipFile(npz) as archive:
            start = archive.start_dir
        refused = 0
        for at in range(start, len(written)):
            for bit in range(8):
                blob = bytearray(written)
                blob[at] ^= 1 << bit
                npz.write_bytes(bytes(blob))
                try:
                    loaded = store.load_checkpoint(SPEC, 1)
                except CheckpointCorruptError:
                    refused += 1
                    continue
                assert np.array_equal(loaded["params"], _noise(300)), (at, bit)
                assert loaded["sparse"].tobytes() == sparse.tobytes(), (at, bit)
        assert refused > 8 * (len(written) - start) // 3


class _NpzIO:
    """Every open of an ``.npz`` path while active: its mode, and the
    bytes read through it."""

    def __init__(self, monkeypatch):
        self.opens: list[tuple[str, str]] = []
        self.read: dict[str, int] = defaultdict(int)
        real = io.open

        def watched(file, mode="r", *args, **kwargs):
            handle = real(file, mode, *args, **kwargs)
            name = os.fspath(file) if isinstance(file, (str, os.PathLike)) else ""
            if ".npz" not in name:
                return handle
            self.opens.append((Path(name).name, mode))
            return _Counted(handle, name, self.read)

        monkeypatch.setattr(builtins, "open", watched)
        monkeypatch.setattr(io, "open", watched)


class _Counted:
    """A file object that adds what is read through it to ``read[name]``."""

    def __init__(self, handle, name: str, read: dict[str, int]):
        self._handle, self._name, self._read = handle, name, read

    def read(self, *args):
        data = self._handle.read(*args)
        self._read[self._name] += len(data)
        return data

    def readinto(self, buffer):
        size = self._handle.readinto(buffer)
        self._read[self._name] += size or 0
        return size

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._handle.close()

    def __getattr__(self, name):
        return getattr(self._handle, name)


class TestOnePass:
    def test_save_never_reopens_what_it_wrote(self, tmp_path, monkeypatch):
        store = RunStore(tmp_path)
        npz_io = _NpzIO(monkeypatch)
        store.save_checkpoint(SPEC, _state(1, params=_noise(), zeros=np.zeros(9000)))
        assert npz_io.opens == [("ckpt-000001.npz.tmp", "wb")]
        assert not npz_io.read

    def test_load_reads_the_npz_once(self, tmp_path, monkeypatch):
        store = RunStore(tmp_path)
        store.save_checkpoint(SPEC, _state(1, params=_noise(), zeros=np.zeros(9000)))
        npz = store.run_dir(SPEC) / "ckpt-000001.npz"
        npz_io = _NpzIO(monkeypatch)
        loaded = store.load_checkpoint(SPEC, 1)
        assert np.array_equal(loaded["params"], _noise())
        assert npz_io.opens == [("ckpt-000001.npz", "rb")]
        assert npz_io.read[str(npz)] < 1.5 * npz.stat().st_size


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
