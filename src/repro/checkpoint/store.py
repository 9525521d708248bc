"""On-disk run store: atomic, versioned, content-fingerprinted.

Layout, one directory per run under the store root::

    <root>/<method-slug>-seed<seed>-<spec_fingerprint>/
        run.json          # the spec payload (enables `repro resume`)
        ckpt-000003.npz   # array table: one member per state array, or
                          # two for an array written as its nonzero
                          # mask and values; the frames the run's pool
                          # lacks once, under /frame_table
        ckpt-000003.json  # meta tree + format version + the npz's
                          # member digest + the split arrays' shapes
        events.jsonl      # advisory log: saved / resumed / corrupt
        done.json         # present once the run finished

Every write lands in a temp file first and is moved into place with
``os.replace``, so a crash mid-write never leaves a half-written file
under a checkpoint's name.  The ``.json`` sidecar is written after its
``.npz`` and is the commit point.

The npz's own member table is its content fingerprint.  ``zipfile``
keeps each member's CRC-32 as it writes it, so the sidecar records a
SHA-256 of the member table — every member's name, sizes and CRC-32, in
order — computed from what is already in memory: nothing written is
read back.  Loading opens the npz once, compares that digest against its
central directory before reading any member, and reads every member to
its end, where ``zipfile`` checks the member's CRC-32; a member with
bytes left over once its npy header's shape is read is refused, since a
damaged header would stop the read before that check.  A mismatch, a
torn or truncated file, a damaged directory or a member that is not an
array raise :class:`CheckpointCorruptError`, which
:meth:`RunStore.latest_checkpoint` treats as "fall back to the next
older checkpoint".  An I/O error other than a seek no offset reaches is
the disk's, not the file's, and propagates.

No member is deflated.  A barrier is written while the simulator waits,
and deflate spends the same seconds per byte whether or not the bytes
shrink: on the fleet's parameters (float noise) they do not, on Adam's
moments (mostly exact zeros early on) the zeros are the whole gain.  So
an array is written as a packed mask of its nonzero elements plus those
elements when that is smaller than the array, and stored as it is
otherwise — one rule, decided on the whole array.  "Nonzero" is nonzero
*bits*: ``-0.0`` and every NaN payload are values and round-trip.
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import json
import math
import os
import tokenize
import zipfile
import zlib
from pathlib import Path

import numpy as np

from repro.blas import blas_threads
from repro.checkpoint.format import (
    FORMAT_VERSION,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointVersionError,
    spec_fingerprint,
    spec_payload,
)
from repro.checkpoint.state import flatten_state, unflatten_state
from repro.nn._fused import kernel_status

__all__ = ["DEFAULT_CHECKPOINT_ROOT", "RunStore"]

DEFAULT_CHECKPOINT_ROOT = Path(".repro_cache") / "checkpoints"

#: Unsigned integer of each itemsize: an element's bits, compared with zero.
_BITS = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}

#: What reading a damaged npz raises: ``zipfile`` on a bad CRC-32, a torn
#: file or a damaged directory (``RuntimeError`` for a flag or compression
#: method flipped in it, ``zlib`` for garbage it then inflates),
#: ``read_array`` on a malformed or short member (its npy header parser
#: lets ``SyntaxError`` and ``tokenize.TokenError`` out on some).  An
#: ``OSError`` is damage only as ``EINVAL``, an offset no seek reaches; any
#: other is the disk's, not the file's, and propagates.
_DAMAGE = (
    zipfile.BadZipFile, zlib.error, RuntimeError, EOFError, ValueError,
    SyntaxError, tokenize.TokenError,
)


def _slug(text: str) -> str:
    return "".join(c if c.isalnum() else "-" for c in text.lower()).strip("-")


@contextlib.contextmanager
def _atomic_open(path: Path):
    """Write ``path`` through a temp file that never outlives the block."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    with _atomic_open(path) as fh:
        fh.write(data)


def _split(array: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """``array`` as (packed nonzero mask, nonzero values), when that is smaller.

    ``None`` when the two would not be smaller than the array, or its
    dtype has no bits to compare (the array is then stored whole).
    """
    if array.dtype.kind not in "biuf" or array.itemsize not in _BITS:
        return None
    nonzero = array.view(_BITS[array.itemsize]) != 0
    kept = np.count_nonzero(nonzero)
    if (array.size + 7) // 8 + kept * array.itemsize >= array.nbytes:
        return None
    return np.packbits(nonzero, axis=None), array[nonzero]


def _join(path: str, mask: np.ndarray, values: np.ndarray, shape) -> np.ndarray:
    """Inverse of :func:`_split`; halves that disagree are corrupt."""
    if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
        raise CheckpointCorruptError(f"split array {path}: bad shape {shape!r}")
    size = math.prod(shape)
    if mask.dtype != np.uint8 or mask.shape != ((size + 7) // 8,) or values.ndim != 1:
        raise CheckpointCorruptError(f"split array {path}: malformed mask or values")
    nonzero = np.unpackbits(mask, count=size).view(bool)
    named = np.count_nonzero(nonzero)
    if named != values.size:
        raise CheckpointCorruptError(
            f"split array {path}: the mask names {named} values, {values.size} written"
        )
    out = np.zeros(size, dtype=values.dtype)
    out[nonzero] = values
    return out.reshape(shape)


def _member_digest(members: list[zipfile.ZipInfo]) -> str:
    """SHA-256 of an npz's member table: each member's name, sizes and CRC-32."""
    digest = hashlib.sha256()
    for info in members:
        fields = (info.filename, info.file_size, info.compress_size, info.CRC)
        digest.update("\0".join(map(str, fields)).encode() + b"\n")
    return digest.hexdigest()


def _write_npz(fh, arrays: dict[str, np.ndarray]) -> tuple[dict[str, list[int]], dict, str]:
    """Stream ``arrays`` into ``fh`` as a plain ``.npz`` of stored members.

    An array :func:`_split` shrinks becomes two members, ``<path>/mask``
    and ``<path>/values`` (no state path extends an array's: it is a
    leaf).  Returns the split arrays' shapes by path, the ``saved``
    event's facts and the member digest.
    """
    split: dict[str, list[int]] = {}
    facts = {"raw_bytes": 0, "stored": 0, "split": 0}
    with zipfile.ZipFile(fh, "w", zipfile.ZIP_STORED) as archive:

        def member(name: str, array: np.ndarray) -> None:
            with archive.open(name + ".npy", "w", force_zip64=True) as out:
                if array.flags.c_contiguous and array.dtype.kind in "biuf":
                    # write_array's own header, then the array's buffer as
                    # it lies: write_array copies it a chunk at a time.
                    data = np.lib.format.header_data_from_array_1_0(array)
                    np.lib.format.write_array_header_1_0(out, data)
                    out.write(array.reshape(-1).view(np.uint8))
                else:
                    np.lib.format.write_array(out, array, allow_pickle=False)

        for name, array in arrays.items():
            halves = _split(array)
            if halves is None:
                member(name, array)
            else:
                member(name + "/mask", halves[0])
                member(name + "/values", halves[1])
                split[name] = list(array.shape)
            facts["raw_bytes"] += array.nbytes
            facts["stored" if halves is None else "split"] += 1
        digest = _member_digest(archive.infolist())
    return split, {"npz_bytes": fh.tell(), **facts}, digest


def _read_npz(path: Path, digest: str) -> dict[str, np.ndarray]:
    """The arrays of the npz at ``path``, read once, if its member table
    has ``digest``; every member is read to its end, where ``zipfile``
    checks its CRC-32.  A member with bytes left over once its npy header's
    shape is read is refused: a damaged header would otherwise stop the
    read short of the end, and of the CRC-32 check there."""
    try:
        with zipfile.ZipFile(path) as archive:
            members = archive.infolist()
            if _member_digest(members) != digest:
                raise CheckpointCorruptError(
                    f"content fingerprint mismatch for {path}: its member table "
                    "is not the one the sidecar records"
                )
            arrays = {}
            for info in members:
                with archive.open(info) as member:
                    array = np.lib.format.read_array(member, allow_pickle=False)
                    if member.read(1):
                        raise CheckpointCorruptError(
                            f"content fingerprint mismatch for {path}: {info.filename} "
                            "holds more bytes than its npy header's shape"
                        )
                arrays[info.filename.removesuffix(".npy")] = array
    except CheckpointCorruptError:  # a RuntimeError, as _DAMAGE's flag errors are
        raise
    except OSError as exc:
        if exc.errno != errno.EINVAL:
            raise
        raise CheckpointCorruptError(f"content fingerprint mismatch for {path}: {exc}") from exc
    except _DAMAGE as exc:
        raise CheckpointCorruptError(f"content fingerprint mismatch for {path}: {exc}") from exc
    return arrays


class RunStore:
    """Checkpoint persistence for runs, keyed by spec fingerprint."""

    def __init__(self, root: str | Path = DEFAULT_CHECKPOINT_ROOT):
        self.root = Path(root)

    # -- paths ---------------------------------------------------------------

    def run_dir(self, spec) -> Path:
        """The directory holding one spec's checkpoints."""
        return self.root / f"{_slug(spec.method)}-seed{spec.seed}-{spec_fingerprint(spec)}"

    def _ckpt_json(self, spec, barrier: int) -> Path:
        return self.run_dir(spec) / f"ckpt-{barrier:06d}.json"

    # -- run lifecycle -------------------------------------------------------

    def ensure_run(self, spec, step_shards: int | None = None) -> Path:
        """Create the run directory and its ``run.json`` (idempotent).

        ``step_shards`` is the row-shard count the run's fleet steps in.
        """
        run_dir = self.run_dir(spec)
        run_dir.mkdir(parents=True, exist_ok=True)
        run_json = run_dir / "run.json"
        if not run_json.exists():
            payload = {
                "format": FORMAT_VERSION,
                "fingerprint": spec_fingerprint(spec),
                "spec": spec_payload(spec),
                "blas_threads": blas_threads(),  # not identity; see log_resumed
                "step_shards": step_shards,  # not identity: bits are equal for any count
                "adam_kernel": kernel_status(),  # not identity: both paths agree to the bit
            }
            _atomic_write_bytes(run_json, json.dumps(payload, indent=2).encode())
        return run_dir

    def mark_done(self, spec, virtual_time: float) -> None:
        """Record that the run completed (resume becomes a no-op rerun)."""
        payload = {"completed": True, "virtual_time": float(virtual_time)}
        _atomic_write_bytes(
            self.run_dir(spec) / "done.json", json.dumps(payload).encode()
        )

    def log_event(self, spec, event: str, **fields) -> None:
        """Append one advisory line to the run's events log.

        The log records store-side history (checkpoints saved, resumes,
        corrupt files skipped) *outside* the run's measurable state, so
        resumed and uninterrupted runs stay bit-identical while tests
        and operators can still see that a resume happened.
        """
        line = json.dumps({"event": event, **fields}, sort_keys=True)
        with open(self.run_dir(spec) / "events.jsonl", "a") as fh:
            fh.write(line + "\n")

    def log_resumed(self, spec, barrier: int, time: float) -> None:
        """Log a resume, and a BLAS thread count other than ``run.json``'s.

        GEMM results move by an ulp with the thread count, so under
        another count the continuation is not bit-identical.
        """
        self.log_event(spec, "resumed", barrier=barrier, time=time)
        run_json = json.loads((self.run_dir(spec) / "run.json").read_text())
        recorded, now = run_json.get("blas_threads"), blas_threads()
        if recorded is not None and recorded != now:
            self.log_event(spec, "blas_threads_changed", recorded=recorded, now=now)

    def events(self, spec) -> list[dict]:
        """All logged events for a spec (empty when none)."""
        path = self.run_dir(spec) / "events.jsonl"
        if not path.exists():
            return []
        return [json.loads(line) for line in path.read_text().splitlines() if line]

    # -- checkpoints ---------------------------------------------------------

    def save_checkpoint(self, spec, state: dict, keep: int | None = None) -> Path:
        """Persist one barrier snapshot atomically; returns the sidecar path.

        ``state`` must carry ``barrier`` and ``time`` entries (see
        ``TrainerBase.checkpoint_barrier``); its arrays are read here and
        not after, so they may be views of live banks.  With ``keep``,
        older checkpoints beyond the ``keep`` most recent are pruned.
        The ``saved`` event says what was written: the npz's size, the
        raw bytes of its arrays and how many were ``stored`` whole or
        ``split``, and — for a state with a ``frame_table`` entry, a
        :class:`~repro.checkpoint.state.FrameTable`'s — ``frames`` /
        ``frames_named`` / ``frame_refs``: the frames written with their
        columns, those written by id alone, and how many times the
        state's datasets name them.
        """
        barrier = int(state["barrier"])
        run_dir = self.ensure_run(spec)
        meta, arrays = flatten_state(state)
        npz_path = run_dir / f"ckpt-{barrier:06d}.npz"
        with _atomic_open(npz_path) as fh:
            split, facts, digest = _write_npz(fh, arrays)
        table = state.get("frame_table")
        if table is not None:
            facts["frames"] = sum(len(pool["bev"]) for pool in table["pools"])
            facts["frames_named"] = sum(
                len(pool["ids"]) - len(pool["bev"]) for pool in table["pools"]
            )
            facts["frame_refs"] = table["frame_refs"]
        payload = {
            "format": FORMAT_VERSION,
            "barrier": barrier,
            "time": float(state["time"]),
            "fingerprint": spec_fingerprint(spec),
            "npz_members": digest,
            "split": split,
            "state": meta,
        }
        json_path = self._ckpt_json(spec, barrier)
        _atomic_write_bytes(json_path, json.dumps(payload).encode())
        self.log_event(spec, "saved", barrier=barrier, time=float(state["time"]), **facts)
        if keep is not None:
            self.prune(spec, keep)
        return json_path

    def load_checkpoint(self, spec, barrier: int) -> dict:
        """Load and verify one barrier's snapshot; returns the state tree."""
        json_path = self._ckpt_json(spec, barrier)
        if not json_path.exists():
            raise CheckpointError(f"no checkpoint at barrier {barrier}: {json_path}")
        try:
            payload = json.loads(json_path.read_text())
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CheckpointCorruptError(f"unreadable sidecar {json_path}") from exc
        if not isinstance(payload, dict):
            raise CheckpointCorruptError(f"malformed sidecar {json_path}")
        version = payload.get("format")
        if version != FORMAT_VERSION:
            raise CheckpointVersionError(
                f"checkpoint format {version} (supported: {FORMAT_VERSION})"
            )
        split = payload.get("split", {})
        if not ({"npz_members", "state", "barrier"} <= payload.keys() and isinstance(split, dict)):
            raise CheckpointCorruptError(f"malformed sidecar {json_path}")
        npz_path = json_path.with_suffix(".npz")
        if not npz_path.exists():
            raise CheckpointCorruptError(f"missing array table {npz_path}")
        arrays = _read_npz(npz_path, payload["npz_members"])
        for path, shape in split.items():
            try:
                halves = arrays.pop(path + "/mask"), arrays.pop(path + "/values")
            except KeyError:
                raise CheckpointCorruptError(f"split array {path}: a member is missing") from None
            arrays[path] = _join(path, *halves, shape)
        state = unflatten_state(payload["state"], arrays)
        state["barrier"] = payload["barrier"]
        return state

    def barriers(self, spec) -> list[int]:
        """Barrier indices with a committed sidecar, ascending."""
        run_dir = self.run_dir(spec)
        if not run_dir.is_dir():
            return []
        out = []
        for path in run_dir.glob("ckpt-*.json"):
            try:
                out.append(int(path.stem.split("-")[1]))
            except (IndexError, ValueError):
                continue
        return sorted(out)

    def latest_checkpoint(self, spec) -> dict | None:
        """The newest checkpoint that verifies, or ``None``.

        Corrupt or version-incompatible checkpoints are skipped (and
        logged), falling back to the next older one — a torn write of
        the newest checkpoint costs one barrier of progress, never the
        whole run.
        """
        for barrier in reversed(self.barriers(spec)):
            try:
                return self.load_checkpoint(spec, barrier)
            except CheckpointError as exc:
                self.log_event(spec, "corrupt", barrier=barrier, error=str(exc))
        return None

    def prune(self, spec, keep: int) -> None:
        """Delete all but the ``keep`` newest checkpoints."""
        if keep < 1:
            raise ValueError(f"keep must be >= 1: {keep}")
        for barrier in self.barriers(spec)[:-keep]:
            self._ckpt_json(spec, barrier).unlink(missing_ok=True)
            self._ckpt_json(spec, barrier).with_suffix(".npz").unlink(missing_ok=True)

    def drop_after(self, spec, barrier: int) -> None:
        """Delete checkpoints newer than ``barrier`` plus the done marker.

        Rewinds a run directory to how it would look had the process
        died right after saving ``barrier`` — the store-side face of a
        crash, used by tests.
        """
        for existing in self.barriers(spec):
            if existing > barrier:
                self._ckpt_json(spec, existing).unlink(missing_ok=True)
                self._ckpt_json(spec, existing).with_suffix(".npz").unlink(missing_ok=True)
        (self.run_dir(spec) / "done.json").unlink(missing_ok=True)
