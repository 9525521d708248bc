"""Checkpoint format versioning, integrity errors, and spec payloads.

A checkpoint on disk is two files — ``ckpt-NNNNNN.npz`` (the array
table) plus ``ckpt-NNNNNN.json`` (the meta tree, format version, and
the npz's content fingerprint: a digest of its member table, every
member's name, sizes and CRC-32).  The JSON sidecar is written last and
is the commit point: a checkpoint without a readable sidecar, or whose
npz does not match that fingerprint, does not exist as far as
:meth:`~repro.checkpoint.store.RunStore.latest_checkpoint` is concerned.

Run directories are keyed by a fingerprint of the :class:`RunSpec`:
everything that influences the run's results, plus
``checkpoint_every`` (it does not change the results, but a run
directory numbers its barriers by it), excluding
``checkpoint_dir``/``use_cache`` (where state lives and how contexts are
resolved cannot change results).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from typing import Any, Mapping

__all__ = [
    "FORMAT_VERSION",
    "CheckpointError",
    "CheckpointCorruptError",
    "CheckpointVersionError",
    "spec_payload",
    "spec_fingerprint",
    "spec_from_payload",
]

#: Bump when the on-disk checkpoint representation changes shape
#: (2: a transfer in flight is a ``repro.core.chat.Chat`` tree; 3: its
#: ``ChatOutcome`` tallies psi-map fits in one counter, and
#: ``Chat.from_snapshot`` would refuse format 2's second one as an
#: unknown field; 4: a dataset is rows and weights, and the frames of
#: every dataset and in-flight coreset are written once, under
#: ``frame_table`` — see :class:`repro.checkpoint.state.FrameTable`; 5: a
#: frame table names the frames the run's pool holds by id alone, and an
#: array may be two members, its nonzero mask and values, joined by the
#: sidecar's ``split`` shapes — see :mod:`repro.checkpoint.store`; 6: a
#: node's loss cache is frame-table rows and their values, current model
#: version only; 7: ``next_train`` is one time, the fleet's — one process
#: trains every vehicle — not one per vehicle; 8: every generator's
#: ``bit_generator.state`` is saved — a node's under ``rng``, ProxSkip's
#: and RSU-L's in their ``extra`` — where 7 re-derived the streams at
#: each barrier; 9: the spec's scale has no ``model_seed``,
#: ``n_waypoints``, ``learning_rate`` or ``penalty``, and its world no
#: ``dt``, ``snapshot_interval`` or ``out_of_district_prob`` — §IV-A
#: constants now; 10: the sidecar's content fingerprint is ``npz_members``,
#: a digest of the npz's member table — each member's name, sizes and
#: CRC-32 — where 9 held ``npz_sha256``, a SHA-256 of the file's bytes).
#: An older format is refused, not loaded.
FORMAT_VERSION = 10


class CheckpointError(RuntimeError):
    """Base error for checkpoint store and restore failures."""


class CheckpointCorruptError(CheckpointError):
    """A checkpoint's content fingerprint does not match its data."""


class CheckpointVersionError(CheckpointError):
    """A checkpoint was written by an incompatible format version."""


def spec_payload(spec) -> dict:
    """A RunSpec as a JSON round-trippable dict.

    Raises :class:`CheckpointError` when the spec carries overrides that
    cannot be JSON-serialized — checkpointed runs must be rebuildable
    from the stored payload alone (``repro resume <run-dir>``).
    """
    payload = {
        "method": spec.method,
        "scale": asdict(spec.scale),
        "wireless": bool(spec.wireless),
        "seed": int(spec.seed),
        "coreset_size": spec.coreset_size,
        "coreset_strategy": spec.coreset_strategy,
        "overrides": dict(spec.overrides),
        "use_cache": bool(spec.use_cache),
        "checkpoint_every": spec.checkpoint_every,
    }
    try:
        return json.loads(json.dumps(payload))
    except (TypeError, ValueError) as exc:
        raise CheckpointError(
            "checkpointed runs need JSON-serializable spec overrides: "
            f"{exc}"
        ) from exc


def spec_fingerprint(spec) -> str:
    """Deterministic hash of everything that influences the run's results."""
    payload = spec_payload(spec)
    del payload["use_cache"]  # context resolution strategy, not identity
    # step_workers is an execution strategy too (results are bit-identical
    # for every worker count), so a checkpoint written at one worker count
    # must resume under any other — it cannot enter the fingerprint.
    overrides = dict(payload.get("overrides") or {})
    overrides.pop("step_workers", None)
    payload["overrides"] = overrides
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def spec_from_payload(payload: Mapping[str, Any], checkpoint_dir: str | None = None):
    """Rebuild a RunSpec from :func:`spec_payload` output."""
    from repro.experiments.configs import ExperimentScale
    from repro.experiments.runner import RunSpec
    from repro.sim.bev import BevSpec
    from repro.sim.world import WorldConfig

    scale_kwargs = dict(payload["scale"])
    scale_kwargs["world"] = WorldConfig(**scale_kwargs["world"])
    scale_kwargs["bev"] = BevSpec(**scale_kwargs["bev"])
    return RunSpec(
        method=payload["method"],
        scale=ExperimentScale(**scale_kwargs),
        wireless=payload["wireless"],
        seed=payload["seed"],
        coreset_size=payload["coreset_size"],
        coreset_strategy=payload["coreset_strategy"],
        overrides=payload["overrides"],
        use_cache=payload.get("use_cache", False),
        checkpoint_every=payload["checkpoint_every"],
        checkpoint_dir=checkpoint_dir,
    )
