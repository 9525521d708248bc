"""Top-k sparsification with index-value encoding (§III-C).

A model compressed to relative size ``psi`` keeps the ``k`` largest-
magnitude parameters.  For sparse sends each kept parameter costs an
(index, value) pair — 8 bytes instead of 4 — so ``k = psi * n / 2``;
when ``psi == 1`` the dense vector is sent and no index overhead is
paid.  This matches the paper's remark that small-``k`` models are
represented by index-value pairs to further reduce size.

Which ``k`` is a threshold, not an ordering: with the magnitudes sorted
(values only), the ``k`` largest are the entries at or above
``ranked[n - k]``, and equal magnitudes go to the lowest index.
Magnitudes compare by the uint32 bit pattern of ``|x|``, which orders
finite < inf < NaN totally with no special case.  That is the whole
rule, so a payload's bits depend neither on the sort algorithm nor on
the SIMD sort numpy dispatches for the CPU.  :func:`compress_topk`,
:meth:`TopkPlan.compress` and the Eq. 7 probe levels of
:class:`~repro.core.overlap.DensePsiProber` all select by
:meth:`TopkPlan.cuts`: the probe compares its rows against each cut
itself, and takes :meth:`TopkPlan.keep`'s row wherever a cut has
surplus ties.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CompressedModel",
    "topk_for_psi",
    "compress_topk",
    "TopkPlan",
    "topk_plan",
    "decompress",
]

_BYTES_PER_VALUE = 4
_BYTES_PER_PAIR = 8


@dataclass(frozen=True)
class CompressedModel:
    """A sparsified parameter vector plus its size accounting.

    ``nominal_bytes`` is the transfer size used by the communication
    simulator; it scales the *paper's* model size (52 MB by default) by
    the achieved compression so that transfer times match the paper's
    regime even though the numpy model is tiny.
    """

    indices: np.ndarray  # int64 positions of retained entries
    values: np.ndarray  # float32 retained values
    n_total: int  # original parameter count
    psi: float  # achieved relative size S_c / S
    nominal_bytes: int  # bytes to transmit at nominal model scale


def topk_for_psi(n_total: int, psi: float) -> int:
    """Number of entries retainable at relative size ``psi``.

    Accounts for index-value overhead on sparse sends; ``psi >= 1`` keeps
    everything (dense send).
    """
    if not 0.0 <= psi <= 1.0:
        raise ValueError(f"psi must lie in [0, 1]: {psi}")
    if psi >= 1.0:
        return n_total
    k = int(psi * n_total * _BYTES_PER_VALUE / _BYTES_PER_PAIR)
    return min(k, n_total)


def compress_topk(flat: np.ndarray, psi: float, nominal_size_bytes: int) -> CompressedModel:
    """Sparsify ``flat`` to relative size ``psi`` by magnitude top-k.

    Parameters
    ----------
    flat:
        The flat parameter vector.
    psi:
        Target relative size in [0, 1].
    nominal_size_bytes:
        Uncompressed size of the model at paper scale (e.g. 52 MB); the
        result's :attr:`CompressedModel.nominal_bytes` is derived from it.
    """
    return _compress(_plan(flat, nominal_size_bytes), psi)


@dataclass(frozen=True)
class TopkPlan:
    """One parameter vector's magnitudes, sorted once for every level.

    The Eq. 7 psi-map fit samples ~7 compression levels of the *same*
    parameters and the payload is one more; each is a compare of
    ``magnitude`` against one entry of ``ranked``.

    ``magnitude`` and ``ranked`` are the plan's own arrays, but ``flat``
    is whatever float32 vector it was given: for a vehicle, a view of
    its live bank row, not a copy.  A plan is therefore only good while
    that row is unchanged; :meth:`~repro.core.chat.Chat.capture` spends
    one only at the ``model_version`` it was ranked at.
    """

    flat: np.ndarray  # the ranked parameters (a vehicle's: its live bank row)
    magnitude: np.ndarray  # |flat|
    ranked: np.ndarray  # |flat| ascending: values only, no index order is kept
    nominal_size_bytes: int

    def cuts(self, ks) -> tuple[np.ndarray, np.ndarray]:
        """``(cuts, surplus)`` of each ``ks[r]``: the bit pattern of the
        smallest kept magnitude, and how many entries at or above it are
        not among the ``ks[r]``.

        A cut can repeat below rank ``n - k``; that many of the entries
        equal to it, the highest-indexed, are the surplus.  Where it is
        0, the ``k`` largest are exactly the magnitudes ``>= cut``.
        (k = 0 reads the top magnitude as its cut and finds all of it
        surplus.)
        """
        ranked = self.ranked.view(np.uint32)
        n, ks = ranked.size, np.asarray(ks)
        cuts = ranked[np.minimum(n - ks, n - 1)]
        return cuts, n - ks - np.searchsorted(ranked, cuts)

    def keep(self, ks) -> np.ndarray:
        """Row ``r``: mask of the ``ks[r]`` largest magnitudes, equal ones lowest index first."""
        magnitude = self.magnitude.view(np.uint32)
        cuts, surplus = self.cuts(ks)
        masks = magnitude >= cuts[:, None]
        for row in np.flatnonzero(surplus):
            masks[row, np.flatnonzero(magnitude == cuts[row])[-surplus[row] :]] = False
        return masks

    def kept_norms(self, ks) -> np.ndarray:
        """L2 norm of each ``ks[r]``-entry payload: the root of the sum of
        the ``ks[r]`` largest squares, read off :attr:`ranked` (which
        entries tie at a cut does not change it)."""
        top = self.ranked[::-1][: max(ks, default=0)].astype(np.float64)  # largest first
        return np.sqrt([top[:k] @ top[:k] for k in ks])

    def compress(self, psi: float) -> CompressedModel:
        """The plan's parameters sparsified to relative size ``psi``."""
        return _compress(self, psi)


def topk_plan(flat: np.ndarray, nominal_size_bytes: int) -> TopkPlan:
    """Sort ``flat``'s magnitudes once, for repeated :meth:`TopkPlan.compress`."""
    return _plan(flat, nominal_size_bytes)


# The two steps behind the public names.  :func:`compress_topk` takes
# both without passing through :func:`topk_plan` or
# :meth:`TopkPlan.compress`, so a profiler that wraps those two counts
# plans built for reuse and payloads cut from one, not one-shot sends.


def _plan(flat: np.ndarray, nominal_size_bytes: int) -> TopkPlan:
    flat = np.asarray(flat, dtype=np.float32)
    magnitude = np.abs(flat)
    ranked = np.sort(magnitude.view(np.uint32)).view(np.float32)
    return TopkPlan(flat, magnitude, ranked, nominal_size_bytes)


def _compress(plan: TopkPlan, psi: float) -> CompressedModel:
    n = plan.flat.size
    k = topk_for_psi(n, psi)
    indices = np.flatnonzero(plan.keep([k])[0])  # ascending
    if psi >= 1.0:
        achieved = 1.0  # dense send: values only, no index overhead
    else:
        achieved = k * _BYTES_PER_PAIR / (n * _BYTES_PER_VALUE)
    return CompressedModel(
        indices=indices,
        values=plan.flat[indices],
        n_total=n,
        psi=achieved,
        nominal_bytes=int(round(achieved * plan.nominal_size_bytes)),
    )


def decompress(compressed: CompressedModel, fill: np.ndarray | None = None) -> np.ndarray:
    """Reconstruct a dense vector from a compressed model.

    Unsent positions are zero by default; passing ``fill`` (e.g. the
    receiver's own parameters) overlays the received values on it, which
    is how receivers materialize a sparsified peer model before Eq. 8
    aggregation.
    """
    if fill is None:
        dense = np.zeros(compressed.n_total, dtype=np.float32)
    else:
        if fill.size != compressed.n_total:
            raise ValueError(
                f"fill has {fill.size} entries, expected {compressed.n_total}"
            )
        dense = fill.astype(np.float32, copy=True)
    dense[compressed.indices] = compressed.values
    return dense
