"""Coreset merge-and-reduce updating (§III-D).

The ε-coreset union property: if C1, C2 are ε-coresets of disjoint D1,
D2 then C1 ∪ C2 is an ε-coreset of D1 ∪ D2 (Wang et al.).  A vehicle can
therefore keep its coreset fresh after absorbing a peer's coreset by
*merging* the two coresets, then *reducing* (re-running layered sampling
on the union) to hold the size constant — the classic Har-Peled &
Mazumdar merge-reduce tree, flattened to a single level.
"""

from __future__ import annotations

import numpy as np

from repro.coreset.construction import Coreset, build_coreset

__all__ = ["merge_coresets", "reduce_coreset"]


def merge_coresets(a: Coreset, b: Coreset) -> Coreset:
    """Union of two coresets, keeping each sample's coreset weight.

    Duplicate frame ids (possible after repeat encounters) are kept
    once, with ``a``'s weight — :class:`DrivingDataset` deduplicates on id.
    """
    data = a.data.copy()
    data.absorb_from(b.data)
    return Coreset(data)


def reduce_coreset(
    coreset: Coreset,
    losses: np.ndarray,
    target_size: int,
    rng: np.random.Generator,
) -> Coreset:
    """Shrink a (merged) coreset back to ``target_size``.

    Re-runs layered sampling with the existing coreset weights ``w_C``
    acting as the data weights, which preserves each sample's
    representation mass through the reduction.
    """
    if len(coreset) <= target_size:
        return coreset
    reduced = build_coreset(coreset.data, losses, target_size, rng)
    return reduced
