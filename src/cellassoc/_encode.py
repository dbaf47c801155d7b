"""Bitmask and channel-array encodings of an instance.

The oracles and kernels read association sets directly, so nothing in the
package calls these helpers; perfbench/tracing.py traces them by name and
the brute-force acceptance check reads channel_arrays.
"""

from __future__ import annotations

from .model import CellAssociation, ChannelRealization


def set_to_mask(indices) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << (i - 1)
    return mask


def cells_masks(assoc: CellAssociation) -> list[int]:
    """Association sets as bs masks, dropping out-of-range indices."""
    masks = []
    for cell in assoc.cells:
        masks.append(set_to_mask(j for j in cell if 1 <= j <= assoc.k))
    return masks


def channel_arrays(ch: ChannelRealization) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split a realization into (h0, h1): h0[i-1] = gain from bs i-1, h1[i-1] = own bs."""
    return ch.left[1:-1], ch.diag[1:-1]
