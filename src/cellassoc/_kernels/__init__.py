"""Exact feasibility and maximization kernels on the line.

One pure-Python implementation (`_pure`) of three value-free local rules
(downlink zero-forcing, uplink decode-and-pass, the chain bound) and one
left-to-right DP that maximizes any of them exactly at every k, in O(k)
for a fixed budget, plus its forward max-count pass memoized over a
family of associations (`FamilyLayers`: interned layers with their largest
counts, and per-user transfer rows between them).  `_pure` states the
rules and the DP.
"""

from __future__ import annotations

from . import _pure
from ._pure import (
    FamilyLayers,
    chain_family,
    chain_max,
    dl_family,
    dl_max_active,
    dl_set_feasible,
    ul_family,
    ul_max_active,
    ul_set_feasible,
)


def backend_name() -> str:
    """Name of the kernel implementation in use; there is only "pure"."""
    return "pure"
