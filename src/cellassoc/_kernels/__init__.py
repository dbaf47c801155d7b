"""Exact feasibility and maximization kernels on the line.

One pure-Python implementation (`_pure`) of three value-free local rules
(downlink zero-forcing, uplink decode-and-pass, the chain bound) as
left-to-right automata, and one forward max-count step that every pass
over them goes through: set feasibility, the chain bound's maximum, the
DP that maximizes a session exactly at every k in O(k) for a fixed
budget, and `family_sums`, which walks a family of associations by
columns (`column_walk`) over memoized layers and returns every
association's maximum in enumeration order.  `_pure` states the rules
and the passes.
"""

from __future__ import annotations

from ._pure import (
    chain_family,
    chain_max,
    column_walk,
    dl_family,
    dl_max_active,
    dl_set_feasible,
    family_sums,
    ul_family,
    ul_max_active,
    ul_set_feasible,
)


def backend_name() -> str:
    """Name of the kernel implementation in use; there is only "pure"."""
    return "pure"
