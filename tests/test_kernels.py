"""The kernels: one pure-Python line DP, exact at every size.

tests/test_properties.py checks the rules and the DP against the GF(p)
and decoding-order oracles and against an include-first branch and bound.
"""

import cellassoc._kernels as kernels
from cellassoc import max_downlink_dof, max_uplink_dof, pair_association


def test_backend_name_reports_selection():
    assert kernels.backend_name() == "pure"


def test_large_k_routes_to_pure():
    # The rules read association sets, so they take any k.
    k = 70
    cells = [{i - 1, i} - {0} for i in range(1, k + 1)]
    everyone = set(range(1, k + 1))
    assert kernels.ul_set_feasible(k, cells, everyone)
    assert not kernels.dl_set_feasible(k, cells, everyone)


def test_pair_association_maxima_on_a_long_line():
    # Two of every three users in the downlink, everyone in the uplink.
    k = 20000
    assoc = pair_association(k)
    dl = kernels.dl_max_active(k, assoc.cells)
    assert dl == {i for i in range(1, k + 1) if i % 3 != 2}
    assert kernels.ul_max_active(k, assoc.cells) == set(range(1, k + 1))
    dl_ev, ul_ev = max_downlink_dof(assoc), max_uplink_dof(assoc)
    assert dl_ev.to_json()["exact"] is True and ul_ev.to_json()["exact"] is True
    assert (dl_ev.sum_dof, ul_ev.sum_dof) == (13333, 20000)


def test_rules_on_tiny_cases():
    # User 2 hears bs 1, which is message 1's only base station.
    assert not kernels.dl_set_feasible(2, [{1}, {1, 2}], {1, 2})
    assert kernels.dl_set_feasible(2, [{1}, {1, 2}], {1})
    # Both users can only reach bs 1: whoever decodes first blocks the other.
    assert not kernels.ul_set_feasible(2, [{1}, {1}], {1, 2})
    assert kernels.ul_max_active(2, [{1}, {1}]) == {1}
    # An empty or off-line association never serves; the empty set is feasible.
    assert kernels.dl_max_active(3, [set(), {0}, {4}]) == set()
    assert kernels.dl_set_feasible(3, [set(), set(), set()], set())
    assert not kernels.dl_set_feasible(1, [set()], {1})
