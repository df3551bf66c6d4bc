"""The paper's scoreboard: how many of its graphs the M(G) sandwich pins.

The paper claims M = 3 for every cubic graph with Z = 3 (the family
members), and introduces a family, the one-swap prisms here, containing
graphs with M = Z = 4.  A verdict is pinned when
`bounds_report` finds a lower bound L equal to Z, so `m` is not None.  These
are exact counts of today's verdicts, not targets: a change that pins more
graphs updates the count it raises and says so.
"""

from conftest import load_catalog
from zeroforcing import bounds_report, family_members, permutation_prism


def pinned(graphs):
    """(pinned verdicts, graphs) over the given graphs."""
    graphs = list(graphs)
    return sum(bounds_report(g).m is not None for g in graphs), len(graphs)


def test_family_members_of_orders_8_to_18():
    members = (g for order in range(8, 19) for _, g in family_members(order))
    assert pinned(members) == (0, 112)


def test_one_swap_prisms():
    prisms = (permutation_prism(n, (1, j))
              for n in range(5, 13) for j in range(2, n + 1))
    assert pinned(prisms) == (1, 60)


def test_cubic14_census():
    assert pinned(load_catalog(14)) == (2, 509)
