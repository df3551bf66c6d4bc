"""The connected cubic census and the shipped graph6 fixtures."""

import itertools

import networkx
from networkx.algorithms.isomorphism import GraphMatcher
import pytest

from conftest import load_catalog
from zeroforcing import catalog
from zeroforcing import canonical_labelling, connected_cubic_graphs, write_graph6


def test_connected_cubic_counts():
    assert len(connected_cubic_graphs(4)) == 1
    assert len(connected_cubic_graphs(6)) == 2
    assert len(connected_cubic_graphs(8)) == 5
    assert len(connected_cubic_graphs(10)) == 19


def test_connected_cubic_members_are_valid():
    for order in (4, 6, 8, 10):
        members = connected_cubic_graphs(order)
        certs = set()
        for g in members:
            assert g.n == order
            assert g.is_cubic()
            assert g.is_connected()
            certs.add(canonical_labelling(g)[0])
        assert len(certs) == len(members)


def test_odd_and_tiny_orders_empty():
    assert connected_cubic_graphs(7) == ()
    assert connected_cubic_graphs(2) == ()


def test_census_mismatch_raises(monkeypatch):
    # _census is the one cache of members and their automorphisms
    monkeypatch.setitem(catalog.CONNECTED_CUBIC_COUNTS, 8, 6)
    catalog._census.cache_clear()
    try:
        with pytest.raises(RuntimeError) as info:
            connected_cubic_graphs(8)
    finally:
        catalog._census.cache_clear()
    assert str(info.value) == "cubic census mismatch at order 8: built 5, expected 6"


@pytest.mark.parametrize("order,count",
                         [(4, 1), (6, 2), (8, 5), (10, 19), (12, 85), (14, 509)])
def test_fixture_files_are_complete_catalogs(order, count):
    """Fixture = every connected cubic graph of the order, pairwise distinct.

    Distinct certificates plus the known census total prove completeness
    without regenerating the larger orders.
    """
    members = load_catalog(order)
    assert len(members) == count
    certs = set()
    for g in members:
        assert g.n == order
        assert g.is_cubic()
        assert g.is_connected()
        certs.add(canonical_labelling(g)[0])
    assert len(certs) == count


def test_fixture_matches_generator_at_small_orders():
    # records in order: the catalog is sorted by certificate, so this also
    # pins the certificate values (and with them the distance-profile seed of
    # the labelling), not only which classes they separate
    for order in (4, 6, 8, 10, 12, 14):
        fixture = [write_graph6(g) for g in load_catalog(order)]
        live = [write_graph6(g) for g in connected_cubic_graphs(order)]
        assert fixture == live


@pytest.mark.parametrize("new,picks,gadget", catalog.MOVES)
def test_move_gadgets_are_symmetric(new, picks, gadget):
    """The condition orbit pruning rests on: swapping the ends of a replaced
    edge, or the two replaced edges, leaves the gadget's edges as they were
    up to a relabelling of the new vertices, so picks that an automorphism
    maps onto each other give isomorphic children."""
    ends = "abcd"[:2 * picks]
    assert {x for e in gadget for x in e if isinstance(x, str)} == set(ends)
    swaps = [{"a": "b", "b": "a"}]
    if picks == 2:
        swaps += [{"c": "d", "d": "c"}, {"a": "c", "b": "d", "c": "a", "d": "b"}]

    def moved(swap, relabel):
        return {frozenset(swap.get(x, x) if isinstance(x, str) else relabel[x]
                          for x in e) for e in gadget}

    edges = moved({}, range(new))
    for swap in swaps:
        assert any(moved(swap, relabel) == edges
                   for relabel in itertools.permutations(range(new))), swap


def pick_orbits(g):
    """Pick (a frozenset of edges) -> its orbit under the whole of Aut(g),
    which networkx enumerates."""
    host = networkx.Graph(list(g.edges))
    autos = list(GraphMatcher(host, host).isomorphisms_iter())
    orbits = {}
    for size in (1, 2):
        for pick in itertools.combinations(sorted(g.edges), size):
            orbits[frozenset(pick)] = frozenset(
                frozenset(tuple(sorted((m[u], m[v]))) for u, v in pick)
                for m in autos)
    return orbits


@pytest.mark.parametrize("order,kept", [(6, 2), (8, 9), (10, 61)])
def test_children_build_one_pick_per_orbit(order, kept):
    """`_children` builds exactly one pick per orbit of the full automorphism
    group on picks; the pick is what the child lost of the parent's edges."""
    built = 0
    for new, picks, gadget in catalog.MOVES:
        for parent, automorphisms in catalog._census(order - new):
            orbits = pick_orbits(parent)
            expected = {o for pick, o in orbits.items() if len(pick) == picks}
            got = []
            for child in catalog._children(parent, automorphisms, new, picks,
                                           gadget):
                lost = parent.edges - {(u, v) for u, v in child.edges
                                       if v < parent.n}
                got.append(orbits[frozenset(lost)])
            assert len(got) == len(set(got)) and set(got) == expected
            built += len(got)
    assert built == kept
