"""The connected cubic census and the shipped graph6 fixtures."""

import collections
import itertools
import random

import networkx
from networkx.algorithms.isomorphism import GraphMatcher
import pytest

from conftest import load_catalog
from util import permuted_copy, reference_census, reference_made_elsewhere
from zeroforcing import catalog
from zeroforcing import (Graph, canonical_labelling, connected_cubic_graphs,
                         permutation_prism, write_graph6)
from zeroforcing.graphs import distance_profiles


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


def test_members_carry_the_masks_of_their_edges():
    # a member is built from its child's toggled masks, with no check, and
    # takes its order from them
    for order in range(4, 15, 2):
        for g in connected_cubic_graphs(order):
            h = Graph(order, g.edges)
            assert g.bits == h.bits
            assert g == h and hash(g) == hash(h)
            assert type(g.edges) is frozenset


def test_odd_and_tiny_orders_empty():
    assert connected_cubic_graphs(7) == ()
    assert connected_cubic_graphs(2) == ()


def test_orders_past_64_raise_before_building(monkeypatch):
    """The profile ranks grow balls as uint64 masks, so orders past 64 raise
    at once, without a census; 64 and below go to the census as before."""
    built = []

    def census(order):
        built.append(order)
        return ()

    monkeypatch.setattr(catalog, "_census", census)
    for order in (65, 66, 1000):
        with pytest.raises(ValueError, match=f"order {order} exceeds 64"):
            connected_cubic_graphs(order)
    assert built == []
    assert connected_cubic_graphs(64) == () and connected_cubic_graphs(63) == ()
    assert built == [64, 63]


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


@pytest.mark.parametrize("order,kept", [(6, 2), (8, 9), (10, 61), (12, 508),
                                        (14, 5086)])
def test_children_build_one_pick_per_orbit(order, kept):
    """`_children` builds exactly one pick per orbit of the full automorphism
    group on picks; the pick is what the child lost of the parent's edges.
    That holds only if the automorphisms the labelling returned generate
    all of Aut(parent), so the cases check it for every parent through
    order 12."""
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


def test_filter_keeps_every_certificate():
    """The census lists the certificates of `reference_census`, the same
    loop without the filter, in the same order; and every automorphism a
    member keeps for pruning its children preserves the member's edges."""
    for order in range(4, 15, 2):
        members = catalog._census(order)
        assert [canonical_labelling(g)[0] for g, _ in members] == \
            [canonical_labelling(g)[0] for g, _ in reference_census(order)]
        for g, automorphisms in members:
            for p in automorphisms:
                assert {tuple(sorted((p[u], p[v]))) for u, v in g.edges} \
                    == g.edges


def networkx_reducible(g, x, y):
    """Delete xy in a multigraph, suppress x and y, and check that what is
    left is a simple connected cubic graph."""
    h = networkx.MultiGraph(list(g.edges))
    h.remove_edge(x, y)
    for v in (x, y):
        a, b = [w for _, w in h.edges(v)]
        h.remove_node(v)
        h.add_edge(a, b)
    return (networkx.number_of_selfloops(h) == 0
            and all(h.number_of_edges(u, v) == 1 for u, v in h.edges())
            and all(d == 3 for _, d in h.degree)
            and networkx.is_connected(h))


def test_reducible_matches_networkx():
    """Every edge of every fixture through order 12.  Both outcomes occur,
    and orders 10 and 12 have bridges, which only the connectivity check
    rejects."""
    outcomes = set()
    for order in (4, 6, 8, 10, 12):
        for g in load_catalog(order):
            for x, y in g.edges:
                expected = networkx_reducible(g, x, y)
                assert catalog._reducible(g, x, y) == expected, (g, x, y)
                outcomes.add(expected)
    assert outcomes == {True, False}


def edge_keys(g):
    """(key, reducible) over g's edges, sorted."""
    profiles = distance_profiles(g)
    return sorted((catalog._edge_key(g, profiles, x, y),
                   catalog._reducible(g, x, y)) for x, y in g.edges)


def test_edge_key_is_invariant():
    """The filter's completeness argument needs an isomorphism-invariant
    edge key: a relabelled copy has the same keys on its reducible and its
    other edges."""
    rng = random.Random(28)
    for order in (4, 6, 8, 10, 12):
        for g in load_catalog(order):
            assert edge_keys(permuted_copy(rng, g)) == edge_keys(g), g


def test_cold_order_twelve_labels_few_children(monkeypatch):
    """A cold order-12 census labels 123 children with the filter, 177 when
    its key was the ends' profiles alone, and 581 without it; the bound of
    135 catches a filter that stops breaking ties or stops skipping."""
    calls = []

    def counting(*args):
        calls.append(args)
        return canonical_labelling(*args)

    monkeypatch.setattr(catalog, "canonical_labelling", counting)
    catalog._census.cache_clear()
    try:
        connected_cubic_graphs(12)
    finally:
        catalog._census.cache_clear()
    assert len(calls) <= 135


def test_cold_order_twelve_searches_few_edges(monkeypatch):
    """A cold order-12 census searches 683 edges for reducibility, and 1900
    when every edge tied with the joining edge on profiles was searched
    before its key was compared; the bound of 750 catches a return to
    searching before the comparison."""
    calls = []
    reducible = catalog._reducible

    def counting(*args):
        calls.append(args)
        return reducible(*args)

    monkeypatch.setattr(catalog, "_reducible", counting)
    catalog._census.cache_clear()
    try:
        connected_cubic_graphs(12)
    finally:
        catalog._census.cache_clear()
    assert len(calls) <= 750


def test_filter_verdicts_match_the_reference():
    """`_made_elsewhere` gives `reference_made_elsewhere`'s verdict, the
    filter that searched every tied edge before comparing keys, on every
    child of every row that a build through order 14 makes: 647 kept and
    4892 skipped in the first row, 7 kept and 120 skipped in the others.  A
    first-row child gets the same verdict from its `_profile_ranks`, which
    the census passes, as from its `distance_profiles`."""
    tally = collections.Counter()
    for row, (new, picks, gadget) in enumerate(catalog.MOVES):
        for order in range(4, 15 - new, 2):
            for parent, automorphisms in catalog._census(order):
                children = list(catalog._children(parent, automorphisms, new,
                                                  picks, gadget))
                ranks = [None] * len(children) if row else \
                    catalog._profile_ranks(children)
                for child, keys in zip(children, ranks):
                    profiles = None if row else distance_profiles(child)
                    verdict = catalog._made_elsewhere(child, profiles)
                    assert verdict == \
                        reference_made_elsewhere(child, profiles), child
                    assert catalog._made_elsewhere(child, keys) == verdict
                    tally[row > 0, verdict] += 1
    assert tally == {(False, False): 647, (False, True): 4892,
                     (True, False): 7, (True, True): 120}


def dense_ranks(profiles):
    """Each profile's index among the distinct profiles, sorted."""
    rank = {p: i for i, p in enumerate(sorted(set(profiles)))}
    return [rank[p] for p in profiles]


def as_child(g):
    return catalog._Child(g.n, list(g.bits), sorted(g.edges))


def test_profile_ranks_match_distance_profiles():
    """`_profile_ranks` gives each vertex its profile's dense rank among
    its graph's `distance_profiles`, in batches of 97, which mix parents and
    fixtures, and one graph at a time.  The graphs are every first-row child
    of a build through order 14, the cubic fixtures of orders 4-14, and a
    relabelled `permutation_prism(32, (1, 3))`, whose 64 vertices fill the
    uint64 masks."""
    new, picks, gadget = catalog.MOVES[0]
    by_order = collections.defaultdict(list)
    for order in range(4, 15 - new, 2):
        for parent, automorphisms in catalog._census(order):
            by_order[order + new] += catalog._children(
                parent, automorphisms, new, picks, gadget)
    for order in range(4, 15, 2):
        by_order[order] += map(as_child, load_catalog(order))
    prism = permuted_copy(random.Random(40), permutation_prism(32, (1, 3)))
    by_order[64].append(as_child(prism))
    for graphs in by_order.values():
        expected = [dense_ranks(distance_profiles(g)) for g in graphs]
        for size in (97, 1):
            got = [ranks for i in range(0, len(graphs), size)
                   for ranks in catalog._profile_ranks(graphs[i:i + size])]
            assert got == expected
    assert max(dense_ranks(distance_profiles(prism))) > 0


@pytest.mark.parametrize("batch", [1, 7])
def test_batch_size_leaves_the_census_alone(monkeypatch, batch):
    """A cold order-12 census in batches of 1 or 7 children lists the same
    members with the same automorphisms as one in batches of `_BATCH`."""
    catalog._census.cache_clear()
    try:
        default = catalog._census(12)
        catalog._census.cache_clear()
        monkeypatch.setattr(catalog, "_BATCH", batch)
        assert catalog._census(12) == default
    finally:
        catalog._census.cache_clear()
