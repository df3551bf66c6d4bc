"""Family constructors: ladder blocks, one-pass assembly, prisms, and the named graphs."""

import itertools
from dataclasses import dataclass

import networkx
import pytest

from util import is_zero_forcing_set, naive_closure, neighbor_sets
from zeroforcing import (FamilySpec, Graph, block_sequences, build_family,
                         canonical_labelling, complete_graph, counterexample16,
                         edge_connectivity, family_members, heawood_graph,
                         ladder_m, ladder_t, necklace, permutation_prism,
                         twin_bound, zero_forcing_number)

# hand-drawn order-10 member: apex 0, ladder block 1..6, triangle 7..9
KNOWN_MEMBER_10 = Graph(10, [(0, 1), (0, 2), (0, 6), (1, 3), (2, 1), (2, 4),
                           (3, 4), (3, 7), (5, 4), (5, 8), (6, 5), (6, 9),
                           (9, 8), (9, 7), (7, 8)])

TRIANGULAR_PRISM = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                             (0, 3), (1, 4), (2, 5)])


def isomorphic(g, h) -> bool:
    return canonical_labelling(g)[0] == canonical_labelling(h)[0]


def assert_cubic_connected(g):
    assert g.is_cubic()
    assert g.is_connected()


@dataclass(frozen=True)
class ColoredGraph:
    """A graph with the tags of the paper's drawings: the attachment set
    (yellow plus degree-1 vertices) receives edges from the left, and the
    white set sends edges to the right."""

    graph: Graph
    yellow: frozenset
    white: frozenset

    @property
    def attachment(self) -> frozenset:
        pendant = {v for v in range(self.graph.n) if self.graph.degree(v) == 1}
        return self.yellow | pendant


def drawn_block(kind: str, idx: int) -> ColoredGraph:
    """A ladder block's graph with the yellow and white sets of its drawing:
    T_m has yellow first-rung endpoints and cap; M_n has yellow first-rung
    endpoints, and its tail and the last-rung endpoint opposite it are white."""
    if kind == "T":
        return ColoredGraph(ladder_t(idx)[0], frozenset({0, 1, 2 * idx + 2}),
                            frozenset())
    return ColoredGraph(ladder_m(idx)[0], frozenset({0, 1}),
                        frozenset({2 * idx + 1, 2 * idx + 2, 2 * idx + 3}))


def compound(g1: ColoredGraph, g2: ColoredGraph, f: dict) -> ColoredGraph:
    """Join g1's white set to g2's attachment set by the bijection f, with
    g2 shifted past g1; g1's attachment set and g2's white set stay tagged."""
    assert set(f) == g1.white and set(f.values()) == g2.attachment
    off = g1.graph.n
    edges = list(g1.graph.edges)
    edges += [(u + off, v + off) for u, v in g2.graph.edges]
    edges += [(u, f[u] + off) for u in g1.white]
    return ColoredGraph(Graph(off + g2.graph.n, edges), yellow=g1.attachment,
                        white=frozenset(v + off for v in g2.white))


def apex_k1(g: ColoredGraph) -> Graph:
    """Add one vertex adjacent to every yellow and pendant vertex."""
    apex = g.graph.n
    return Graph(apex + 1, list(g.graph.edges) + [(apex, v) for v in g.attachment])


def chained_family(spec: FamilySpec) -> Graph:
    """Reference assembly over the drawn tags: one `compound` per junction,
    then `apex_k1`."""
    current = drawn_block(*spec.blocks[0])
    for block, perm in zip(spec.blocks[1:], spec.matchings):
        nxt = drawn_block(*block)
        a, b = sorted(current.white), sorted(nxt.attachment)
        current = compound(current, nxt, {a[i]: b[perm[i]] for i in range(len(a))})
    return apex_k1(current)


class TestLadderT:
    def test_zero_is_triangle_all_yellow(self):
        g, attachment, white = ladder_t(0)
        assert isomorphic(g, complete_graph(3))
        assert attachment == (0, 1, 2)
        assert white == ()

    def test_one_has_five_vertices(self):
        g, attachment, _ = ladder_t(1)
        assert g.n == 5
        assert len(attachment) == 3

    def test_two_degree_sequence(self):
        # m+1 rungs, 2m rails, 2 cap edges: three degree-2 and four degree-3
        g, _, _ = ladder_t(2)
        assert g.n == 7
        assert sorted(map(g.degree, range(g.n))) == [2, 2, 2, 3, 3, 3, 3]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ladder_t(-1)


class TestLadderM:
    def test_zero_is_four_path_with_overlapping_tags(self):
        g, attachment, white = ladder_m(0)
        assert isomorphic(g, Graph(4, [(0, 1), (1, 2), (2, 3)]))
        assert attachment == (0, 1, 3)
        assert white == (1, 2, 3)
        # b_0 = 1 is yellow and white; the pendants b_0 and c2 = 3 attach
        assert set(attachment) & set(white) == {1, 3}

    def test_one_has_six_vertices(self):
        g, attachment, white = ladder_m(1)
        assert g.n == 6
        assert len(white) == 3 and len(attachment) == 3

    def test_two_tag_counts(self):
        g, attachment, white = ladder_m(2)
        assert g.n == 8
        assert len(white) == 3
        assert attachment == (0, 1, 7)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ladder_m(-1)


def spec_of(*blocks) -> FamilySpec:
    """The spec joining each junction by the identity matching."""
    return FamilySpec(blocks=blocks, matchings=((0, 1, 2),) * (len(blocks) - 1))


class TestAssembly:
    def test_apex_t0_is_k4(self):
        assert isomorphic(build_family(spec_of(("T", 0))), complete_graph(4))

    def test_apex_t1_is_triangular_prism(self):
        assert isomorphic(build_family(spec_of(("T", 1))), TRIANGULAR_PRISM)

    def test_m1_t0_compound_reaches_known_member(self):
        g = build_family(spec_of(("M", 1), ("T", 0)))
        assert g.n == 10
        assert_cubic_connected(g)
        assert isomorphic(g, KNOWN_MEMBER_10)

    def test_every_matching_of_m1_t0_gives_the_same_member(self):
        for perm in itertools.permutations(range(3)):
            spec = FamilySpec(blocks=(("M", 1), ("T", 0)), matchings=(perm,))
            assert isomorphic(build_family(spec), KNOWN_MEMBER_10)

    def test_m0_t0_gives_eight_vertex_member(self):
        g = build_family(spec_of(("M", 0), ("T", 0)))
        assert g.n == 8
        assert_cubic_connected(g)
        assert zero_forcing_number(g).z == 3


class TestBuildFamily:
    """`build_family` assembles in one pass the graph the operator chain over
    the drawn tags builds: the same vertex count and edge set."""

    def test_every_spec_matches_the_chain_through_order_eighteen(self):
        specs = 0
        for order in range(4, 19):
            for blocks in block_sequences(order):
                for perms in itertools.product(itertools.permutations(range(3)),
                                               repeat=len(blocks) - 1):
                    spec = FamilySpec(blocks=blocks, matchings=perms)
                    g = build_family(spec)
                    assert g == chained_family(spec), spec
                    assert_cubic_connected(g)
                    specs += 1
        assert specs == 1 + 1 + 7 + 13 + 55 + 133 + 463 + 1261    # orders 4, 6, ..., 18

    def test_malformed_specs_rejected(self):
        for blocks, matchings, message in (
                ((("M", 0),), (), "end with a T"),
                ((("M", 0), ("T", 0)), (), "one matching per junction"),
                ((("M", 0), ("T", 0)), ((0, 0, 1),), "bijection"),
                ((("T", 0), ("T", 0)), ((0, 1, 2),), "from 0 white"),
                ((("X", 0), ("T", 0)), ((0, 1, 2),), "unknown block 'X', 0"),
                ((("M", "a"), ("T", 0)), ((0, 1, 2),), "unknown block 'M', 'a'"),
                ((("M", -1), ("T", 0)), ((0, 1, 2),), "unknown block 'M', -1")):
            with pytest.raises(ValueError, match=message):
                build_family(FamilySpec(blocks=blocks, matchings=matchings))


class TestEnumerateFamily:
    """The distinct members of each order, as `family_members` lists them."""

    def test_order_four_is_exactly_k4(self):
        members = family_members(4)
        assert len(members) == 1
        assert isomorphic(members[0][1], complete_graph(4))

    def test_order_six_contains_prism(self):
        assert any(isomorphic(g, TRIANGULAR_PRISM) for _, g in family_members(6))

    def test_order_ten_contains_known_member(self):
        assert any(isomorphic(g, KNOWN_MEMBER_10) for _, g in family_members(10))

    def test_odd_orders_empty(self):
        assert family_members(7) == ()

    def test_small_orders_rejected(self):
        with pytest.raises(ValueError):
            family_members(3)

    def test_members_are_cubic_connected_distinct(self):
        for order in (4, 6, 8, 10, 12):
            members = [g for _, g in family_members(order)]
            for g in members:
                assert_cubic_connected(g)
                assert g.n == order
            assert len({canonical_labelling(g)[0] for g in members}) == len(members)

    def test_members_have_good_edge_connectivity(self):
        for order in (4, 6, 8, 10, 12):
            for _, g in family_members(order):
                assert edge_connectivity(g) >= 3

    def test_specs_rebuild_their_graphs(self):
        for spec, g in family_members(12):
            assert isomorphic(build_family(spec), g)


class TestPermutationPrism:
    def test_identity_prism_over_square_is_cube(self):
        cube = Graph(8, [(u, u ^ (1 << b)) for u in range(8) for b in range(3)
                         if u < (u ^ (1 << b))])
        assert isomorphic(permutation_prism(4), cube)

    def test_transposition_is_cubic(self):
        g = permutation_prism(5, (1, 2))
        assert g.n == 10
        assert_cubic_connected(g)

    def test_distant_swap_keeps_a_short_cycle(self):
        g = permutation_prism(6, (2, 5))
        assert_cubic_connected(g)
        assert networkx.girth(networkx.Graph(list(g.edges))) == 4

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            permutation_prism(3)

    def test_bad_sigma_rejected(self):
        with pytest.raises(ValueError):
            permutation_prism(5, (2, 2))
        with pytest.raises(ValueError):
            permutation_prism(5, (0, 3))
        with pytest.raises(ValueError):
            permutation_prism(5, (1, 6))


class TestHeawood:
    def test_cubic_bipartite_on_14(self):
        g = heawood_graph()
        assert g.n == 14
        assert_cubic_connected(g)
        # points 0..6 and blocks 7..13 are independent sides
        for u, v in g.edges:
            assert (u < 7) != (v < 7)

    def test_girth_six(self):
        assert networkx.girth(networkx.Graph(list(heawood_graph().edges))) == 6

    def test_every_point_pair_in_exactly_one_block(self):
        nbrs = neighbor_sets(heawood_graph())
        for p, q in itertools.combinations(range(7), 2):
            common = nbrs[p] & nbrs[q]
            assert len(common) == 1


class TestCounterexample16:
    def test_shape(self):
        g = counterexample16()
        assert g.n == 16
        assert_cubic_connected(g)


class TestNecklace:
    def test_sizes_and_regularity(self):
        for beads in (2, 3, 4):
            g = necklace(beads)
            assert g.n == 6 * beads
            assert_cubic_connected(g)

    def test_zero_forcing_number_is_n_over_3_plus_2(self):
        for beads, z in ((4, 10), (5, 12)):
            g = necklace(beads)
            result = zero_forcing_number(g)
            assert result.z == z == g.n // 3 + 2
            assert naive_closure(g, result.witness) == set(range(g.n))

    def test_two_twin_pairs_per_bead(self):
        # {p1, p2} and {p3, p4} of each bead, and no other equal neighborhoods
        for beads in range(2, 7):
            g = necklace(beads)
            groups = {}
            for v, nbrs in enumerate(neighbor_sets(g)):
                groups.setdefault(frozenset(nbrs), []).append(v)
            classes = [tuple(vs) for vs in groups.values() if len(vs) > 1]
            assert len(classes) == 2 * beads == twin_bound(g)
            assert all(len(c) == 2 for c in classes)
            bead_starts = range(0, 6 * beads, 6)
            assert set(classes) == {(o + 1, o + 2) for o in bead_starts} \
                | {(o + 3, o + 4) for o in bead_starts}

    def test_single_bead_rejected(self):
        with pytest.raises(ValueError):
            necklace(1)


def test_known_four_cycle_witness_forces_prism():
    # the 4-cycle around an adjacent swap is a forcing set
    for n, sigma in ((5, (1, 2)), (6, (1, 2)), (7, (3, 4))):
        g = permutation_prism(n, sigma)
        i = sigma[0]
        square = {i - 1, i % n, n + (i - 1), n + (i % n)}
        assert is_zero_forcing_set(g, square)
