"""Layered spanning trees and the degree census."""

import random

import networkx
import pytest

from conftest import load_catalog
from util import (naive_closure, naive_spanning_tree, neighbor_sets,
                  path_graph, random_connected_graph, random_cubic_connected)
from zeroforcing import (Graph, canonical_labelling, cycle_graph,
                         degree_census, spanning_tree, write_graph6,
                         zero_forcing_number)

# worked host graph: root 0, two gadgets whose children have two parents each
WORKED_GRAPH_12 = Graph(12, [(0, 1), (0, 2), (0, 3), (4, 1), (5, 1), (6, 2),
                          (5, 2), (8, 3), (7, 3), (5, 9), (7, 10), (8, 10),
                          (7, 11), (8, 11), (10, 11)])
WORKED_TREE_12 = Graph(12, [(0, 1), (0, 2), (0, 3), (4, 1), (5, 1), (6, 2),
                         (8, 3), (7, 3), (5, 9), (7, 10), (7, 11)])


def assert_matches_oracle(g, root):
    """The tree, and so the deleted edges, equal the deleted-edge rule's."""
    tree = spanning_tree(g, root)
    expected, _, deleted = naive_spanning_tree(g, root)
    assert (tree, g.edges - tree.edges) == (expected, deleted), \
        (write_graph6(g), root)


@pytest.fixture
def one_search(monkeypatch):
    """spanning_tree reads connectivity from its own layers: any other
    connectivity search fails the test."""
    def fail(self):
        raise AssertionError("spanning_tree ran a second connectivity search")

    monkeypatch.setattr(Graph, "is_connected", fail)
    monkeypatch.setattr(Graph, "components", fail)


class TestConstruction:
    def test_tree_input_is_unchanged(self):
        rng = random.Random(20)
        for _ in range(25):
            n = rng.randint(2, 12)
            edges = [(v, rng.randrange(v)) for v in range(1, n)]
            tree = Graph(n, edges)
            assert spanning_tree(tree, rng.randrange(n)).edges == tree.edges

    def test_square_becomes_path_keeping_larger_parent(self):
        tree = spanning_tree(cycle_graph(4), 0)
        assert tree.edges == frozenset({(0, 1), (0, 3), (2, 3)})

    def test_worked_graph(self):
        tree = spanning_tree(WORKED_GRAPH_12, 0)
        layers = (frozenset({0}), frozenset({1, 2, 3}),
                  frozenset({4, 5, 6, 7, 8}), frozenset({9, 10, 11}))
        assert naive_spanning_tree(WORKED_GRAPH_12, 0)[1] == layers
        level = {v: i for i, layer in enumerate(layers) for v in layer}
        assert all(level[v] - level[u] in (-1, 1) for u, v in tree.edges)
        # both overlapping gadget edges drop, plus the in-layer edge and
        # the smaller parent of the shared child in the first gadget
        assert WORKED_GRAPH_12.edges - tree.edges == \
            frozenset({(1, 5), (7, 10), (7, 11), (10, 11)})
        assert canonical_labelling(tree)[0] == \
            canonical_labelling(WORKED_TREE_12)[0]

    def test_layers_partition_and_edges_cross_one_level(self):
        rng = random.Random(21)
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(2, 11))
            root = rng.randrange(g.n)
            tree = spanning_tree(g, root)
            # the host's breadth-first layers, by networkx and by the oracle
            layers = tuple(map(frozenset, networkx.bfs_layers(
                networkx.Graph(list(g.edges)), root)))
            assert layers == naive_spanning_tree(g, root)[1]
            seen = sorted(v for layer in layers for v in layer)
            assert seen == list(range(g.n))
            level = {v: i for i, layer in enumerate(layers) for v in layer}
            for u, v in tree.edges:
                assert abs(level[u] - level[v]) == 1
            # layer recurrence: next layer is exactly the unseen neighborhood
            nbrs = neighbor_sets(g)
            for i in range(1, len(layers)):
                grown = {w for u in layers[i - 1] for w in nbrs[u]}
                grown -= set(layers[i - 1])
                if i >= 2:
                    grown -= set(layers[i - 2])
                assert frozenset(grown) == layers[i]

    def test_result_is_spanning_tree_of_host(self):
        rng = random.Random(22)
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(2, 11))
            tree = spanning_tree(g, rng.randrange(g.n))
            assert tree.n == g.n
            assert len(tree.edges) == g.n - 1
            assert tree.is_connected()
            assert tree.edges <= g.edges

    @pytest.mark.parametrize("order", [4, 6, 8, 10, 12])
    def test_matches_deleted_edge_rule_on_catalog(self, order, one_search):
        for g in load_catalog(order):
            for root in range(g.n):
                assert_matches_oracle(g, root)

    def test_matches_deleted_edge_rule_on_random_graphs(self):
        rng = random.Random(25)
        checked = 0
        while checked < 200:
            g = random_connected_graph(rng, rng.randint(1, 12),
                                       rng.choice((0.2, 0.4, 0.7)))
            if g.is_cubic():
                continue
            assert_matches_oracle(g, rng.randrange(g.n))
            checked += 1

    def test_disconnected_rejected(self, one_search):
        # the root's layers stop short of the full vertex set, whichever
        # component holds the root, the larger one included
        for g, root in ((Graph(4, [(0, 1), (2, 3)]), 0),
                        (Graph(5, [(0, 1), (1, 2), (3, 4)]), 0),
                        (Graph(5, [(0, 1), (1, 2), (3, 4)]), 4),
                        (Graph(3), 1)):
            with pytest.raises(ValueError, match="needs a connected graph"):
                spanning_tree(g, root)

    def test_root_range(self, one_search):
        with pytest.raises(ValueError, match="root"):
            spanning_tree(path_graph(3), 3)
        # the root is checked before connectivity, also on the empty graph
        with pytest.raises(ValueError, match="root 0 out of range for n=0"):
            spanning_tree(Graph(0), 0)


class TestDegreeCensus:
    def test_path(self):
        census = degree_census(spanning_tree(path_graph(8), 0))
        assert (census.n1, census.n2, census.n3) == (2, 6, 0)

    def test_claw(self):
        star = Graph(4, [(0, 1), (0, 2), (0, 3)])
        census = degree_census(spanning_tree(star, 0))
        assert (census.n1, census.n2, census.n3) == (3, 0, 1)

    def test_rejects_high_degree(self):
        star5 = Graph(5, [(0, v) for v in range(1, 5)])
        with pytest.raises(ValueError, match="maximum degree 3"):
            degree_census(spanning_tree(star5, 0))

    def test_rejects_a_hand_built_non_tree(self):
        # every degree of the 4-cycle is allowed, its edge count is not
        with pytest.raises(ValueError,
                           match="a tree on 4 vertices has 3 edges, found 4"):
            degree_census(cycle_graph(4))

    def test_counterexample16_tree_branch_count(self):
        from zeroforcing import counterexample16
        census = degree_census(spanning_tree(counterexample16(), 0))
        assert census.n3 <= 16 // 2 - 1

    def test_identities_on_random_cubic(self):
        rng = random.Random(23)
        for _ in range(30):
            g = random_cubic_connected(rng, rng.choice((8, 10, 12)))
            census = degree_census(spanning_tree(g, rng.randrange(g.n)))
            n = g.n
            assert census.n1 + census.n2 + census.n3 == n
            assert census.n1 + 2 * census.n2 + 3 * census.n3 == 2 * n - 2
            assert census.n1 == census.n3 + 2
            assert census.n3 <= n // 2 - 1


class TestForcingBounds:
    def test_tree_number_within_branch_budget(self):
        # Z of the tree never exceeds (degree-3 count) + 2
        rng = random.Random(24)
        for _ in range(25):
            g = random_cubic_connected(rng, rng.choice((8, 10, 12)))
            tree = spanning_tree(g, rng.randrange(g.n))
            census = degree_census(tree)
            z_tree = zero_forcing_number(tree).z
            assert z_tree <= census.n3 + 2

    def test_cube_shows_tree_number_can_undercut_graph(self):
        """The cube pins the counterexample: its layered tree has a smaller
        zero forcing number than the graph, so a minimum tree witness need
        not force the host graph."""
        cube = Graph(8, [(u, u ^ (1 << b)) for u in range(8) for b in range(3)
                         if u < (u ^ (1 << b))])
        tree = spanning_tree(cube, 0)
        assert zero_forcing_number(cube).z == 4
        assert zero_forcing_number(tree).z == 2

    @pytest.mark.parametrize("order", [4, 6, 8, 10, 12])
    def test_leaves_force_every_catalog_graph_from_every_root(self, order):
        # the leaves are a forcing set of the host, so Z(G) <= n1 = n3 + 2
        for g in load_catalog(order):
            for root in range(g.n):
                tree = spanning_tree(g, root)
                leaves = [v for v in range(g.n) if tree.degree(v) == 1]
                assert len(leaves) == degree_census(tree).n3 + 2
                assert len(naive_closure(g, leaves)) == g.n, \
                    (write_graph6(g), root, leaves)
