"""Layered spanning-tree construction and the tree degree census.

The tree is grown from a root in breadth-first layers; every edge inside a
layer is deleted, and a vertex with several neighbors in the previous layer
keeps only the edge from the neighbor that is maximal under (degree in the
original graph, then vertex id).

What the tree is for: on a connected cubic graph G its leaves are a zero
forcing set of G, so Z(G) <= n1 = n3 + 2 (the tree has maximum degree 3,
and the handshake identity gives n1 = n3 + 2).  This is a checked property
of the construction, not a quoted theorem: the tests verify it for every
root of every connected cubic graph up to order 12, and on random samples.
What it does not promise: Z(G) <= Z(T).  A minimum forcing set of the tree
need not force G; the 3-cube rooted at 0 has Z = 4 and its tree Z = 2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, _layers, _mask_vertices


@dataclass(frozen=True)
class SpanningTree:
    tree: Graph
    root: int
    layers: tuple          # frozensets partitioning the vertices by depth
    deleted: frozenset     # edges of the host graph absent from the tree


@dataclass(frozen=True)
class DegreeCensus:
    """Counts of tree vertices by degree, for trees with maximum degree 3."""

    n1: int
    n2: int
    n3: int


def spanning_tree(g: Graph, root: int) -> SpanningTree:
    if not 0 <= root < g.n:
        raise ValueError(f"root {root} out of range for n={g.n}")
    if not g.is_connected():
        raise ValueError("spanning tree needs a connected graph")

    layers = [frozenset(_mask_vertices(layer)) for layer in _layers(g.bits, 1 << root)]
    level = [0] * g.n
    for depth, layer in enumerate(layers):
        for v in layer:
            level[v] = depth

    deleted = set()
    for u, v in g.edges:
        if level[u] == level[v]:
            deleted.add((u, v) if u < v else (v, u))
    for layer in layers[1:]:
        for x in layer:
            parents = [u for u in g.adj[x] if level[u] == level[x] - 1]
            if len(parents) > 1:
                keep = max(parents, key=lambda u: (g.degree(u), u))
                for u in parents:
                    if u != keep:
                        deleted.add((u, x) if u < x else (x, u))

    tree = Graph(g.n, g.edges - deleted)
    if len(tree.edges) != g.n - 1:
        raise AssertionError("layer rules did not leave a spanning tree")
    return SpanningTree(tree=tree, root=root,
                        layers=tuple(layers),
                        deleted=frozenset(deleted))


def degree_census(t: SpanningTree) -> DegreeCensus:
    """Exact degree-1/2/3 counts of the tree; rejects trees of higher degree."""
    counts = {1: 0, 2: 0, 3: 0}
    tree = t.tree
    for v in range(tree.n):
        d = tree.degree(v)
        if d not in counts:
            raise ValueError(f"census is defined for maximum degree 3, "
                             f"found degree {d}")
        counts[d] += 1
    census = DegreeCensus(counts[1], counts[2], counts[3])
    n = tree.n
    if census.n1 + census.n2 + census.n3 != n:
        raise AssertionError("degree counts must cover every vertex")
    if census.n1 + 2 * census.n2 + 3 * census.n3 != 2 * n - 2:
        raise AssertionError("tree handshake identity violated")
    return census
