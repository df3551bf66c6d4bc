"""Layered spanning-tree construction and the tree degree census.

The tree is grown from a root in breadth-first layers.  Each vertex outside
the root keeps one edge: the edge from its neighbor in the previous layer that
is maximal under (degree in the original graph, then vertex id).  Every other
edge, each edge inside a layer included, is deleted.

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
class DegreeCensus:
    """Counts of tree vertices by degree, for trees with maximum degree 3."""

    n1: int
    n2: int
    n3: int


def spanning_tree(g: Graph, root: int) -> Graph:
    """The layered spanning tree of a connected g from root, on g's vertices."""
    if not 0 <= root < g.n:
        raise ValueError(f"root {root} out of range for n={g.n}")
    masks = list(_layers(g.bits, 1 << root))
    if sum(masks) != (1 << g.n) - 1:      # the layers are disjoint
        raise ValueError("spanning tree needs a connected graph")
    kept = [(max(_mask_vertices(g.bits[x] & previous),
                 key=lambda u: (g.degree(u), u)), x)
            for previous, layer in zip(masks, masks[1:])
            for x in _mask_vertices(layer)]
    return Graph(g.n, kept)


def degree_census(tree: Graph) -> DegreeCensus:
    """Exact degree-1/2/3 counts of the tree; rejects trees of higher degree."""
    counts = {1: 0, 2: 0, 3: 0}
    for v in range(tree.n):
        d = tree.degree(v)
        if d not in counts:
            raise ValueError(f"census is defined for maximum degree 3, "
                             f"found degree {d}")
        counts[d] += 1
    if len(tree.edges) != tree.n - 1:
        raise ValueError(f"a tree on {tree.n} vertices has {tree.n - 1} "
                         f"edges, found {len(tree.edges)}")
    return DegreeCensus(counts[1], counts[2], counts[3])
