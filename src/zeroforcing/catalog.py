"""Exhaustive small-graph catalogs used for verification workflows.

`connected_cubic_graphs` builds every connected cubic graph of a given order
by closing three expansion moves over smaller orders, starting from K4:

  * split two distinct edges and join the midpoints        (order + 2)
  * splice a 4-cycle-with-chord block into one edge        (order + 4)
  * split one edge and hang a 5-vertex pendant block on it (order + 6)

No single move is complete on its own, so completeness is enforced the other
way around: members are deduplicated by canonical certificate, which makes
them pairwise non-isomorphic, and the census is checked against the known
counts of connected cubic graphs (1, 2, 5, 19, 85, 509, ... for orders
4, 6, 8, ...).  A count mismatch raises instead of returning a silent
undercount.

Both catalogs list their members in ascending certificate order, each class
represented by the first child that reached it.  So the order follows the
certificate values: a change to `canonical_labelling` that changes them (its
root coloring, say) reorders the catalogs and the `tests/data` fixtures
built from them, and may pick other representatives, but keeps the classes.

`small_graphs` enumerates all graphs up to isomorphism on a given vertex
count by one-vertex extensions, with the same count guard (1, 2, 4, 11, 34,
156, 1044 for 1..7 vertices).
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .graphs import Graph, canonical_certificate

CONNECTED_CUBIC_COUNTS = {4: 1, 6: 2, 8: 5, 10: 19, 12: 85, 14: 509, 16: 4060}
ALL_GRAPH_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}


def _replace_edges(g: Graph, drop, add) -> list:
    keep = [e for e in g.edges if e not in drop]
    return keep + add


def _edge_splits(g: Graph):
    """Subdivide two distinct edges with x, y and join x-y."""
    x, y = g.n, g.n + 1
    for (a, b), (c, d) in itertools.combinations(sorted(g.edges), 2):
        edges = _replace_edges(g, {(a, b), (c, d)},
                               [(a, x), (b, x), (c, y), (d, y), (x, y)])
        yield Graph(g.n + 2, edges)


def _chorded_square_splices(g: Graph):
    """Splice a 4-cycle with one chord (two new inner vertices) into an edge."""
    x, y, w, z = g.n, g.n + 1, g.n + 2, g.n + 3
    for (a, b) in sorted(g.edges):
        edges = _replace_edges(g, {(a, b)},
                               [(a, x), (b, y), (x, w), (x, z),
                                (y, w), (y, z), (w, z)])
        yield Graph(g.n + 4, edges)


def _pendant_block_splits(g: Graph):
    """Subdivide one edge and attach the 5-vertex pendant block to the midpoint."""
    s, a, x, y, w, z = g.n, g.n + 1, g.n + 2, g.n + 3, g.n + 4, g.n + 5
    for (p, q) in sorted(g.edges):
        edges = _replace_edges(g, {(p, q)},
                               [(p, s), (q, s), (s, a), (a, x), (a, y),
                                (x, w), (x, z), (y, w), (y, z), (w, z)])
        yield Graph(g.n + 6, edges)


@lru_cache(maxsize=None)
def connected_cubic_graphs(order: int) -> tuple:
    """Every connected cubic graph of the given order, up to isomorphism.

    Raises if the census disagrees with the known count for that order.
    Deterministic output.
    """
    if order < 4 or order % 2:
        return ()
    if order == 4:
        return (Graph(4, itertools.combinations(range(4), 2)),)
    seen = {}
    sources = ((order - 2, _edge_splits),
               (order - 4, _chorded_square_splices),
               (order - 6, _pendant_block_splits))
    for parent_order, expand in sources:
        for parent in connected_cubic_graphs(parent_order):
            for child in expand(parent):
                cert = canonical_certificate(child)
                if cert not in seen:
                    seen[cert] = child
    members = tuple(seen[c] for c in sorted(seen))
    expected = CONNECTED_CUBIC_COUNTS.get(order)
    if expected is not None and len(members) != expected:
        raise RuntimeError(f"cubic census mismatch at order {order}: "
                           f"built {len(members)}, expected {expected}")
    return members


@lru_cache(maxsize=None)
def small_graphs(n: int) -> tuple:
    """All graphs on exactly n vertices up to isomorphism (n <= 7 guarded).

    Built by adding one vertex with every possible neighborhood to each
    smaller graph, then deduplicating by certificate.
    """
    if n < 1:
        return ()
    if n == 1:
        return (Graph(1),)
    seen = {}
    for g in small_graphs(n - 1):
        base = list(g.edges)
        for nbrs in range(1 << g.n):
            extra = [(v, g.n) for v in range(g.n) if (nbrs >> v) & 1]
            child = Graph(g.n + 1, base + extra)
            cert = canonical_certificate(child)
            if cert not in seen:
                seen[cert] = child
    members = tuple(seen[c] for c in sorted(seen))
    expected = ALL_GRAPH_COUNTS.get(n)
    if expected is not None and len(members) != expected:
        raise RuntimeError(f"graph census mismatch at n={n}: "
                           f"built {len(members)}, expected {expected}")
    return members
