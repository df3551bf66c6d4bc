"""The census of connected cubic graphs, used for verification workflows.

`connected_cubic_graphs` builds every connected cubic graph of a given order
by closing three expansion moves over smaller orders, starting from K4.  Each
row of `MOVES` is one move: the new vertices, the parent edges it replaces,
and the gadget edges it adds, where "a", "b" (and "c", "d") name the ends of
the replaced edges and integers name the new vertices.

  * split two distinct edges and join the midpoints        (order + 2)
  * splice a 4-cycle-with-chord block into one edge        (order + 4)
  * split one edge and hang a 5-vertex pendant block on it (order + 6)

No single move is complete on its own, so completeness is enforced the other
way around: members are deduplicated by canonical certificate, which makes
them pairwise non-isomorphic, and the census is checked against the known
counts of connected cubic graphs (OEIS A002851: 1, 2, 5, 19, 85, 509, ...
for orders 4, 6, 8, ..., through order 20).  A count mismatch raises instead
of returning a silent undercount.

A pick is the set of parent edges one child replaces.  Picks are pruned by
the parent's automorphisms (the orbit pruning of Brinkmann, Goedgebeur &
McKay, Generation of cubic graphs, DMTCS 2011): of the picks that
automorphisms map onto each other, only the first is built.  Each member
keeps the automorphisms `canonical_labelling` returned for it, so pruning
costs no extra search.  It rests on one condition, which every row of
`MOVES` meets: the gadget edges are invariant, up to a relabelling of the
new vertices, under swapping "a" with "b", "c" with "d", and the pair
("a", "b") with ("c", "d").  Then picks in one orbit give isomorphic
children, in whichever order or direction the automorphism carries the
replaced edges.  Any set of true automorphisms keeps the census exact; one
that generates less than the whole group only prunes less.

The catalog lists its members in ascending certificate order, each class
represented by the first child that reached it, with children made row by
row and parent edges taken in sorted order.  The pruning keeps those
representatives: the first child to reach a class is the first pick of its
orbit, since any earlier pick of that orbit would have reached the class
before it.  So the order follows the certificate values: a change to
`canonical_labelling` that changes them (its root coloring, say) reorders
the catalog and the `tests/data` fixtures built from it, and may pick other
representatives, but keeps the classes.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .graphs import Graph, _find, _union, canonical_labelling, complete_graph

CONNECTED_CUBIC_COUNTS = {4: 1, 6: 2, 8: 5, 10: 19, 12: 85, 14: 509, 16: 4060,
                          18: 41301, 20: 510489}

# (new vertices, edges replaced, gadget edges), in the order children are made
MOVES = (
    (2, 2, (("a", 0), ("b", 0), ("c", 1), ("d", 1), (0, 1))),
    (4, 1, (("a", 0), ("b", 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))),
    (6, 1, (("a", 0), ("b", 0), (0, 1), (1, 2), (1, 3), (2, 4), (2, 5),
            (3, 4), (3, 5), (4, 5))),
)


def _children(g: Graph, automorphisms, new: int, picks: int, gadget):
    """Each way to replace `picks` edges of g by the gadget, the edges taken
    by `itertools.combinations` over `sorted(g.edges)`, except that only the
    first pick of each orbit under `automorphisms` is built."""
    n = g.n
    inner = [(n + u, n + v) for u, v in gadget if isinstance(u, int)]
    hooks = [("abcd".index(u), n + v) for u, v in gadget if isinstance(u, str)]
    edges = sorted(g.edges)
    combos = list(itertools.combinations(range(len(edges)), picks))
    orbit = list(range(len(combos)))    # union-find over the picks
    if automorphisms:
        at = {e: i for i, e in enumerate(edges)}
        index = {c: i for i, c in enumerate(combos)}
        for p in automorphisms:
            image = [at[(p[u], p[v]) if p[u] < p[v] else (p[v], p[u])]
                     for u, v in edges]
            for i, c in enumerate(combos):
                _union(orbit, i, index[tuple(sorted([image[k] for k in c]))])
    for i, c in enumerate(combos):
        if _find(orbit, i) == i:
            pick = [edges[k] for k in c]
            ends = sum(pick, ())
            yield Graph(n + new, [e for e in g.edges if e not in pick] + inner
                        + [(ends[h], x) for h, x in hooks])


@lru_cache(maxsize=None)
def _census(order: int) -> tuple:
    """(member, automorphisms) for each connected cubic graph of the order,
    in certificate order, with the automorphisms its labelling found."""
    if order < 4 or order % 2:
        return ()
    if order == 4:
        k4 = complete_graph(4)
        return ((k4, canonical_labelling(k4)[1]),)
    seen = {}
    for new, picks, gadget in MOVES:
        for parent, automorphisms in _census(order - new):
            for child in _children(parent, automorphisms, new, picks, gadget):
                cert, found = canonical_labelling(child)
                seen.setdefault(cert, (child, found))
    members = tuple(seen[c] for c in sorted(seen))
    expected = CONNECTED_CUBIC_COUNTS.get(order)
    if expected is not None and len(members) != expected:
        raise RuntimeError(f"cubic census mismatch at order {order}: "
                           f"built {len(members)}, expected {expected}")
    return members


def connected_cubic_graphs(order: int) -> tuple:
    """Every connected cubic graph of the given order, up to isomorphism.

    Raises if the census disagrees with the known count for that order.
    Deterministic output.
    """
    return tuple(g for g, _ in _census(order))
