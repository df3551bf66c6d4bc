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

Most children the pruning keeps still repeat a class that another child
reaches, so each child is checked before it is labelled, after the canonical
construction path of McKay (Isomorph-free exhaustive generation, J.
Algorithms 1998).  An edge xy is reducible when deleting it and suppressing
x and y leaves a simple connected cubic graph, which undoes the first move.
Its key is the sorted pair of its ends' `distance_profiles`, which
isomorphisms preserve.  A first-row child is skipped when a reducible edge
has a greater key than the edge joining its new vertices; a child of another
row is skipped when it has any reducible edge.  Every class the moves reach
keeps a child.  Take a member G with a reducible edge, and e* one of greatest
key: G / e* is a connected cubic graph of order n - 2, isomorphic to a census
member P.  Splitting the two edges of P that e*'s suppressed vertices left
gives G back, and the first pick of that pick's orbit builds a child
isomorphic to G by a map that takes its joining edge onto e*.  No reducible
edge beats that key, so the child is kept.  A class with no reducible edge
has no first-row child, since a joining edge is always reducible, and the
filter skips none of its other children.

The catalog lists its members in ascending certificate order, each class
represented by the first child labelled for it, with children made row by
row and parent edges taken in sorted order.  The pruning and the filter
decide which child that is, never which classes there are or what their
certificates are.  So the order follows the certificate values: a change to
`canonical_labelling` that changes them (its root coloring, say) reorders
the catalog and the `tests/data` fixtures built from it, and a change to
the pruning or the filter may pick other representatives; neither changes
the classes.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .graphs import (Graph, _find, _layers, _union, canonical_labelling,
                     complete_graph, distance_profiles)

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


def _reducible(g: Graph, x: int, y: int) -> bool:
    """True when deleting the edge xy of the connected cubic graph g and
    suppressing x and y leaves a simple connected cubic graph: the inverse
    of the first row of `MOVES`."""
    bits = g.bits
    a, b = bits[x] ^ 1 << y, bits[y] ^ 1 << x    # the ends of the new edges
    if a == b or any(bits[m.bit_length() - 1] & m for m in (a, b)):
        return False    # a new edge would double one
    cut = list(bits)
    cut[x], cut[y] = a, b
    # suppressing keeps connectivity, so only a bridge xy disconnects
    return any(layer >> y & 1 for layer in _layers(cut, 1 << x))


def _made_elsewhere(g: Graph, first_row: bool) -> bool:
    """True when another (parent, pick) is sure to build a child isomorphic
    to g, which need not be labelled (see the module docstring): g has a
    reducible edge and, if g comes from the first row, one whose key beats
    that of the edge joining the new vertices."""
    if not first_row:
        return any(_reducible(g, x, y) for x, y in g.edges)
    profiles = distance_profiles(g)

    def key(x, y):
        return min(profiles[x], profiles[y]), max(profiles[x], profiles[y])

    joined = key(g.n - 2, g.n - 1)
    return any(key(x, y) > joined and _reducible(g, x, y)
               for x, y in g.edges)


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
    for row, (new, picks, gadget) in enumerate(MOVES):
        for parent, automorphisms in _census(order - new):
            for child in _children(parent, automorphisms, new, picks, gadget):
                if _made_elsewhere(child, row == 0):
                    continue
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
    Orders without a known count (22 and up) are checked by nothing: the
    argument in the module docstring shows that the filter loses no class
    the moves reach, and that the moves reach every class is checked only
    at the orders with a count.  Deterministic output.
    """
    return tuple(g for g, _ in _census(order))
