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
automorphisms map onto each other, only the first is built.  The picks are
walked in `itertools.combinations` order, and each one not yet seen is
built and its orbit closed under the automorphisms and marked seen, so the
one built is the least of its orbit.  Each member keeps the automorphisms
`canonical_labelling` returned for it, so pruning costs no extra search.
It rests on one condition, which every row of `MOVES` meets: the gadget
edges are invariant, up to a relabelling of the new vertices, under
swapping "a" with "b", "c" with "d", and the pair ("a", "b") with
("c", "d").  Then picks in one orbit give isomorphic children, in whichever
order or direction the automorphism carries the replaced edges.  Any set of
true automorphisms keeps the census exact; one that generates less than the
whole group only prunes less.

Most children the pruning keeps still repeat a class that another child
reaches, so each child is checked before it is labelled, after the canonical
construction path of McKay (Isomorph-free exhaustive generation, J.
Algorithms 1998).  A child is first made as masks and an edge list, the
parent's with the picked edges toggled off and the gadget's added, and
becomes a `Graph` only if it is labelled.  An edge xy is reducible when
deleting it and suppressing x and y leaves a simple connected cubic graph,
which undoes the first move.  Its key (`_edge_key`, read from the child's
masks and `distance_profiles`) compares, in turn, the sorted pair of its
ends' profiles; the sorted pair of (profile, sorted profiles of its
neighbours) over its ends; and how many vertices lie at each distance from
xy.  Isomorphisms preserve each part, and so the key.  A first-row child is
skipped when a reducible edge has a greater key than the edge joining its
new vertices; the later parts are computed only for the edges tied with the
joining edge on the first, and a tied edge is searched for reducibility
only once its key beats the joining edge's.  The search is the filter's
costly test, and most tied keys lose.  A child of another row is skipped
when it has any reducible edge.  Every class the moves reach keeps a
child.  Take a member G with a reducible edge, and e* one of greatest key:
G / e* is a connected cubic graph of order n - 2, isomorphic to a census
member P.  Splitting the two edges of P that e*'s suppressed vertices left
gives G back, and the first pick of that pick's orbit builds a child
isomorphic to G by a map that takes its joining edge onto e*.  No reducible
edge beats that key, so the child is kept.  A class with no reducible edge
has no first-row child, since a joining edge is always reducible, and the
filter skips none of its other children.  The argument holds for any
isomorphism-invariant key; a finer one only leaves fewer ties, and so
fewer kept children of one class.  A first-row child's profiles also seed
its labelling, which would otherwise compute them again.

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
from typing import NamedTuple

from .graphs import (Graph, _layers, _mask_vertices, canonical_labelling,
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


class _Child(NamedTuple):
    """A child before it is labelled: its order, its neighbour masks and its
    edges, each once as (u, v) with u < v, which are the fields of the
    `Graph` it becomes; `_reducible` and `distance_profiles` read nothing
    else."""
    n: int
    bits: list
    edges: list


def _children(g: Graph, automorphisms, new: int, picks: int, gadget):
    """Each `_Child` that replaces `picks` edges of g by the gadget, the edges
    taken by `itertools.combinations` over `sorted(g.edges)`, except that
    only the first pick of each orbit under `automorphisms` is built."""
    n = g.n
    inner = [(n + u, n + v) for u, v in gadget if isinstance(u, int)]
    hooks = [("abcd".index(u), n + v) for u, v in gadget if isinstance(u, str)]
    edges = sorted(g.edges)
    at = {e: i for i, e in enumerate(edges)}
    images = [[at[(p[u], p[v]) if p[u] < p[v] else (p[v], p[u])]
               for u, v in edges] for p in automorphisms]
    seen = set()
    for combo in itertools.combinations(range(len(edges)), picks):
        if combo in seen:
            continue
        seen.add(combo)     # the least pick of its orbit: mark the rest
        stack = [combo]
        while stack:
            c = stack.pop()
            for image in images:
                d = tuple(sorted([image[k] for k in c]))
                if d not in seen:
                    seen.add(d)
                    stack.append(d)
        pick = [edges[k] for k in combo]
        ends = sum(pick, ())
        added = inner + [(ends[h], x) for h, x in hooks]
        bits = list(g.bits) + [0] * new
        for u, v in pick + added:   # toggles: no added edge was picked
            bits[u] ^= 1 << v
            bits[v] ^= 1 << u
        kept = [e for e in edges if e not in pick]
        yield _Child(n + new, bits, kept + added)


def _reducible(g, x: int, y: int) -> bool:
    """True when deleting the edge xy of the connected cubic graph g (a
    `Graph` or a `_Child`) and suppressing x and y leaves a simple connected
    cubic graph: the inverse of the first row of `MOVES`."""
    bits = g.bits
    a, b = bits[x] ^ 1 << y, bits[y] ^ 1 << x    # the ends of the new edges
    if a == b or any(bits[m.bit_length() - 1] & m for m in (a, b)):
        return False    # a new edge would double one
    cut = list(bits)
    cut[x], cut[y] = a, b
    # suppressing keeps connectivity, so only a bridge xy disconnects
    return any(layer >> y & 1 for layer in _layers(cut, 1 << x))


def _pair(a, b):
    return (a, b) if a <= b else (b, a)


def _edge_key(g, profiles, x: int, y: int) -> tuple:
    """The key of the edge xy of g (a `Graph` or a `_Child`) that the filter
    compares, given g's `distance_profiles`: the sorted pair of its ends'
    profiles; then the sorted pair of (profile, sorted profiles of its
    neighbours) over its ends; then how many vertices lie at each distance
    from the edge.  An isomorphism maps each edge to one with the same key."""
    bits = g.bits
    ends = [(profiles[v],
             sorted([profiles[w] for w in _mask_vertices(bits[v])]))
            for v in (x, y)]
    return (_pair(profiles[x], profiles[y]), _pair(*ends),
            [layer.bit_count() for layer in _layers(bits, 1 << x | 1 << y)])


def _made_elsewhere(child: _Child, profiles) -> bool:
    """True when another (parent, pick) is sure to build a child isomorphic
    to this one, which need not be labelled (see the module docstring).
    `profiles` are the child's `distance_profiles` if it comes from the first
    row, whose children are skipped when a reducible edge has a greater
    `_edge_key` than the edge joining the new vertices, and None for the
    other rows, whose children are skipped when any edge is reducible.  An
    edge whose key's first part is greater is searched at once; the later
    parts are computed only for the edges tied on the first, and a tied edge
    is searched only once its key beats the joining edge's."""
    if profiles is None:
        return any(_reducible(child, x, y) for x, y in child.edges)
    x, y = child.n - 2, child.n - 1
    joined = _pair(profiles[x], profiles[y])
    tied = []
    for u, v in child.edges:
        first = _pair(profiles[u], profiles[v])
        if first > joined and _reducible(child, u, v):
            return True
        if first == joined and (u, v) != (x, y):
            tied.append((u, v))
    if not tied:
        return False
    key = _edge_key(child, profiles, x, y)
    return any(_edge_key(child, profiles, u, v) > key
               and _reducible(child, u, v) for u, v in tied)


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
                profiles = None if row else distance_profiles(child)
                if _made_elsewhere(child, profiles):
                    continue
                g = Graph._from_masks(frozenset(child.edges), tuple(child.bits))
                cert, found = canonical_labelling(g, profiles)
                seen.setdefault(cert, (g, found))
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
