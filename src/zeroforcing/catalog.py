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
counts of connected cubic graphs (1, 2, 5, 19, 85, 509, ... for orders
4, 6, 8, ...).  A count mismatch raises instead of returning a silent
undercount.

The catalog lists its members in ascending certificate order, each class
represented by the first child that reached it, with children made row by
row and parent edges taken in sorted order.  So the order follows the
certificate values: a change to `canonical_labelling` that changes them (its
root coloring, say) reorders the catalog and the `tests/data` fixtures built
from it, and may pick other representatives, but keeps the classes.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .graphs import Graph, canonical_certificate

CONNECTED_CUBIC_COUNTS = {4: 1, 6: 2, 8: 5, 10: 19, 12: 85, 14: 509, 16: 4060}

# (new vertices, edges replaced, gadget edges), in the order children are made
MOVES = (
    (2, 2, (("a", 0), ("b", 0), ("c", 1), ("d", 1), (0, 1))),
    (4, 1, (("a", 0), ("b", 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))),
    (6, 1, (("a", 0), ("b", 0), (0, 1), (1, 2), (1, 3), (2, 4), (2, 5),
            (3, 4), (3, 5), (4, 5))),
)


def _children(g: Graph, new: int, picks: int, gadget):
    """Each way to replace `picks` edges of g by the gadget, the edges taken
    by `itertools.combinations` over `sorted(g.edges)`."""
    n = g.n
    inner = [(n + u, n + v) for u, v in gadget if isinstance(u, int)]
    hooks = [("abcd".index(u), n + v) for u, v in gadget if isinstance(u, str)]
    for pick in itertools.combinations(sorted(g.edges), picks):
        ends = sum(pick, ())
        yield Graph(n + new, [e for e in g.edges if e not in pick] + inner
                    + [(ends[i], x) for i, x in hooks])


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
    for new, picks, gadget in MOVES:
        for parent in connected_cubic_graphs(order - new):
            for child in _children(parent, new, picks, gadget):
                seen.setdefault(canonical_certificate(child), child)
    members = tuple(seen[c] for c in sorted(seen))
    expected = CONNECTED_CUBIC_COUNTS.get(order)
    if expected is not None and len(members) != expected:
        raise RuntimeError(f"cubic census mismatch at order {order}: "
                           f"built {len(members)}, expected {expected}")
    return members
