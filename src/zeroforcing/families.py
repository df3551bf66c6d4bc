"""Constructors for every named graph and parameterized family used by the library.

The ladder blocks (`ladder_t`, `ladder_m`) are data: a graph with its sorted
attachment set, which receives edges from the left, and its sorted white set,
which sends edges to the right.  `build_family` joins a block sequence at its
junctions and closes it with an apex K1; the remaining constructors return
plain Graphs.  Vertex labelings are documented on each constructor so
drawings can be cross-checked.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .graphs import Graph, canonical_labelling


def _ladder_edges(rungs: int) -> list:
    """Rung i joins a_i = 2i to b_i = 2i+1; rails join a_i to a_i+1, b_i to b_i+1."""
    return ([(2 * i, 2 * i + 1) for i in range(rungs)]
            + [(v, v + 2) for v in range(2 * rungs - 2)])


@lru_cache(maxsize=None)
def ladder_t(m: int) -> tuple:
    """Closing block: ladder of m+1 rungs plus a cap vertex on the last rung.

    Labels: rung i has endpoints a_i=2i, b_i=2i+1 for i=0..m; cap=2m+2.
    Returns (graph, attachment, white) = (graph, (0, 1, 2m+2), ()): the
    yellow vertices are both endpoints of the first rung and the cap, and
    none is pendant.  m=0 degenerates to a triangle.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    cap = 2 * m + 2
    edges = _ladder_edges(m + 1) + [(cap, 2 * m), (cap, 2 * m + 1)]
    return Graph(2 * m + 3, edges), (0, 1, cap), ()


@lru_cache(maxsize=None)
def ladder_m(n: int) -> tuple:
    """Pass-through block: ladder of n+1 rungs plus a two-vertex tail.

    Labels: rung i has endpoints a_i=2i, b_i=2i+1 for i=0..n; the tail
    c1=2n+2, c2=2n+3 hangs off a_n.  Returns (graph, attachment, white) =
    (graph, (0, 1, 2n+3), (2n+1, 2n+2, 2n+3)): the yellow first-rung
    endpoints plus the pendant c2 attach, and the tail and the last-rung
    endpoint opposite it are white.  n=0 degenerates to the 4-path b_0, a_0,
    c1, c2, where b_0 is both pendant and white.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    c1, c2 = 2 * n + 2, 2 * n + 3
    edges = _ladder_edges(n + 1) + [(2 * n, c1), (c1, c2)]
    return Graph(2 * n + 4, edges), (0, 1, c2), (2 * n + 1, c1, c2)


@dataclass(frozen=True)
class FamilySpec:
    """Recipe for one assembled family member.

    `blocks` is the left-to-right block sequence, e.g. (("M", 1), ("T", 0));
    `matchings` holds one permutation per junction, applied between the
    sorted white set on the left and the sorted attachment set on the right.
    """

    blocks: tuple
    matchings: tuple

    def label(self) -> str:
        return "apex(" + ",".join(f"{k}{i}" for k, i in self.blocks) + ")"


_BUILDERS = {"M": ladder_m, "T": ladder_t}


def build_family(spec: FamilySpec) -> Graph:
    """Assemble the graph a FamilySpec describes.

    Each block is shifted past the vertices before it, and junction j joins
    the sorted white set on its left to the sorted attachment set on its
    right by matchings[j].  The apex joins the first block's attachment
    set: every later block's attachment set, pendants included, is used up
    by its junction.
    """
    return Graph(*_assemble(spec))


def _assemble(spec: FamilySpec) -> tuple:
    """(order, edge list) of `build_family(spec)`, without the `Graph`."""
    if not spec.blocks or spec.blocks[-1][0] != "T":
        raise ValueError("block sequence must end with a T block")
    if len(spec.matchings) != len(spec.blocks) - 1:
        raise ValueError("need one matching per junction")
    parts = []
    for kind, idx in spec.blocks:
        if kind not in _BUILDERS or type(idx) is not int or idx < 0:
            raise ValueError(f"unknown block {kind!r}, {idx!r}: expected "
                             "'M' or 'T' with a non-negative integer index")
        parts.append(_BUILDERS[kind](idx))
    first, targets, white = parts[0]
    n, edges = first.n, list(first.edges)
    for (block, attachment, block_white), perm in zip(parts[1:], spec.matchings):
        if len(white) != len(attachment) or sorted(perm) != list(range(len(white))):
            raise ValueError(f"matching {perm} is no bijection from {len(white)} "
                             f"white to {len(attachment)} attachment vertices")
        edges += [(u + n, v + n) for u, v in block.edges]
        edges += [(u, attachment[i] + n) for u, i in zip(white, perm)]
        white = [v + n for v in block_white]
        n += block.n
    edges += [(n, v) for v in targets]
    return n + 1, edges


def block_sequences(order: int):
    """Every block sequence whose assemblies have the given order, in index order."""
    # order = 1 (apex) + sum over M blocks (2n_i + 4) + (2m + 3)
    budget = order - 4
    for t in range(budget // 4 + 1):
        rest = budget - 4 * t
        if rest % 2:
            continue
        for m in range(rest // 2 + 1):
            tail = rest // 2 - m
            for seq in itertools.product(range(tail + 1), repeat=t):
                if sum(seq) == tail:
                    yield tuple([("M", ni) for ni in seq] + [("T", m)])


def assemblies(sequences):
    """(spec, graph) for every junction bijection of each block sequence, in
    order.  Every assembly is cubic and connected by construction."""
    for blocks in sequences:
        for perms in itertools.product(itertools.permutations(range(3)),
                                       repeat=len(blocks) - 1):
            spec = FamilySpec(blocks=blocks, matchings=perms)
            yield spec, build_family(spec)


def _one_per_class(pairs) -> tuple:
    """The first (spec, graph) pair of each isomorphism class, in order."""
    first = {}
    for spec, g in pairs:
        first.setdefault(canonical_labelling(g)[0], (spec, g))
    return tuple(first.values())


def distinct_assemblies(blocks: tuple) -> tuple:
    """The distinct members one block sequence assembles into under every
    junction bijection, as (spec, graph) pairs; each class keeps its first spec."""
    return _one_per_class(assemblies([blocks]))


@lru_cache(maxsize=None)
def family_members(order: int) -> tuple:
    """Every distinct family member of the given order, as (spec, graph)
    pairs in the order of `assemblies` over `block_sequences`; each
    isomorphism class keeps its first spec."""
    if order < 4:
        raise ValueError("family members have at least 4 vertices")
    return _one_per_class(assemblies(block_sequences(order)))


def permutation_prism(n: int, sigma: tuple | None = None) -> Graph:
    """Two disjoint n-cycles with spokes u_k to v_sigma(k).

    Labels: outer cycle u_1..u_n are 0..n-1, inner cycle v_1..v_n are
    n..2n-1.  `sigma` is None for the identity or a 1-based transposition
    (i, j).
    """
    if n < 4:
        raise ValueError("prism needs n >= 4")
    perm = list(range(n))
    if sigma is not None:
        i, j = sigma
        if not (1 <= i <= n and 1 <= j <= n and i != j):
            raise ValueError(f"({i} {j}) is not a transposition on 1..{n}")
        perm[i - 1], perm[j - 1] = perm[j - 1], perm[i - 1]
    edges = []
    for k in range(n):
        edges.append((k, (k + 1) % n))
        edges.append((n + k, n + (k + 1) % n))
        edges.append((k, n + perm[k]))
    return Graph(2 * n, edges)


def heawood_graph() -> Graph:
    """Point-block incidence graph of the Fano plane: cubic, bipartite, girth 6.

    Points 1..7 are vertices 0..6; blocks are the cyclic shifts of {1,2,4}
    mod 7, as vertices 7..13 (shift j at vertex 7+j).
    """
    blocks = [frozenset(((1 + j) % 7, (2 + j) % 7, (4 + j) % 7)) for j in range(7)]
    edges = [(p, 7 + j) for p in range(7) for j in range(7) if p in blocks[j]]
    return Graph(14, edges)


def counterexample16() -> Graph:
    """The 16-vertex cubic graph with zero forcing number 8.

    A root (0) with three branch vertices (1, 2, 3); each branch vertex hangs
    onto two middle vertices joined to a 4-cycle-with-chord block.
    """
    one_based = [(1, 2), (1, 3), (1, 4), (5, 2), (6, 2), (7, 3), (8, 3), (9, 4),
                 (10, 4), (11, 5), (12, 5), (12, 11), (7, 13), (7, 14), (13, 14),
                 (6, 11), (6, 12), (9, 15), (9, 16), (15, 16), (15, 10), (16, 10),
                 (8, 14), (8, 13)]
    return Graph(16, [(u - 1, v - 1) for u, v in one_based])


def necklace(beads: int) -> Graph:
    """Cyclic chain of 6-vertex beads, each holding two twin pairs.

    Bead i occupies vertices 6i..6i+5: entry, first pair, second pair, exit,
    with the entry joined to the first pair, the pairs fully joined, the exit
    joined to the second pair, and each exit joined to the next bead's entry.
    """
    if beads < 2:
        raise ValueError("necklace needs at least 2 beads")
    n = 6 * beads
    edges = []
    for i in range(beads):
        o = 6 * i
        entry, p1, p2, p3, p4, exit_ = o, o + 1, o + 2, o + 3, o + 4, o + 5
        edges += [(entry, p1), (entry, p2),
                  (p1, p3), (p1, p4), (p2, p3), (p2, p4),
                  (p3, exit_), (p4, exit_),
                  (exit_, (o + 6) % n)]
    return Graph(n, edges)
