"""Constructors for every named graph and parameterized family used by the library.

The block builders (`ladder_t`, `ladder_m`) return ColoredGraph values whose
tags drive the `compound` and `apex_k1` assembly operators.  `build_family`
assembles a whole block sequence in one pass and builds the same graph as
that chain of operators; the remaining constructors return plain Graphs.
Vertex labelings are documented on each constructor so drawings can be
cross-checked.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

from .graphs import Graph, canonical_labelling


@dataclass(frozen=True)
class ColoredGraph:
    """A graph with the attachment tags consumed by compound/apex assembly.

    `attachment` (yellow plus degree-1 vertices) is the set that receives
    edges from the left; `white` is the set that sends edges to the right.
    """

    graph: Graph
    yellow: frozenset
    white: frozenset

    def __post_init__(self):
        for v in self.yellow | self.white:
            if not 0 <= v < self.graph.n:
                raise ValueError(f"tagged vertex {v} out of range")

    @property
    def attachment(self) -> frozenset:
        pendant = frozenset(v for v in range(self.graph.n) if self.graph.degree(v) == 1)
        return self.yellow | pendant


def ladder_t(m: int) -> ColoredGraph:
    """Closing block: ladder of m+1 rungs plus a cap vertex on the last rung.

    Labels: rung i has endpoints a_i=2i, b_i=2i+1 for i=0..m; cap=2m+2.
    Yellow: both endpoints of the first rung and the cap.  m=0 degenerates to
    a triangle with all three vertices yellow.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    edges = []
    for i in range(m + 1):
        edges.append((2 * i, 2 * i + 1))
        if i:
            edges.append((2 * (i - 1), 2 * i))
            edges.append((2 * (i - 1) + 1, 2 * i + 1))
    cap = 2 * m + 2
    edges += [(cap, 2 * m), (cap, 2 * m + 1)]
    return ColoredGraph(Graph(2 * m + 3, edges),
                        yellow=frozenset({0, 1, cap}),
                        white=frozenset())


def ladder_m(n: int) -> ColoredGraph:
    """Pass-through block: ladder of n+1 rungs plus a two-vertex tail.

    Labels: rung i has endpoints a_i=2i, b_i=2i+1 for i=0..n; the tail
    c1=2n+2, c2=2n+3 hangs off a_n.  Yellow: first-rung endpoints.  White:
    the tail and the last-rung endpoint opposite it.  n=0 degenerates to the
    4-path b_0, a_0, c1, c2, where b_0 carries both tags.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    edges = []
    for i in range(n + 1):
        edges.append((2 * i, 2 * i + 1))
        if i:
            edges.append((2 * (i - 1), 2 * i))
            edges.append((2 * (i - 1) + 1, 2 * i + 1))
    c1, c2 = 2 * n + 2, 2 * n + 3
    edges += [(2 * n, c1), (c1, c2)]
    return ColoredGraph(Graph(2 * n + 4, edges),
                        yellow=frozenset({0, 1}),
                        white=frozenset({2 * n + 1, c1, c2}))


def compound(g1: ColoredGraph, g2: ColoredGraph, f: dict) -> ColoredGraph:
    """Join g1's white vertices to g2's attachment vertices via the bijection f.

    g2's vertices are relabeled by offset g1.graph.n in the result.  The
    result keeps g1's attachment set (for a later apex) and g2's white set
    (for a later compound); g2's own attachment tags are consumed here.
    """
    a = g1.white
    b = g2.attachment
    if len(a) != len(b):
        raise ValueError(f"cannot match {len(a)} white vertices to "
                         f"{len(b)} attachment vertices")
    if set(f.keys()) != set(a) or set(f.values()) != set(b):
        raise ValueError("f must be a bijection from g1's white set onto "
                         "g2's attachment set")
    off = g1.graph.n
    edges = list(g1.graph.edges)
    edges += [(u + off, v + off) for u, v in g2.graph.edges]
    edges += [(u, f[u] + off) for u in sorted(a)]
    merged = Graph(off + g2.graph.n, edges)
    return ColoredGraph(merged,
                        yellow=g1.attachment,
                        white=frozenset(v + off for v in g2.white))


def apex_k1(g: ColoredGraph) -> Graph:
    """Add one vertex adjacent to every yellow and pendant vertex; tags end here."""
    targets = g.attachment
    if not targets:
        raise ValueError("apex needs a nonempty attachment set")
    apex = g.graph.n
    edges = list(g.graph.edges) + [(apex, v) for v in sorted(targets)]
    return Graph(apex + 1, edges)


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


@lru_cache(maxsize=None)
def _block(kind: str, idx: int) -> tuple:
    """(vertex count, edges, sorted attachment set, sorted white set) of one block."""
    block = _BUILDERS[kind](idx)
    return (block.graph.n, tuple(block.graph.edges),
            tuple(sorted(block.attachment)), tuple(sorted(block.white)))


def build_family(spec: FamilySpec) -> Graph:
    """Assemble the graph a FamilySpec describes, in one pass.

    The result equals apex_k1 of the chain of `compound`s over the blocks:
    each block is shifted past the vertices before it, and junction j joins
    the sorted white set on its left to the sorted attachment set on its
    right by matchings[j].  The chain's apex also takes each vertex still
    pendant after a junction, but a block's pendants lie in its attachment
    set and get junction edges, so only the first block's attachment set is
    left for the apex.
    """
    if not spec.blocks or spec.blocks[-1][0] != "T":
        raise ValueError("block sequence must end with a T block")
    if len(spec.matchings) != len(spec.blocks) - 1:
        raise ValueError("need one matching per junction")
    n, edges, targets, white = _block(*spec.blocks[0])
    edges = list(edges)
    for (kind, idx), perm in zip(spec.blocks[1:], spec.matchings):
        size, block_edges, attachment, block_white = _block(kind, idx)
        if len(white) != len(attachment) or sorted(perm) != list(range(len(white))):
            raise ValueError(f"matching {perm} is no bijection from {len(white)} "
                             f"white to {len(attachment)} attachment vertices")
        edges += [(u + n, v + n) for u, v in block_edges]
        edges += [(u, attachment[i] + n) for u, i in zip(white, perm)]
        white = [v + n for v in block_white]
        n += size
    edges += [(n, v) for v in targets]
    return Graph(n + 1, edges)


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
    order, keeping the assemblies that are cubic and connected."""
    for blocks in sequences:
        for perms in itertools.product(itertools.permutations(range(3)),
                                       repeat=len(blocks) - 1):
            spec = FamilySpec(blocks=blocks, matchings=perms)
            g = build_family(spec)
            if g.is_cubic() and g.is_connected():
                yield spec, g


def _first_of_each_class(pairs) -> dict:
    """certificate -> (spec, graph, canonical order) of the first pair of each
    isomorphism class, in order of first appearance."""
    out = {}
    for spec, g in pairs:
        cert, order = canonical_labelling(g)
        out.setdefault(cert, (spec, g, order))
    return out


def distinct_assemblies(blocks: tuple) -> dict:
    """The distinct members one block sequence assembles into under every
    junction bijection, as certificate -> (spec, graph, canonical order);
    each isomorphism class keeps its first spec."""
    return _first_of_each_class(assemblies([blocks]))


@lru_cache(maxsize=None)
def family_index(order: int) -> MappingProxyType:
    """Every distinct family member of the given order, as certificate ->
    (spec, graph, canonical order), in the order of `assemblies` over
    `block_sequences`; each class keeps its first spec.  The mapping is
    cached, so it is handed out read-only.
    """
    if order < 4:
        raise ValueError("family members have at least 4 vertices")
    return MappingProxyType(_first_of_each_class(assemblies(block_sequences(order))))


def family_members(order: int) -> tuple:
    """The `family_index` members as (spec, graph) pairs, in its order."""
    return tuple(entry[:2] for entry in family_index(order).values())


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
    g = Graph(n, edges)
    by_nbrs = {}
    for v in range(n):
        by_nbrs.setdefault(g.adj[v], []).append(v)
    pairs = sum(1 for vs in by_nbrs.values() if len(vs) == 2)
    if pairs != 2 * beads:
        raise AssertionError(f"expected {2 * beads} twin pairs, found {pairs}")
    return g
