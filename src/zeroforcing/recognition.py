"""Decides whether a connected cubic graph has zero forcing number 3.

Membership in the assembled block family characterizes these graphs, and a
member is an apex joined to a chain of ladder blocks, so recognition reads
the chain off the graph.  Edge connectivity 0 (disconnected) raises, 1 or 2
rejects; the exact solver runs next, and Z != 3 rejects without a walk.  A
graph with Z = 3 is walked from every apex x and every order (a0, b0, third)
of x's neighbours with a0 ~ b0.  At the rung a_i b_i the walk closes the
block as T_i when the third attachment is adjacent to both ends and no
vertex is left unused; it closes it as M_i when a_i's free neighbour c1 is
adjacent to the third attachment c2, and then b_i, c1 and c2 each send their
one unused edge to the next block's attachment, under each junction
permutation; and it takes a rail step to the unused neighbours a' of a_i and
b' of b_i when a' ~ b'.  Every complete parse lists the input's vertices in
`build_family`'s label order for its spec.  The least spec in assembly order
is reported, the first assembly isomorphic to the input, which is the spec
`family_members` keeps for its class, and its mapping is checked edge by
edge against that assembly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .families import FamilySpec, build_family
from .forcing import zero_forcing_number
from .graphs import Graph, _mask_vertices, edge_connectivity

# white vertex j joins attachment vertex perm[j]; the k-th order of the
# white vertices that `itertools.permutations` yields is the attachment
# under the k-th junction here, the inverse of the k-th permutation
_JUNCTIONS = [tuple(q.index(j) for j in range(3))
              for q in itertools.permutations(range(3))]


@dataclass(frozen=True)
class RecognitionResult:
    """Verdict with a checkable certificate.

    Members carry the assembly recipe plus a vertex mapping from the
    assembled graph onto the input.  Non-members carry either the failed
    edge-connectivity value or the computed zero forcing number.
    """

    member: bool
    spec: FamilySpec | None = None
    mapping: tuple | None = None
    edge_connectivity: int | None = None
    z: int | None = None


def _least_parse(g: Graph) -> tuple:
    """(key, mapping) of the least parse of a cubic g as an apex joined to a
    block chain; the mapping is None when g has no parse.  The key (M count,
    T index, M indices, matchings) orders specs as
    `assemblies(block_sequences(n))` does, and the mapping lists g's
    vertices in `build_family`'s label order: rung i of a block at offset o
    is o + 2i, o + 2i + 1, then the cap or c1, c2, and the apex comes last.
    Of the parses with the least key, the first one found is kept.  The
    least key a block can reach closes it as T with every vertex left, so
    a block is walked only when that key is less than the least one found;
    each block walks its rails before it tries its M closes."""
    bits = g.bits
    labels, best = [], [((g.n, 0), None)]

    def walk(a, b, third, unused, ms, perms):
        # labels ends with the block's first rung (a, b); `unused` holds
        # the vertices not yet labelled
        t = len(ms)
        if (t, unused.bit_count() // 2, ms, perms) >= best[0][0]:
            return
        base, closes = len(labels) - 2, []
        for i in itertools.count():
            if not unused:
                if bits[third] >> a & bits[third] >> b & 1:
                    best[0] = (t, i, ms, perms), (*labels, third, x)
                break
            free_a, free_b = bits[a] & unused, bits[b] & unused
            c1 = free_a.bit_length() - 1
            if free_a and bits[c1] >> third & 1:
                closes.append((i, c1, free_b, unused ^ free_a))
            a, b = c1, free_b.bit_length() - 1
            if not (free_a and free_b and bits[a] >> b & 1):
                break
            unused ^= free_a | free_b
            labels.extend((a, b))
        for i, c1, free_b, unused in closes:
            white = (free_b & unused, bits[c1] & unused, bits[third] & unused)
            reach = white[0] | white[1] | white[2]
            if reach.bit_count() != 3:
                continue
            del labels[base + 2 * i + 2:]
            labels.extend((c1, third))
            white = [w.bit_length() - 1 for w in white]
            for perm, (a2, b2, third2) in zip(_JUNCTIONS,
                                              itertools.permutations(white)):
                if bits[a2] >> b2 & 1:
                    labels.extend((a2, b2))
                    walk(a2, b2, third2, unused ^ reach,
                         ms + (i,), perms + (perm,))
                    del labels[-2:]
        del labels[base + 2:]

    full = (1 << g.n) - 1
    for x in range(g.n):
        for a0 in _mask_vertices(bits[x]):
            for b0 in _mask_vertices(bits[x] & bits[a0]):
                third = bits[x] ^ (1 << a0 | 1 << b0)
                labels[:] = (a0, b0)
                walk(a0, b0, third.bit_length() - 1,
                     full ^ (1 << x | bits[x]), (), ())
    return best[0]


def recognize_z3(g: Graph) -> RecognitionResult:
    """Classify a connected cubic graph by whether its zero forcing number is 3."""
    if not g.is_cubic():
        raise ValueError("recognition is defined for cubic graphs")
    kappa = edge_connectivity(g)
    if not kappa:
        raise ValueError("recognition is defined for connected graphs")
    if kappa < 3:
        return RecognitionResult(member=False, edge_connectivity=kappa)
    z = zero_forcing_number(g).z
    if z != 3:
        return RecognitionResult(member=False, z=z)
    key, mapping = _least_parse(g)
    if mapping is None:
        raise AssertionError(f"Z = 3 and edge connectivity {kappa}, but no "
                             f"family member of order {g.n} is isomorphic to "
                             "the graph: this would refute the characterization")
    _, m, ms, perms = key
    spec = FamilySpec(blocks=tuple(("M", i) for i in ms) + (("T", m),),
                      matchings=perms)
    member = build_family(spec)
    if len(set(mapping)) != g.n or not all(
            g.has_edge(mapping[u], mapping[v]) for u, v in member.edges):
        raise AssertionError(f"the parse as {spec.label()} does not map its "
                             "assembly onto the graph")
    return RecognitionResult(member=True, spec=spec, mapping=mapping)
