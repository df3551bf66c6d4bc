"""Decides whether a connected cubic graph has zero forcing number 3.

Membership in the assembled block family characterizes these graphs, and a
member is an apex joined to a chain of ladder blocks, so recognition reads
the chain off the graph.  Edge connectivity 0 (disconnected) raises, 1 or 2
rejects; the exact solver runs next, and Z != 3 rejects without a walk.  A
graph with Z = 3 is walked from every apex x and every pair a0 < b0 of x's
neighbours with a0 ~ b0, in both orders (a0, b0) and (b0, a0) at once: the
two orders take the same rail steps, to the unused neighbours a' of a_i and
b' of b_i when a' ~ b'.  At the rung a_i b_i the walk closes the block as
T_i when no vertex is left unused: on a cubic graph the third attachment is
then adjacent to both ends.  It closes it as M_i in the order (a, b) when
a_i's free neighbour c1 is adjacent to the third attachment c2, and in the
order (b, a) when b_i's free neighbour is; then the other end, c1 and c2
each send their one unused edge to the next block's attachment, and each
adjacent pair of those three is the next block's first rung, walked in both
orders under the two junction permutations that put it there, the lesser
one leading to the order (a, b).  Every complete parse lists the input's
vertices in `build_family`'s label order for its spec.  The least spec in
assembly order is reported, the first assembly isomorphic to the input,
which is the spec `family_members` keeps for its class, and its mapping is
checked edge by edge against that assembly's edge list.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .families import FamilySpec, _assemble
from .forcing import zero_forcing_number
from .graphs import Graph, _mask_vertices, edge_connectivity

# white vertex j joins attachment vertex perm[j]: under the junction that
# inverts the order q, the next block's first rung is (white[q[0]],
# white[q[1]]) and its third attachment white[q[2]].  One row per unordered
# first rung: (q[0], q[1], q[2], the junction, the junction with the rung
# swapped)
_JUNCTIONS = {q: tuple(q.index(j) for j in range(3))
              for q in itertools.permutations(range(3))}
_RUNGS = [(i, j, k, _JUNCTIONS[i, j, k], _JUNCTIONS[j, i, k])
          for i, j, k in _JUNCTIONS if i < j]


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
    A block's two orders, from (a, b) and from (b, a), follow the same rails
    and are walked together, each with its own matchings; they differ only
    in the end an M block closes on and in the junction that led to them.
    Of the parses with the least key, the first one found is kept.  Two
    facts keep one key per block.  Every `_RUNGS` junction is less than its
    swapped one and a first block starts both orders at (), so the matchings
    pq of (a, b) are never above those qp of (b, a): a block is walked only
    while its least reachable key with pq, a T close with every vertex
    left, is less than the least one found, and a T close keeps pq, the
    order (a0, b0) with a0 < b0 at a first block, so ties go as they would
    over the ordered starts taken in increasing order; an M close of (b, a)
    that cannot win leads only to blocks with one more M, which stop at
    once.  And a T close needs no adjacency test: every labelled vertex but
    a, b and third then has its three edges in the parse, so on a cubic g
    the free edge-ends of a, b and third (one, one, two) pair among
    themselves, and as a ~ b is a rung, third ~ a and third ~ b.  Each block
    walks its rails before it tries its M closes, the one of (a, b) first."""
    bits = g.bits
    labels, best = [], [((g.n, 0), None)]

    def flip(lo, hi):
        # labels[lo:hi] holds whole rungs; swap the ends of each
        labels[lo:hi:2], labels[lo + 1:hi:2] = \
            labels[lo + 1:hi:2], labels[lo:hi:2]

    def walk(a, b, third, unused, ms, pq, qp):
        # labels ends with the block's first rung (a, b); `unused` holds
        # the vertices not yet labelled; pq <= qp are the matchings of the
        # orders (a, b) and (b, a)
        t = len(ms)
        if (t, unused.bit_count() // 2, ms, pq) >= best[0][0]:
            return
        base, closes = len(labels) - 2, []
        for i in itertools.count():
            if not unused:
                best[0] = (t, i, ms, pq), (*labels, third, x)
                break
            free_a, free_b = bits[a] & unused, bits[b] & unused
            if not (free_a and free_b):
                break
            a, b = free_a.bit_length() - 1, free_b.bit_length() - 1
            # an M close of either order: the free neighbour c1 of its first
            # end ~ third; kept with the other end's free neighbour
            if bits[a] >> third & 1:
                closes.append((i, a, free_b, unused ^ free_a, pq, False))
            if bits[b] >> third & 1:
                closes.append((i, b, free_a, unused ^ free_b, qp, True))
            if not bits[a] >> b & 1:
                break
            unused ^= free_a | free_b
            labels.extend((a, b))
        for i, c1, far, unused, head, swap in closes:
            white = (far & unused, bits[c1] & unused, bits[third] & unused)
            reach = white[0] | white[1] | white[2]
            if reach.bit_count() != 3:
                continue
            end = base + 2 * i + 2
            del labels[end:]
            if swap:
                flip(base, end)
            labels.extend((c1, third))
            white = [w.bit_length() - 1 for w in white]
            for first, second, k, perm, swapped in _RUNGS:
                a2, b2 = white[first], white[second]
                if bits[a2] >> b2 & 1:
                    labels.extend((a2, b2))
                    walk(a2, b2, white[k], unused ^ reach, ms + (i,),
                         head + (perm,), head + (swapped,))
                    del labels[-2:]
            if swap:
                flip(base, end)
        del labels[base + 2:]

    full = (1 << g.n) - 1
    for x in range(g.n):
        for a0 in _mask_vertices(bits[x]):
            for b0 in _mask_vertices(bits[x] & bits[a0] & -(2 << a0)):
                third = bits[x] ^ (1 << a0 | 1 << b0)
                labels[:] = (a0, b0)
                walk(a0, b0, third.bit_length() - 1,
                     full ^ (1 << x | bits[x]), (), (), ())
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
    n, edges = _assemble(spec)
    bits = g.bits
    if len(mapping) != n or len(set(mapping)) != g.n or not all(
            bits[mapping[u]] >> mapping[v] & 1 for u, v in edges):
        raise AssertionError(f"the parse as {spec.label()} does not map its "
                             "assembly onto the graph")
    return RecognitionResult(member=True, spec=spec, mapping=mapping)
