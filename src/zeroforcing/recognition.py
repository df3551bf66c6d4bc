"""Decides whether a connected cubic graph has zero forcing number 3.

Membership in the assembled block family characterizes these graphs, and a
member is reported with the first assembly isomorphic to it, the spec
`family_members` keeps for its class.  Recognition builds only what a query
needs.  Graphs with edge connectivity below 3 are rejected first; the exact
solver runs next, and Z != 3 rejects without any labelling.  A graph with
Z = 3 is labelled and looked up in an index of the assemblies of its order
(cached per order), bucketed by the sorted multiset of distance profiles:
isomorphic graphs share the multiset, so the first assembly isomorphic to
the input lies in its bucket.  Each bucket's first assembly is labelled when
the index is built, the rest in assembly order when a query reaches them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .families import FamilySpec, assemblies, block_sequences, build_family
from .forcing import zero_forcing_number
from .graphs import (Graph, _labelling, canonical_labelling, distance_profiles,
                     edge_connectivity)


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

    @property
    def reason(self) -> str:
        if self.member:
            return f"member {self.spec.label()}"
        if self.edge_connectivity is not None:
            return f"edge connectivity {self.edge_connectivity} < 3"
        return f"zero forcing number {self.z} != 3"


def _bucket_key(profiles) -> tuple:
    """The sorted multiset of a graph's distance profiles, an isomorphism invariant."""
    return tuple(sorted(profiles))


@lru_cache(maxsize=None)
def _index(order: int) -> dict:
    """Bucket key -> [spec, canonical labelling or None] for each cubic,
    connected assembly of the order, in assembly order; the first entry of
    each bucket is labelled here, the others when a query first needs them."""
    index = {}
    for spec, g in assemblies(block_sequences(order)):
        profiles = distance_profiles(g)
        bucket = index.setdefault(_bucket_key(profiles), [])
        bucket.append([spec, None if bucket else _labelling(g, profiles)[:2]])
    return index


def recognize_z3(g: Graph) -> RecognitionResult:
    """Classify a connected cubic graph by whether its zero forcing number is 3."""
    if not g.is_cubic():
        raise ValueError("recognition is defined for cubic graphs")
    if not g.is_connected():
        raise ValueError("recognition is defined for connected graphs")
    kappa = edge_connectivity(g)
    if kappa < 3:
        return RecognitionResult(member=False, edge_connectivity=kappa)
    z = zero_forcing_number(g).z
    if z != 3:
        return RecognitionResult(member=False, z=z)
    profiles = distance_profiles(g)
    cert, order, _ = _labelling(g, profiles)
    for entry in _index(g.n).get(_bucket_key(profiles), ()):
        if entry[1] is None:
            entry[1] = canonical_labelling(build_family(entry[0]))
        member_cert, member_order = entry[1]
        if member_cert == cert:
            mapping = tuple(w for _, w in sorted(zip(member_order, order)))
            return RecognitionResult(member=True, spec=entry[0], mapping=mapping)
    raise AssertionError(f"Z = 3 and edge connectivity {kappa}, but no family "
                         f"member of order {g.n} is isomorphic to the graph: "
                         "this would refute the characterization")
