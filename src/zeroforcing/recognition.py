"""Decides whether a connected cubic graph has zero forcing number 3.

Membership in the assembled block family characterizes these graphs, so
recognition is a membership test: the family members of the input's order
are indexed by canonical certificate (cached), and the input's canonical
labelling is looked up in that index.  Graphs with edge connectivity below 3
are rejected without any labelling.
"""

from __future__ import annotations

from dataclasses import dataclass

from .families import FamilySpec, family_index
from .forcing import zero_forcing_number
from .graphs import Graph, canonical_labelling, edge_connectivity


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


def recognize_z3(g: Graph) -> RecognitionResult:
    """Classify a connected cubic graph by whether its zero forcing number is 3."""
    if not g.is_cubic():
        raise ValueError("recognition is defined for cubic graphs")
    if not g.is_connected():
        raise ValueError("recognition is defined for connected graphs")
    kappa = edge_connectivity(g)
    if kappa < 3:
        return RecognitionResult(member=False, edge_connectivity=kappa)
    cert, order = canonical_labelling(g)
    entry = family_index(g.n).get(cert)
    if entry is None:
        return RecognitionResult(member=False, z=zero_forcing_number(g).z)
    spec, _, member_order = entry
    mapping = tuple(w for _, w in sorted(zip(member_order, order)))
    return RecognitionResult(member=True, spec=spec, mapping=mapping)
