"""Color-change closure and the exact zero forcing solver.

Black sets are manipulated as integer bitmasks.  The solver runs one search
per connected component: Dijkstra over closed sets (the wavefront algorithm;
Brimkov, Fast and Hicks, arXiv:1704.02065).  From the empty set, a step at v
buys v, if white, and every white neighbor of v but the highest, and takes
the closure; v then forces that last neighbor.  The cheapest path to the full
set costs Z, and what it bought is the witness.

The bought set forces: by induction along the path, its closure contains
every state on the path, because at each step v and all its other neighbors
are black in it, so v forces the one left.  The steps buy disjoint sets of
vertices white at the time, so the witness has exactly Z members.

Three rules cut work without changing which states yield children, what their
paths bought, Z or the witness.  Every step buys at least one vertex, so a
state that costs the cap already is not expanded, and a child that reaches
the cap short of the full set is not stored: neither could lead to a path
within the cap.  A closure depends only on its input set, so each search
closes a set once and looks it up after that.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .graphs import Graph, _mask_vertices


@dataclass(frozen=True)
class DerivedColoring:
    """Fixpoint of the color-change rule: final black set plus the forces applied."""

    black: frozenset
    trace: tuple  # ordered (forcer, forced) pairs


@dataclass(frozen=True)
class ZeroForcingResult:
    """Solver outcome.  `z` and `witness` are None when the budget ran out,
    in which case `lower_bound` is the best size bound proven so far."""

    z: int | None
    witness: frozenset | None
    lower_bound: int

    @property
    def exact(self) -> bool:
        return self.z is not None


def _vertex_mask(g: Graph, vertices) -> int:
    mask = 0
    for v in vertices:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range for n={g.n}")
        mask |= 1 << v
    return mask


def _close_mask(bits, black: int, full: int, trace=None) -> int:
    """Closure on bitmasks: a black vertex with exactly one white neighbor
    forces it.  Each force applied is appended to `trace` as (forcer, forced)."""
    active = black
    while active:
        low = active & -active
        active ^= low
        white = bits[low.bit_length() - 1] & ~black
        if white and white & (white - 1) == 0:
            black |= white
            if trace is not None:
                trace.append((low.bit_length() - 1, white.bit_length() - 1))
            if black == full:
                return black
            # the forced vertex and its black neighbors may force next
            active |= (bits[white.bit_length() - 1] & black) | white
    return black


def closure(g: Graph, initial) -> DerivedColoring:
    """Derived coloring of `initial`, with the forces listed in the order the
    loop applies them."""
    trace = []
    black = _close_mask(g.bits, _vertex_mask(g, initial), (1 << g.n) - 1, trace)
    return DerivedColoring(black=frozenset(_mask_vertices(black)), trace=tuple(trace))


def is_zero_forcing_set(g: Graph, vertices) -> bool:
    full = (1 << g.n) - 1
    return _close_mask(g.bits, _vertex_mask(g, vertices), full) == full


def _wavefront(bits, full: int, cap: int):
    """(Z, bought mask) for the least cost path of steps from the empty set to
    the full set, or None if its cost exceeds cap.  A step at v buys v, if
    white, and all but the highest of its white neighbors, after which v
    forces that one; the cost is what was bought.  Steps are taken at the
    vertices of `full`, which must be closed under adjacency.

    Every step buys at least one vertex, so states costing the cap are not
    expanded and children at the cap other than the full set are dropped.
    A closure depends only on its input set, so closures are memoized by
    that set for the length of this call."""
    closed = [(bits[v], bits[v] | (1 << v)) for v in _mask_vertices(full)]  # N(v), N[v]
    # state -> what the cheapest path found to it bought; the steps buy
    # disjoint sets, so the path's cost is the size of that set.  Nothing
    # forces while no vertex is black, so the search starts at the empty set.
    bought = {0: 0}
    closures = {}  # s | gained -> its closure, for this search only
    heap = [(0, 0)]
    while heap:
        cost, s = heapq.heappop(heap)
        if s == full:
            return cost, bought[s]
        # a stale entry, or one whose every child would cost more than cap
        if cost > bought[s].bit_count() or cost >= cap:
            continue
        for nb, nv in closed:
            gained = nv & ~s
            if not gained:
                continue
            # v forces its highest white neighbor and the step buys the rest;
            # a white v with none is bought alone.  (s is closed, so a black v
            # never has exactly one white neighbor: every step buys something.)
            white_nb = gained & nb
            step = gained ^ (1 << (white_nb.bit_length() - 1)) if white_nb else gained
            t_cost = cost + step.bit_count()
            if t_cost > cap:
                continue
            t = closures.get(s | gained)
            if t is None:
                t = closures[s | gained] = _close_mask(bits, s | gained, full)
            if t_cost == cap and t != full:
                continue  # it could only be expanded past the cap
            if t not in bought or t_cost < bought[t].bit_count():
                bought[t] = bought[s] | step
                heapq.heappush(heap, (t_cost, t))
                if t == full:
                    # only a cheaper path to the full set matters from here on
                    cap = t_cost - 1
    return None


def zero_forcing_number(g: Graph, budget: int | None = None) -> ZeroForcingResult:
    """Exact zero forcing number with a minimum forcing set as witness.

    Disconnected graphs are solved per component and summed.  With a budget,
    the search never considers witnesses larger than `budget` in total; an
    exhausted budget yields an inexact result carrying the proven lower bound.
    """
    if g.n == 0:
        raise ValueError("zero forcing number of the empty graph is undefined")
    # (component mask, least possible Z of the component)
    comps = [(_vertex_mask(g, c), max(1, min(map(g.degree, c))))
             for c in g.components()]
    total = witness = 0
    remaining = sum(floor for _, floor in comps)
    for full, floor in comps:
        remaining -= floor
        size = full.bit_count()
        cap = size if budget is None else budget - total - remaining
        found = _wavefront(g.bits, full, cap) if cap >= floor else None
        if found is None:
            if cap >= size:
                raise AssertionError("the full vertex set always forces")
            # this component's Z exceeds cap and is at least floor
            return ZeroForcingResult(None, None,
                                     total + max(cap + 1, floor) + remaining)
        z, bought = found
        if bought.bit_count() != z or _close_mask(g.bits, bought, full) != full:
            raise AssertionError(f"the wavefront's witness of size Z={z} "
                                 "does not force")
        total += z
        witness |= bought
    return ZeroForcingResult(total, frozenset(_mask_vertices(witness)), total)
