"""Color-change closure and the exact zero forcing solver.

Black sets are manipulated as integer bitmasks; the closure loop carries the
white set, and a vertex that has forced is never checked again.  The solver
runs one search per connected component: Dijkstra over closed sets (the
wavefront algorithm; Brimkov, Fast and Hicks, arXiv:1704.02065).  From the
empty set, a step at v buys v, if white, and every white neighbor of v but
the highest, and takes the closure; v then forces that last neighbor.  The
cheapest path to the full set costs Z, and what it bought is the witness.

The bought set forces: by induction along the path, its closure contains
every state on the path, because at each step v and all its other neighbors
are black in it, so v forces the one left.  The steps buy disjoint sets of
vertices white at the time, so the witness has exactly Z members.

Five rules cut work without changing which states yield children, what their
paths bought, Z or the witness.  Every step buys at least one vertex, so a
state that costs the cap already is not expanded, and a child that reaches
the cap short of the full set is not stored: neither could lead to a path
within the cap.  A closure depends only on its input set, so each search
closes a set once and looks it up after that.  A state is closed and a step
at v blackens only vertices of N[v], so a child's closure may start at the
black vertices within distance 2 of v: no other one has lost a white
neighbor.  A step at the cap that buys one vertex x has the closure of the
state plus x, since v then forces its last white neighbor; if x lies in the
closure of an earlier sibling short of the full set, so does the child's, and
it is skipped unclosed.

A closed state has no black vertex with exactly one white neighbor, so a step
that gains k vertices buys exactly max(k - 1, 1) of them.  Each step is priced
from that count and dropped when the price exceeds the state's slack, the cap
less its cost, before its bought set is built; and once a full child lowers
the cap to the state's cost, no step is left that fits, so its expansion ends.
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


def _close_mask(bits, black: int, full: int, active=None, trace=None) -> int:
    """Closure on bitmasks: a black vertex with exactly one white neighbor
    forces it.  Each force applied is appended to `trace` as (forcer, forced).
    The search starts at the black vertices of `active`, all when None: the
    caller vouches that no other black vertex can force at the start.

    `black` must lie within `full`, which must be closed under adjacency; the
    loop carries the white set `full ^ black`.  A vertex that forces has no
    white neighbor left, so it can never force again and is not queued back:
    only the forced vertex and its other black neighbors are."""
    white = full ^ black
    active = black if active is None else active & black
    while active:
        low = active & -active
        active ^= low
        w = bits[low.bit_length() - 1] & white
        if w and w & (w - 1) == 0:
            white ^= w
            if trace is not None:
                trace.append((low.bit_length() - 1, w.bit_length() - 1))
            if not white:
                return full
            # the forced vertex and its black neighbors other than the
            # forcer may force next
            active |= (bits[w.bit_length() - 1] & ~white ^ low) | w
    return full ^ white


def closure(g: Graph, initial) -> DerivedColoring:
    """Derived coloring of `initial`, with the forces listed in the order the
    loop applies them."""
    trace = []
    black = _close_mask(g.bits, _vertex_mask(g, initial), (1 << g.n) - 1, trace=trace)
    return DerivedColoring(black=frozenset(_mask_vertices(black)), trace=tuple(trace))


def _ball(bits, nb: int, nv: int) -> int:
    """The vertices within distance 2 of v, given N(v) and N[v]."""
    ball = nv
    for u in _mask_vertices(nb):
        ball |= bits[u]
    return ball


def _wavefront(bits, full: int, cap: int):
    """(Z, bought mask) for the least cost path of steps from the empty set to
    the full set, or None if its cost exceeds cap.  A step at v buys v, if
    white, and all but the highest of its white neighbors, after which v
    forces that one; the cost is what was bought.  Steps are taken at the
    vertices of `full`, which must be closed under adjacency.

    Every step buys at least one vertex, so states costing the cap are not
    expanded and children at the cap other than the full set are dropped,
    unclosed when a sibling's closure shows they fall short.  A closure
    depends only on its input set, so closures are memoized by that set for
    the length of this call, and on a deep search each starts at the stepped
    vertex's distance-2 ball.  A step that gains k vertices of a closed state
    buys max(k - 1, 1), so it is priced, and dropped past the slack, before
    its bought set is built, and an expansion ends when no slack is left."""
    # N(v), N[v], and where a child's closure starts: every black vertex until
    # the search has closed four sets per step, v's distance-2 ball after that.
    # The balls cost more than they save on a shallow search, which every
    # Z = 3 and most Z = 4 searches are, so those never build them.
    steps = [(bits[v], bits[v] | (1 << v), None) for v in _mask_vertices(full)]
    balls = False
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
        if not balls and len(closures) >= 4 * len(steps):
            steps = [(nb, nv, _ball(bits, nb, nv)) for nb, nv, _ in steps]
            balls = True
        slack = cap - cost  # what a child may buy and stay within the cap
        covered = 0  # the union of this state's child closures so far short of full
        white = full ^ s
        for nb, nv, ball in steps:
            gained = nv & white
            if not gained:
                continue
            # v forces its highest white neighbor and the step buys the rest;
            # a white v with none is bought alone.  s is closed, so a black v
            # never has exactly one white neighbor: of the k vertices it gains,
            # the step buys max(k - 1, 1), and the set is built only if read.
            price = gained.bit_count() - 1 or 1
            if price > slack:
                continue
            if price == slack == 1:
                white_nb = gained & nb
                step = gained ^ (1 << (white_nb.bit_length() - 1)) if white_nb else gained
                if step & covered:
                    continue  # the one bought vertex's closure falls short
            t = closures.get(s | gained)
            if t is None:
                t = closures[s | gained] = _close_mask(bits, s | gained, full, ball)
            if t != full:
                covered |= t
                if price == slack:
                    continue  # it could only be expanded past the cap
            t_cost = cost + price
            if t not in bought or t_cost < bought[t].bit_count():
                white_nb = gained & nb
                step = gained ^ (1 << (white_nb.bit_length() - 1)) if white_nb else gained
                bought[t] = bought[s] | step
                heapq.heappush(heap, (t_cost, t))
                if t == full:
                    # only a cheaper path to the full set matters from here on
                    cap = t_cost - 1
                    if cap == cost:
                        break  # every step buys a vertex, and no slack is left
                    slack = cap - cost
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
    comps = [(c, max(1, min(map(g.degree, _mask_vertices(c)))))
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
