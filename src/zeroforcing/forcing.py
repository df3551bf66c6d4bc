"""Color-change closure and the exact zero forcing solver.

Black sets are manipulated as integer bitmasks.  The solver works in two
phases on each connected component:

1. Z by Dijkstra over closed sets (the wavefront algorithm; Brimkov, Fast and
   Hicks, arXiv:1704.02065).  From close(empty), a step at v buys v and all
   but one of its white neighbors and takes the closure; v then forces the
   last one.  The cheapest path to the full set costs Z.
2. The witness, by a depth-first descent at size Z that picks members from
   the highest vertex down, each at the lowest position first.  That visits
   the Z-subsets in colexicographic order (numeric order of masks), so the
   first forcing one is the colex-least minimum witness.  Two prunes keep the
   descent short, and both skip only sets that cannot force: a vertex already
   black in the closure of the higher picks is never picked (the set without
   it would force at size Z-1), and a branch is dropped when its picks plus
   every vertex still below it do not force (closure is monotone).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .graphs import Graph


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


def _mask_vertices(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _solve_component(g: Graph, comp, cap: int):
    """Exact Z on one component; returns (z, witness set) or (None, lower bound)."""
    vs = sorted(comp)
    index = {v: i for i, v in enumerate(vs)}
    k = len(vs)
    bits = [0] * k
    for v in vs:
        for u in g.adj[v]:
            bits[index[v]] |= 1 << index[u]
    full = (1 << k) - 1
    z = _wavefront(bits, full, cap)
    if z is None:
        if cap >= k:
            raise AssertionError("the full vertex set always forces")
        return None, min(cap + 1, k)
    witness = _colex_least(bits, full, z, k, 0)
    if witness is None:
        raise AssertionError(f"no witness of size Z={z} found")
    return z, frozenset(vs[i] for i in _mask_vertices(witness))


def _wavefront(bits, full: int, cap: int):
    """Least cost of a path of steps from close(empty) to the full set, or None
    if it exceeds cap.  A step at v buys v and all but one of its white
    neighbors, after which v forces the last one; the cost is what was bought."""
    closed = [nb | (1 << v) for v, nb in enumerate(bits)]  # N[v]
    start = _close_mask(bits, 0, full)
    best = {start: 0}
    heap = [(0, start)]
    while heap:
        cost, s = heapq.heappop(heap)
        if s == full:
            return cost
        if cost > best[s]:
            continue
        for nv in closed:
            gained = nv & ~s
            if not gained:
                continue
            # all of N[v] outside s is bought but the neighbor v then forces;
            # a white v with no white neighbor is bought alone.  (s is closed,
            # so a black v never has exactly one white neighbor.)
            t_cost = cost + max(gained.bit_count() - 1, 1)
            if t_cost > cap:
                continue
            t = _close_mask(bits, s | gained, full)
            if t_cost < best.get(t, cap + 1):
                best[t] = t_cost
                heapq.heappush(heap, (t_cost, t))
                if t == full:
                    # only a cheaper path to the full set matters from here on
                    cap = t_cost - 1
    return None


def _colex_least(bits, full: int, size: int, limit: int, black: int):
    """Colex-least set of `size` vertices below `limit` whose union with the
    closed set `black` forces, or None.  Members are picked from the highest
    down, each at the lowest position that can still succeed.

    Valid only when no smaller set forces: a vertex already in `black` would
    make the set with it removed force, so it is never picked."""
    if size == 0:
        return 0 if black == full else None
    # closure is monotone, so once black and every vertex up to p force, the
    # same holds for every larger p; below that no completion can force
    enough = False
    for p in range(size - 1, limit):
        if (black >> p) & 1:
            continue
        if not enough:
            enough = _close_mask(bits, black | ((2 << p) - 1), full) == full
            if not enough:
                continue
        rest = _colex_least(bits, full, size - 1, p,
                            _close_mask(bits, black | (1 << p), full))
        if rest is not None:
            return rest | (1 << p)
    return None


def zero_forcing_number(g: Graph, budget: int | None = None) -> ZeroForcingResult:
    """Exact zero forcing number with the colex-least minimum witness.

    Disconnected graphs are solved per component and summed.  With a budget,
    the search never considers witnesses larger than `budget` in total; an
    exhausted budget yields an inexact result carrying the proven lower bound.
    """
    if g.n == 0:
        raise ValueError("zero forcing number of the empty graph is undefined")
    comps = g.components()
    floor = {c: max(1, min(g.degree(v) for v in c)) for c in comps}
    total = 0
    witness: set = set()
    remaining = sum(floor.values())
    for comp in comps:
        remaining -= floor[comp]
        if budget is None:
            cap = len(comp)
        else:
            cap = budget - total - remaining
            if cap < floor[comp]:
                return ZeroForcingResult(None, None, total + floor[comp] + remaining)
        z, wit = _solve_component(g, comp, cap)
        if z is None:
            return ZeroForcingResult(None, None, total + wit + remaining)
        total += z
        witness |= wit
    return ZeroForcingResult(total, frozenset(witness), total)
