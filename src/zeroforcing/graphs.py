"""Immutable simple-graph type plus the small-graph algorithms shared by every module.

Vertices are dense integers 0..n-1.  Adjacency is the edge set, which gives a
graph its value identity, plus one integer bitmask of neighbours per vertex,
which every algorithm reads; the masks are Python integers, so they set no
limit on the vertex count.  One breadth-first search over the masks,
`_layers`, serves the single-source searches: components, spanning-tree
layers, the branch sets of a minor model and the augmenting paths of edge
connectivity.  Distance profiles need every source at once, so they grow all
balls together over the edges.
Edge connectivity runs those flows only between the vertices of a dominating
set (Matula's rule), which meets both sides of any cut below the minimum
degree and every component of a disconnected graph.
"""

from __future__ import annotations

import itertools


class Graph:
    """Simple undirected graph: no loops, no parallel edges, vertex ids 0..n-1.

    Instances are immutable value objects; they hash and compare by (n, edges)
    and are safe to share between threads or cache.  `edges` holds each edge
    once as (u, v) with u < v; bit v of bits[u] is set iff u and v are adjacent.
    """

    __slots__ = ("n", "edges", "bits")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        seen = set()
        bits = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            seen.add((u, v) if u < v else (v, u))
            bits[u] |= 1 << v
            bits[v] |= 1 << u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset(seen))
        object.__setattr__(self, "bits", tuple(bits))

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __eq__(self, other):
        return (isinstance(other, Graph)
                and self.n == other.n and self.edges == other.edges)

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={len(self.edges)})"

    def degree(self, v: int) -> int:
        return self.bits[v].bit_count()

    def min_degree(self) -> int:
        return min(map(int.bit_count, self.bits), default=0)

    def is_cubic(self) -> bool:
        return self.n > 0 and all(b.bit_count() == 3 for b in self.bits)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.bits[u] >> v & 1)

    def components(self) -> tuple:
        """Connected components as tuples of sorted vertex ids."""
        out = []
        rest = (1 << self.n) - 1
        while rest:
            comp = sum(_layers(self.bits, rest & -rest))    # disjoint layers
            rest ^= comp
            out.append(tuple(_mask_vertices(comp)))
        return tuple(out)

    def is_connected(self) -> bool:
        return self.n > 0 and sum(_layers(self.bits, 1)) == (1 << self.n) - 1


def _mask_vertices(mask: int):
    """The vertices of a bitmask, in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _layers(bits, start: int):
    """Breadth-first layers from the vertex set `start`, as bitmasks: `start`,
    then each set of vertices first reached by one more arc, where bits[u]
    holds u's out-neighbours.  A caller may stop at any layer."""
    seen = frontier = start
    while frontier:
        yield frontier
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= bits[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & ~seen
        seen |= frontier


# --- standard constructions used throughout the tests ---

def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, itertools.combinations(range(n), 2))


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


# --- edge connectivity by unit-capacity max-flow ---

def _max_flow_unit(g: Graph, s: int, t: int, limit: int) -> int:
    """Number of edge-disjoint s-t paths, counted up to `limit`, by shortest
    augmenting paths found with `_layers` over the residual.

    Each edge carries one unit, either way.  res starts as a copy of g.bits,
    and res[u] holds each v with residual capacity u -> v: an unused edge
    has it both ways, and once a unit crosses u -> v only v -> u is left.
    A search stops at t's layer, and the path is walked back from t one
    layer at a time, each step to the highest u with residual u -> v.
    """
    res = list(g.bits)
    flow = 0
    while flow < limit:
        layers = []
        for layer in _layers(res, 1 << s):
            layers.append(layer)
            if layer >> t & 1:
                break
        else:
            return flow
        v = t
        for layer in reversed(layers[:-1]):
            back = layer & g.bits[v]
            u = back.bit_length() - 1
            while not res[u] >> v & 1:
                back ^= 1 << u
                u = back.bit_length() - 1
            if res[v] >> u & 1:     # a unit now crosses u -> v
                res[u] ^= 1 << v
            else:                   # it cancels the unit that crossed v -> u
                res[v] |= 1 << u
            v = u
        flow += 1
    return flow


def edge_connectivity(g: Graph) -> int:
    """Minimum number of edges whose removal disconnects g; 0 if already disconnected.

    Matula's rule (Determining edge connectivity in O(nm), FOCS 1987): take
    a dominating set D, greedily, from the lowest vertex not yet dominated.
    If the answer is below the minimum degree, each side of a minimum cut
    holds a vertex whose neighbours all lie on that side, and D dominates
    it, so D meets both sides.  The answer is then the least s-t max flow
    from D's first vertex s to the other vertices of D, capped at the
    minimum degree.  D meets every component too, so a disconnected graph
    gets 0 from its first flow to another component.  Each flow is a fresh
    residual on g's bitmasks (`_max_flow_unit`) and stops at the smallest
    cut found so far.
    """
    if g.n <= 1:
        return 0
    dominators = []
    undominated = (1 << g.n) - 1
    while undominated:
        v = (undominated & -undominated).bit_length() - 1
        dominators.append(v)
        undominated &= ~(g.bits[v] | 1 << v)
    s, *targets = dominators
    best = g.min_degree()
    for t in targets:
        best = _max_flow_unit(g, s, t, best)
    return best


# --- canonical labelling: certificates and automorphisms ---

def _refine(nbrs, colors):
    """Iterated neighborhood refinement with canonical color ids; nbrs[v]
    lists v's neighbours, and colors holds the dense ids 0..k-1.  A key
    leads with its vertex's color, so the ids stay dense and ordered, and
    the coloring is stable once no class splits into two keys.

    Two shortcuts skip work whose outcome is fixed.  A vertex alone in its
    class is keyed `(c,)`: no other key leads with c, so its key sorts to
    the same place whatever follows c, and every id comes out the same.  A
    discrete coloring is returned at once: each key is then alone under its
    color, so a further round would rank them as they stand."""
    n = len(colors)
    classes = max(colors) + 1
    while classes < n:
        size = [0] * classes
        for c in colors:
            size[c] += 1
        keys = [(c, *sorted(map(colors.__getitem__, vs))) if size[c] > 1
                else (c,) for c, vs in zip(colors, nbrs)]
        distinct = sorted(set(keys))
        if len(distinct) == classes:
            return colors
        remap = {k: i for i, k in enumerate(distinct)}
        colors = [remap[k] for k in keys]
        classes = len(distinct)
    return colors


def distance_profiles(g: Graph) -> list:
    """Each vertex's distance profile: how many vertices lie at distance
    1, 2, ... from it.  An isomorphism preserves distances, so it maps each
    vertex to one with the same profile, and the sorted profiles are an
    isomorphism invariant.

    All balls grow together, one radius per round over the edge list: the
    ball of radius r + 1 around v is the union of the radius-r balls of v
    and its neighbours, and v's profile gains the count of new vertices
    while its ball grows.  The rounds stop when no ball grows.
    """
    balls = [1 << v for v in range(g.n)]
    profiles = [[] for _ in range(g.n)]
    while True:
        grown = balls[:]
        for u, v in g.edges:
            grown[u] |= balls[v]
            grown[v] |= balls[u]
        if grown == balls:
            return list(map(tuple, profiles))
        for profile, ball, new in zip(profiles, balls, grown):
            if new != ball:
                profile.append(new.bit_count() - ball.bit_count())
        balls = grown


def _find(parent, x):
    """Root of x in the union-find forest `parent`, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _union(parent, x, y):
    """Join the trees of x and y in the union-find forest `parent`, under the
    lesser root, so that each root is the least element of its tree."""
    rx, ry = _find(parent, x), _find(parent, y)
    parent[max(rx, ry)] = min(rx, ry)


def canonical_labelling(g: Graph) -> tuple:
    """(certificate, automorphisms): equal certificates iff the graphs are
    isomorphic.

    Individualization-refinement: each node individualizes one vertex of the
    first non-singleton color class and refines, down to discrete colorings.
    The root coloring ranks the `distance_profiles` (the first count is the
    degree): ranking the sorted set of profiles gives isomorphic graphs the
    same colors on corresponding vertices.  On a regular graph this splits
    the root where degrees alone would not.
    The certificate is (n, least adjacency bitstring over those leaves).
    First-path automorphism pruning (McKay & Piperno, Practical graph
    isomorphism II, 2014): a leaf equal to the first leaf gives an
    automorphism, and the search unwinds to their common prefix; a
    first-path node tries one child per orbit of the automorphisms found so
    far, which all fix its prefix.  Skipped leaves repeat keys already seen,
    so the least key is still found.  Each automorphism is a tuple p with
    p[v] the image of v, and together they generate Aut(g), found at no
    extra search cost.
    The per-node shortcuts keep every id: `_refine` keys a singleton by its
    color alone and returns a discrete coloring at once (see there).  The
    ids are dense, so a node with n colors is a leaf, whose coloring gives
    each vertex its position; any other node's target is the first cell, by
    color, with two or more vertices.
    """
    n = g.n
    if n == 0:
        return (0, 0), ()
    # a leaf's key holds the adjacency of positions (i, j), j < i, row by row
    # from its top bit, (1, 0), down to bit 0, (n-1, n-2)
    top = n * (n - 1) // 2 - 1
    nbrs = [tuple(_mask_vertices(b)) for b in g.bits]
    path = []           # vertices individualized on the way to the current node
    first = None        # (key, path, colors) of the first leaf
    best = None         # the least leaf key
    automorphisms = []
    orbit = list(range(n))    # union-find over the automorphisms found so far

    def rec(colors, on_first_path):
        """Search below the node; returns the depth the search resumes at."""
        nonlocal first, best
        depth = len(path)
        classes = max(colors) + 1
        if classes == n:    # discrete: colors[v] is v's position
            key = 0
            for u, w in g.edges:
                i, j = colors[u], colors[w]
                if i > j:
                    i, j = j, i
                key |= 1 << (top - j * (j - 1) // 2 - i)
            if best is None or key < best:
                best = key
            if first is None:
                first = (key, tuple(path), colors)
            elif key == first[0]:
                # the vertex at each position of the first leaf goes to the
                # vertex at the same position here
                at = [0] * n
                for v, c in enumerate(colors):
                    at[c] = v
                image = tuple([at[c] for c in first[2]])
                automorphisms.append(image)
                for u, w in enumerate(image):
                    _union(orbit, u, w)
                return next(i for i, (u, w) in enumerate(zip(path, first[1])) if u != w)
            return depth
        cells = [[] for _ in range(classes)]
        for v, c in enumerate(colors):
            cells[c].append(v)
        explored = []
        for v in next(cell for cell in cells if len(cell) > 1):
            # while a first-path node is open, every automorphism found so
            # far diverged below it, so each one fixes the node's prefix
            if on_first_path and (_find(orbit, v)
                                  in {_find(orbit, u) for u in explored}):
                continue
            nc = [c + 1 if c >= colors[v] else c for c in colors]
            nc[v] = colors[v]
            path.append(v)
            resume = rec(_refine(nbrs, nc), on_first_path and not explored)
            path.pop()
            if resume < depth:
                return resume
            explored.append(v)
        return depth

    profiles = distance_profiles(g)
    rank = {p: i for i, p in enumerate(sorted(set(profiles)))}
    rec(_refine(nbrs, [rank[p] for p in profiles]), True)
    return (n, best), tuple(automorphisms)
