"""Shared test helpers: independent oracles and random graph generators.

The oracles here deliberately avoid the library's bitmask/worklist code paths
so that agreement tests actually compare two implementations.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import random
import re
from math import isqrt

import networkx
import numpy as np

from zeroforcing import (FamilySpec, Graph, assemblies, block_sequences,
                         build_family, canonical_labelling, catalog, closure,
                         complete_graph, forcing)
from zeroforcing.graph6 import HEADER, MAX_ORDER, Graph6Error
from zeroforcing.graphs import _mask_vertices, distance_profiles


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def is_zero_forcing_set(g: Graph, vertices) -> bool:
    """True when the library's `closure` of `vertices` is all of g."""
    return len(closure(g, vertices).black) == g.n


@functools.lru_cache(maxsize=None)
def atlas_graphs(n: int) -> tuple:
    """Every graph on n <= 7 vertices up to isomorphism, from networkx's atlas."""
    return tuple(Graph(n, list(h.edges())) for h in networkx.graph_atlas_g()
                 if h.number_of_nodes() == n)


def neighbor_sets(g: Graph) -> list:
    """Each vertex's neighbors as a set, read from the edge set alone, so
    that an oracle built on it shares nothing with the library's bitmasks."""
    nbrs = [set() for _ in range(g.n)]
    for u, v in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def naive_closure(g: Graph, initial) -> set:
    """Reference derived coloring: rescan every vertex until nothing changes."""
    nbrs = neighbor_sets(g)
    black = set(initial)
    changed = True
    while changed:
        changed = False
        for u in sorted(black):
            white = [v for v in nbrs[u] if v not in black]
            if len(white) == 1:
                black.add(white[0])
                changed = True
    return black


def naive_spanning_tree(g: Graph, root: int):
    """Reference layered spanning tree by the deleted-edge rule, as
    (tree, layers, deleted): every edge inside a layer is deleted, and of a
    vertex's edges to the previous layer only the one from the parent largest
    by (degree, id) survives."""
    nbrs = neighbor_sets(g)
    layers = [{root}]
    seen = {root}
    while True:
        nxt = {w for u in layers[-1] for w in nbrs[u]} - seen
        if not nxt:
            break
        layers.append(nxt)
        seen |= nxt
    deleted = set()
    for previous, layer in zip([set()] + layers, layers):
        for x in layer:
            parents = nbrs[x] & previous
            keep = max(parents, key=lambda u: (len(nbrs[u]), u), default=None)
            for u in (parents - {keep}) | (nbrs[x] & layer):
                deleted.add((min(u, x), max(u, x)))
    return (Graph(g.n, g.edges - deleted), tuple(map(frozenset, layers)),
            frozenset(deleted))


def naive_colex_least(g: Graph):
    """Reference (Z, witness): the first forcing set by size, and within a
    size in colex order (sorted by the members taken in descending order)."""
    vertices = list(range(g.n))
    for k in range(1, g.n + 1):
        for combo in sorted(itertools.combinations(vertices, k),
                            key=lambda c: c[::-1]):
            if len(naive_closure(g, combo)) == g.n:
                return k, frozenset(combo)
    raise AssertionError("unreachable: the full set forces")


# The closure loop as it stood before it carried the white set and stopped
# re-queueing the forcer, kept verbatim as the oracle whose result and trace,
# force by force, `forcing._close_mask` must still equal.

def reference_close_mask(bits, black: int, full: int, active=None, trace=None) -> int:
    """Closure on bitmasks: a black vertex with exactly one white neighbor
    forces it.  Each force applied is appended to `trace` as (forcer, forced).
    The search starts at the black vertices of `active`, all when None: the
    caller vouches that no other black vertex can force at the start."""
    active = black if active is None else active & black
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


def naive_wavefront(bits, full: int, cap: int):
    """Reference (Z, bought mask) or None: the wavefront search of
    `forcing._wavefront` without its pruning or closure memo.  Every state
    within the cap is stored and expanded, and every child is closed anew
    (through `forcing._close_mask`, so a test can count the closures)."""
    closed = [(bits[v], bits[v] | (1 << v)) for v in _mask_vertices(full)]
    start = forcing._close_mask(bits, 0, full)
    bought = {start: 0}
    heap = [(0, start)]
    while heap:
        cost, s = heapq.heappop(heap)
        if s == full:
            return cost, bought[s]
        if cost > bought[s].bit_count():
            continue
        for nb, nv in closed:
            gained = nv & ~s
            if not gained:
                continue
            white_nb = gained & nb
            step = gained ^ (1 << (white_nb.bit_length() - 1)) if white_nb else gained
            t_cost = cost + step.bit_count()
            if t_cost > cap:
                continue
            t = forcing._close_mask(bits, s | gained, full)
            if t not in bought or t_cost < bought[t].bit_count():
                bought[t] = bought[s] | step
                heapq.heappush(heap, (t_cost, t))
                if t == full:
                    cap = t_cost - 1
    return None


def reference_wavefront(bits, full: int, cap: int):
    """`forcing._wavefront` as it stood before each step was priced from the
    count of vertices it gains, its code kept verbatim as the oracle whose
    closures, in order, and result the solver must still equal.  It builds
    the bought mask of every step that gains a vertex, and closes through
    `forcing._close_mask`, so a test can record the calls."""
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
            steps = [(nb, nv, forcing._ball(bits, nb, nv)) for nb, nv, _ in steps]
            balls = True
        covered = 0  # the union of this state's child closures so far short of full
        for nb, nv, ball in steps:
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
            if t_cost == cap and step & (step - 1) == 0 and step & covered:
                continue  # the one bought vertex's closure falls short
            t = closures.get(s | gained)
            if t is None:
                t = closures[s | gained] = forcing._close_mask(bits, s | gained, full, ball)
            if t != full:
                covered |= t
                if t_cost == cap:
                    continue  # it could only be expanded past the cap
            if t not in bought or t_cost < bought[t].bit_count():
                bought[t] = bought[s] | step
                heapq.heappush(heap, (t_cost, t))
                if t == full:
                    # only a cheaper path to the full set matters from here on
                    cap = t_cost - 1
    return None


def naive_refine(nbrs, colors):
    """Reference neighbourhood refinement: recolor every vertex by (color,
    sorted neighbour colors), ranked, until a round changes no color."""
    while True:
        keys = [(c, tuple(sorted(colors[u] for u in vs)))
                for c, vs in zip(colors, nbrs)]
        remap = {k: i for i, k in enumerate(sorted(set(keys)))}
        new = [remap[k] for k in keys]
        if new == colors:
            return colors
        colors = new


# The labelling search as it stood before its per-node shortcuts (singleton
# keys, the early return on a discrete coloring, the compare-and-swap leaf
# key) and before its orbits came from a breadth-first search, kept verbatim,
# union-find included, as the oracle that the certificates and automorphisms
# must still equal; its canonical order goes unread.

def _reference_refine(nbrs, colors):
    """Iterated neighborhood refinement with canonical color ids; nbrs[v]
    lists v's neighbours, and colors holds the dense ids 0..k-1.  A key
    leads with its vertex's color, so the ids stay dense and ordered, and
    the coloring is stable once no class splits into two keys."""
    classes = max(colors) + 1
    while True:
        keys = [(c, *sorted(map(colors.__getitem__, vs)))
                for c, vs in zip(colors, nbrs)]
        distinct = sorted(set(keys))
        if len(distinct) == classes:
            return colors
        remap = {k: i for i, k in enumerate(distinct)}
        colors = [remap[k] for k in keys]
        classes = len(distinct)


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


def reference_labelling(g: Graph, profiles=None) -> tuple:
    """(certificate, order, automorphisms): equal certificates iff the graphs
    are isomorphic; order[i] is the vertex at canonical position i.

    Individualization-refinement: each node individualizes one vertex of the
    first non-singleton color class and refines, down to discrete colorings.
    The root coloring ranks the `distance_profiles` (the first count is the
    degree): ranking the sorted set of profiles gives isomorphic graphs the
    same colors on corresponding vertices.  On a regular graph this splits
    the root where degrees alone would not.  A caller that already has g's
    own `distance_profiles` passes them as `profiles`; if None, they are
    computed here.
    The certificate is (n, least adjacency bitstring over those leaves), and
    `order` comes from the first leaf that gives it.  First-path automorphism
    pruning (McKay & Piperno, Practical graph isomorphism II, 2014): a leaf
    equal to the first leaf gives an automorphism, and the search unwinds to
    their common prefix; a first-path node tries one child per orbit of the
    automorphisms found so far, which all fix its prefix.  Skipped leaves
    repeat keys already seen, so the least key is still found.  Each
    automorphism is a tuple p with p[v] the image of v, and together they
    generate Aut(g), found at no extra search cost.
    """
    n = g.n
    if n == 0:
        return (0, 0), (), ()
    # a leaf's key holds the adjacency of positions (i, j), j < i, row by row
    # from its top bit, (1, 0), down to bit 0, (n-1, n-2)
    top = n * (n - 1) // 2 - 1
    nbrs = [tuple(_mask_vertices(b)) for b in g.bits]
    path = []           # vertices individualized on the way to the current node
    first = None        # (key, path, colors) of the first leaf
    best = None         # (key, order) of the first leaf with the least key
    automorphisms = []
    orbit = list(range(n))    # union-find over the automorphisms found so far

    def rec(colors, on_first_path):
        """Search below the node; returns the depth the search resumes at."""
        nonlocal first, best
        depth = len(path)
        cells = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, []).append(v)
        split = [c for c in sorted(cells) if len(cells[c]) > 1]
        if not split:       # discrete: colors[v] is v's position
            key = 0
            for u, w in g.edges:
                i, j = sorted((colors[u], colors[w]))
                key |= 1 << (top - j * (j - 1) // 2 - i)
            order = sorted(range(n), key=colors.__getitem__)
            if best is None or key < best[0]:
                best = (key, order)
            if first is None:
                first = (key, tuple(path), colors)
            elif key == first[0]:
                # the vertex at each position of the first leaf goes to the
                # vertex at the same position here
                image = tuple([order[i] for i in first[2]])
                automorphisms.append(image)
                for u, w in enumerate(image):
                    _union(orbit, u, w)
                return next(i for i, (u, w) in enumerate(zip(path, first[1])) if u != w)
            return depth
        explored = []
        for v in cells[split[0]]:
            # while a first-path node is open, every automorphism found so
            # far diverged below it, so each one fixes the node's prefix
            if on_first_path and (_find(orbit, v)
                                  in {_find(orbit, u) for u in explored}):
                continue
            nc = [c + 1 if c >= colors[v] else c for c in colors]
            nc[v] = colors[v]
            path.append(v)
            resume = rec(_reference_refine(nbrs, nc), on_first_path and not explored)
            path.pop()
            if resume < depth:
                return resume
            explored.append(v)
        return depth

    if profiles is None:
        profiles = distance_profiles(g)
    rank = {p: i for i, p in enumerate(sorted(set(profiles)))}
    rec(_reference_refine(nbrs, [rank[p] for p in profiles]), True)
    return (n, best[0]), tuple(best[1]), tuple(automorphisms)


# The census loop as it stood before the filter that skips children another
# (parent, pick) is sure to build, kept verbatim as the oracle whose
# certificates the census must still list.

@functools.lru_cache(maxsize=None)
def reference_census(order: int) -> tuple:
    """(member, automorphisms) for each connected cubic graph of the order,
    in certificate order, with the automorphisms its labelling found."""
    if order < 4 or order % 2:
        return ()
    if order == 4:
        k4 = complete_graph(4)
        return ((k4, canonical_labelling(k4)[1]),)
    seen = {}
    for new, picks, gadget in catalog.MOVES:
        for parent, automorphisms in reference_census(order - new):
            for child in catalog._children(parent, automorphisms, new, picks,
                                           gadget):
                g = Graph(child.n, child.edges)
                cert, found = canonical_labelling(g)
                seen.setdefault(cert, (g, found))
    members = tuple(seen[c] for c in sorted(seen))
    expected = catalog.CONNECTED_CUBIC_COUNTS.get(order)
    if expected is not None and len(members) != expected:
        raise RuntimeError(f"cubic census mismatch at order {order}: "
                           f"built {len(members)}, expected {expected}")
    return members


# The filter as it stood before a tied edge waited for its key to beat the
# joining edge's before it was searched, kept verbatim as the oracle whose
# verdicts the filter must still give.

def reference_made_elsewhere(child, profiles) -> bool:
    """True when another (parent, pick) is sure to build a child isomorphic
    to this one, which need not be labelled (see the module docstring).
    `profiles` are the child's `distance_profiles` if it comes from the first
    row, whose children are skipped when a reducible edge has a greater
    `_edge_key` than the edge joining the new vertices, and None for the
    other rows, whose children are skipped when any edge is reducible.  The
    key's later parts are computed only for the edges tied on its first."""
    if profiles is None:
        return any(catalog._reducible(child, x, y) for x, y in child.edges)
    x, y = child.n - 2, child.n - 1
    joined = catalog._pair(profiles[x], profiles[y])
    tied = []
    for u, v in child.edges:
        first = catalog._pair(profiles[u], profiles[v])
        if first > joined and catalog._reducible(child, u, v):
            return True
        if first == joined and (u, v) != (x, y) and \
                catalog._reducible(child, u, v):
            tied.append((u, v))
    if not tied:
        return False
    key = catalog._edge_key(child, profiles, x, y)
    return any(catalog._edge_key(child, profiles, u, v) > key
               for u, v in tied)


def brute_force_isomorphic(g: Graph, h: Graph) -> bool:
    """Permutation-check isomorphism; only sensible for n <= 7."""
    if g.n != h.n or len(g.edges) != len(h.edges):
        return False
    for perm in itertools.permutations(range(g.n)):
        if all((perm[u], perm[v]) in h.edges or (perm[v], perm[u]) in h.edges
               for u, v in g.edges):
            return True
    return False


@functools.lru_cache(maxsize=None)
def _assembly_index(order: int) -> dict:
    """Sorted distance-profile multiset -> [[spec, certificate or None]] for
    every assembly of the order, in assembly order; the first entry of each
    bucket is labelled here, the others when a lookup first reaches them."""
    index = {}
    for spec, g in assemblies(block_sequences(order)):
        profiles = distance_profiles(g)
        bucket = index.setdefault(tuple(sorted(profiles)), [])
        bucket.append([spec, None if bucket
                       else canonical_labelling(g)[0]])
    return index


def index_spec(g: Graph):
    """Reference recognition spec: the first assembly of g's order that is
    isomorphic to g, looked up by canonical certificate among the assemblies
    whose distance-profile multiset matches g's, or None."""
    profiles = distance_profiles(g)
    cert = canonical_labelling(g)[0]
    for entry in _assembly_index(g.n).get(tuple(sorted(profiles)), ()):
        if entry[1] is None:
            entry[1] = canonical_labelling(build_family(entry[0]))[0]
        if entry[1] == cert:
            return entry[0]
    return None


# The block-chain walk as it stood before it walked a rung pair's two orders
# together, kept verbatim as the oracle whose (key, mapping)
# `recognition._least_parse` must still equal.

# white vertex j joins attachment vertex perm[j]; the k-th order of the
# white vertices that `itertools.permutations` yields is the attachment
# under the k-th junction here, the inverse of the k-th permutation
_REFERENCE_JUNCTIONS = [tuple(q.index(j) for j in range(3))
                        for q in itertools.permutations(range(3))]


def reference_least_parse(g: Graph) -> tuple:
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
            for perm, (a2, b2, third2) in zip(_REFERENCE_JUNCTIONS,
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


# The graph6 decoder as it stood before it walked the columns and built the
# masks itself, kept verbatim as the oracle whose graphs and errors
# `graph6.parse_graph6` must still equal; its `_NONZERO` renamed
# `_REFERENCE_NONZERO`.

_REFERENCE_NONZERO = re.compile(r"[^?]")      # a data byte that is not 63 + 0


def reference_parse_graph6(text: str) -> Graph:
    """Decode one graph6 record; an optional '>>graph6<<' header is permitted."""
    line = text.rstrip("\r\n")
    base = 0
    if line.startswith(HEADER):
        base = len(HEADER)
        line = line[base:]
    if not line:
        raise Graph6Error("empty graph6 record", base)
    if line.startswith("~~"):
        raise Graph6Error("length field '~~' (the 8-byte size form for "
                          "n >= 258048) is not supported", base)
    if line[0] == "~":
        field = [ord(ch) - 63 for ch in line[1:4]]
        n = field[0] << 12 | field[1] << 6 | field[2] if len(field) == 3 else -1
        if not (all(0 <= v <= 63 for v in field) and 63 <= n <= MAX_ORDER):
            raise Graph6Error(f"malformed length field {line[:4]!r}", base)
        width = 4
    else:
        n = ord(line[0]) - 63
        if not 0 <= n <= 62:
            raise Graph6Error(f"malformed length field {line[0]!r}", base)
        width = 1
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    data = line[width:]
    if len(data) < need:
        raise Graph6Error(f"record needs {need} data bytes, found {len(data)}",
                          base + len(line))
    if len(data) > need:
        raise Graph6Error("trailing data after adjacency bits",
                          base + width + need)
    edges = []
    for match in _REFERENCE_NONZERO.finditer(data):
        k = match.start()
        val = ord(match.group()) - 63
        if not 0 <= val <= 63:
            raise Graph6Error(f"character {match.group()!r} outside printable "
                              "range", base + width + k)
        while val:
            low = val & -val
            val ^= low
            bit = 6 * k + 6 - low.bit_length()
            if bit >= nbits:
                raise Graph6Error("trailing bits nonzero", base + width + k)
            j = (1 + isqrt(8 * bit + 1)) // 2
            edges.append((bit - j * (j - 1) // 2, j))
    return Graph(n, edges)


def random_family_spec(rng: random.Random, order: int) -> FamilySpec:
    """A random assembly recipe of the given even order >= 4: the order
    fixes 2t + (M indices) + (T index) = (order - 4) / 2 for t M blocks,
    and each junction takes a random bijection."""
    budget = (order - 4) // 2
    t = rng.randint(0, budget // 2)
    cuts = sorted(rng.randint(0, budget - 2 * t) for _ in range(t))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [budget - 2 * t])]
    perms = list(itertools.permutations(range(3)))
    return FamilySpec(blocks=tuple(("M", k) for k in sizes[:-1])
                      + (("T", sizes[-1]),),
                      matchings=tuple(rng.choice(perms) for _ in range(t)))


def mapping_is_valid(g: Graph, h: Graph, mapping) -> bool:
    """True when mapping preserves adjacency and non-adjacency both ways."""
    if mapping is None or sorted(mapping) != list(range(g.n)):
        return False
    g_nbrs, h_nbrs = neighbor_sets(g), neighbor_sets(h)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if (v in g_nbrs[u]) != (mapping[v] in h_nbrs[mapping[u]]):
                return False
    return True


def naive_eigen_clusters(matrix, cluster_gap: float):
    """Reference spectrum and single-linkage clusters over numpy scalars:
    (eigenvalues from `numpy.linalg.eigh`, [(numpy mean, multiplicity)])."""
    values = np.linalg.eigh(np.asarray(matrix, dtype=float))[0]
    clusters = []
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] - values[i - 1] > cluster_gap:
            group = values[start:i]
            clusters.append((float(group.mean()), len(group)))
            start = i
    return tuple(float(v) for v in values), clusters


def random_graph(rng: random.Random, n: int, p: float = 0.4) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return Graph(n, edges)


def random_connected_graph(rng: random.Random, n: int, p: float = 0.4) -> Graph:
    while True:
        g = random_graph(rng, n, p)
        if g.is_connected():
            return g


def random_cubic_connected(rng: random.Random, n: int) -> Graph:
    """Uniform-ish connected cubic graph by stub pairing with rejection."""
    if n < 4 or n % 2:
        raise ValueError("cubic graphs need even n >= 4")
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for u, v in zip(stubs[0::2], stubs[1::2]):
            if u == v or (min(u, v), max(u, v)) in edges:
                ok = False
                break
            edges.add((min(u, v), max(u, v)))
        if not ok:
            continue
        g = Graph(n, edges)
        if g.is_connected():
            return g


def permuted_copy(rng: random.Random, g: Graph) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
