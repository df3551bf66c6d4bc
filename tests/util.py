"""Shared test helpers: independent oracles and random graph generators.

The oracles here deliberately avoid the library's bitmask/worklist code paths
so that agreement tests actually compare two implementations.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import random

import networkx
import numpy as np

from zeroforcing import Graph, canonical_labelling, forcing
from zeroforcing.graphs import _mask_vertices


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


def brute_force_isomorphic(g: Graph, h: Graph) -> bool:
    """Permutation-check isomorphism; only sensible for n <= 7."""
    if g.n != h.n or len(g.edges) != len(h.edges):
        return False
    for perm in itertools.permutations(range(g.n)):
        if all((perm[u], perm[v]) in h.edges or (perm[v], perm[u]) in h.edges
               for u, v in g.edges):
            return True
    return False


def canonical_mapping(g: Graph, h: Graph):
    """Vertex map g -> h from two canonical labellings, or None when the
    certificates differ: g's vertex at each canonical position goes to h's
    vertex at the same position (the map `recognize_z3` builds)."""
    cert_g, order_g, _ = canonical_labelling(g)
    cert_h, order_h, _ = canonical_labelling(h)
    if cert_g != cert_h:
        return None
    return tuple(w for _, w in sorted(zip(order_g, order_h)))


def mapping_is_valid(g: Graph, h: Graph, mapping) -> bool:
    """True when mapping preserves adjacency and non-adjacency both ways."""
    if mapping is None or sorted(mapping) != list(range(g.n)):
        return False
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.has_edge(u, v) != h.has_edge(mapping[u], mapping[v]):
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
