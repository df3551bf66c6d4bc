"""Independent answers for checking the program's output.

Nothing here imports `zeroforcing`: graphs are networkx graphs or plain
neighbour bitmasks, and every answer is computed by code written for the
benchmark (a closure, a wavefront solver, an eigenvalue count) or taken from
networkx and numpy.
"""

from __future__ import annotations

import heapq
from collections import Counter

import networkx as nx
import numpy as np

# The library groups eigenvalues closer than this into one cluster
# (zeroforcing.spectral.CLUSTER_GAP at the seed).
CLUSTER_GAP = 1e-6


def parse_g6(line: str) -> nx.Graph:
    return nx.from_graph6_bytes(line.strip().encode())


def write_g6(g: nx.Graph) -> str:
    return nx.to_graph6_bytes(g, header=False).decode().strip()


def relabel(g: nx.Graph, perm) -> nx.Graph:
    """Graph on the same vertex ids with vertex v renamed perm[v]."""
    h = nx.empty_graph(g.number_of_nodes())
    h.add_edges_from((perm[u], perm[v]) for u, v in g.edges)
    return h


def neighbour_masks(g: nx.Graph) -> list:
    masks = [0] * g.number_of_nodes()
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def close(masks, black: int) -> int:
    """Color-change closure: repeat until no black vertex has exactly one
    white neighbour."""
    changed = True
    while changed:
        changed = False
        for v, nb in enumerate(masks):
            if black >> v & 1:
                white = nb & ~black
                if white and not white & (white - 1):
                    black |= white
                    changed = True
    return black


def forces_all(g: nx.Graph, vertices) -> bool:
    masks = neighbour_masks(g)
    black = 0
    for v in vertices:
        black |= 1 << v
    return close(masks, black) == (1 << len(masks)) - 1


def zero_forcing_number(g: nx.Graph) -> int:
    """Exact Z(G) by the wavefront search over closed sets (Brimkov, Fast &
    Hicks, arXiv:1704.02065); a different algorithm from the library's
    subset enumeration, so the two cannot share a bug."""
    masks = neighbour_masks(g)
    full = (1 << len(masks)) - 1
    start = close(masks, 0)
    best = {start: 0}
    heap = [(0, start)]
    while heap:
        cost, black = heapq.heappop(heap)
        if black == full:
            return cost
        if cost > best[black]:
            continue
        for v, nb in enumerate(masks):
            white = nb & ~black & ~(1 << v)
            buy = (0 if black >> v & 1 else 1) + max(bin(white).count("1") - 1, 0)
            if not buy:
                continue
            nxt = close(masks, black | 1 << v | white)
            if cost + buy < best.get(nxt, full.bit_length() + 1):
                best[nxt] = cost + buy
                heapq.heappush(heap, (cost + buy, nxt))
    raise AssertionError("the full vertex set always forces")


def max_eigen_multiplicity(g: nx.Graph) -> int:
    values = np.linalg.eigvalsh(nx.to_numpy_array(g, nodelist=sorted(g)))
    best = run = 1
    for a, b in zip(values, values[1:]):
        run = run + 1 if b - a <= CLUSTER_GAP else 1
        best = max(best, run)
    return best


def twin_bound(g: nx.Graph) -> int:
    classes = Counter(frozenset(g[v]) for v in g)
    return sum(size - 1 for size in classes.values())


def invariant_hash(g: nx.Graph) -> str:
    """Isomorphism-invariant hash that separates regular graphs: WL refinement
    seeded by each vertex's closed-walk counts (diagonals of A^2..A^8)."""
    a = nx.to_numpy_array(g, nodelist=sorted(g), dtype=np.int64)
    power = a.copy()
    walks = [[] for _ in range(len(a))]
    for _ in range(2, 9):
        power = power @ a
        for v, count in enumerate(np.diag(power)):
            walks[v].append(int(count))
    h = g.copy()
    nx.set_node_attributes(h, {v: str(walks[v]) for v in h}, "walks")
    return nx.weisfeiler_lehman_graph_hash(h, node_attr="walks", iterations=4)


def isomorphism_classes(graphs) -> int:
    """Number of isomorphism classes among the graphs (hash buckets, then
    networkx isomorphism inside each bucket)."""
    buckets = {}
    classes = 0
    for g in graphs:
        reps = buckets.setdefault(invariant_hash(g), [])
        if not any(nx.is_isomorphic(g, r) for r in reps):
            reps.append(g)
            classes += 1
    return classes
