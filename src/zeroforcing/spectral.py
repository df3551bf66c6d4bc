"""Dense symmetric eigensolver plus every nullity lower bound the library knows.

Spectra come from LAPACK's symmetric eigensolver (`numpy.linalg.eigh`); every
decomposition reports its reconstruction and orthogonality residuals, so a
bad one is visible rather than trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .forcing import zero_forcing_number
from .graph6 import write_graph6
from .graphs import Graph

CLUSTER_GAP = 1e-6


@dataclass(frozen=True)
class EigenCluster:
    value: float          # mean of the grouped eigenvalues
    multiplicity: int


@dataclass(frozen=True)
class SpectralReport:
    eigenvalues: tuple    # ascending
    clusters: tuple       # EigenCluster, ascending by value
    residual: float       # max |Q diag(w) Q^T - A|
    orthogonality: float  # max |Q^T Q - I|

    def max_multiplicity(self) -> int:
        return max(c.multiplicity for c in self.clusters)

    def multiplicity_near(self, value: float, tol: float = CLUSTER_GAP) -> int:
        """Total multiplicity of eigenvalues within tol of `value`."""
        return sum(1 for ev in self.eigenvalues if abs(ev - value) <= tol)


def adjacency_matrix(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n))
    for u, v in g.edges:
        a[u, v] = a[v, u] = 1.0
    return a


def eigen_decomposition(matrix: np.ndarray,
                        cluster_gap: float = CLUSTER_GAP) -> SpectralReport:
    """Full spectrum of a real symmetric matrix, ascending, by `numpy.linalg.eigh`.

    `eigh` reads one triangle only, so the input is checked for symmetry
    first.  Eigenvalues within `cluster_gap` of each other (single linkage)
    are reported as one cluster.
    """
    a0 = np.asarray(matrix, dtype=float)
    if a0.ndim != 2 or a0.shape[0] != a0.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a0.shape}")
    n = a0.shape[0]
    if n and float(np.abs(a0 - a0.T).max()) > 1e-12:
        raise ValueError("matrix is not symmetric")
    values, q = np.linalg.eigh(a0)
    residual = float(np.abs(q @ np.diag(values) @ q.T - a0).max()) if n else 0.0
    orthogonality = float(np.abs(q.T @ q - np.eye(n)).max()) if n else 0.0

    eigenvalues = values.tolist()     # Python floats: cheaper to loop over
    clusters = []
    start = 0
    for i in range(1, n + 1):
        if i == n or eigenvalues[i] - eigenvalues[i - 1] > cluster_gap:
            group = eigenvalues[start:i]
            clusters.append(EigenCluster(math.fsum(group) / len(group), len(group)))
            start = i
    return SpectralReport(eigenvalues=tuple(eigenvalues),
                          clusters=tuple(clusters),
                          residual=residual,
                          orthogonality=orthogonality)


def max_multiplicity_bound(g: Graph) -> int:
    """Largest eigenvalue multiplicity of the adjacency matrix.

    Shifting the adjacency matrix by any eigenvalue stays inside the matrix
    family of the graph and has that multiplicity as its nullity, so this is
    a lower bound on the maximum nullity.
    """
    if g.n == 0:
        raise ValueError("empty graph")
    return eigen_decomposition(adjacency_matrix(g)).max_multiplicity()


def twin_classes(g: Graph) -> tuple:
    """Maximal classes of vertices with identical open neighborhoods."""
    groups = {}
    for v in range(g.n):
        groups.setdefault(g.bits[v], []).append(v)
    return tuple(tuple(vs) for vs in groups.values() if len(vs) > 1)


def twin_bound(g: Graph) -> int:
    """Sum of (class size - 1) over twin classes; equal adjacency rows make
    this a lower bound on the maximum nullity."""
    return sum(len(c) - 1 for c in twin_classes(g))


@dataclass(frozen=True)
class MinorModel:
    """Disjoint connected branch sets witnessing a complete-graph minor."""

    branch_sets: tuple    # frozensets of host vertices
    target: int           # complete graph order k

    def __post_init__(self):
        object.__setattr__(self, "branch_sets",
                           tuple(frozenset(s) for s in self.branch_sets))


def minor_model_violation(g: Graph, model: MinorModel) -> str | None:
    """First violated model condition, or None when the model is valid."""
    sets = model.branch_sets
    if len(sets) != model.target:
        return f"model has {len(sets)} branch sets, target needs {model.target}"
    used = set()
    for i, s in enumerate(sets):
        if not s:
            return f"branch set {i} is empty"
        for v in s:
            if not 0 <= v < g.n:
                return f"branch set {i} references vertex {v} out of range"
        if used & s:
            return f"branch set {i} overlaps an earlier one"
        used |= s
        if not g.induced(s).is_connected():
            return f"branch set {i} does not induce a connected subgraph"
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if not any(g.has_edge(u, v) for u in sets[i] for v in sets[j]):
                return f"no edge joins branch sets {i} and {j}"
    return None


def find_clique_minor(g: Graph, k: int, max_vertices: int = 12) -> MinorModel | None:
    """Bounded exhaustive search for a complete-minor model covering V(g).

    Scans the partitions of the vertex set into k nonempty parts; intended
    for single instances, hence the hard size guard.
    """
    if g.n > max_vertices:
        raise ValueError(f"bounded search handles at most {max_vertices} vertices")
    if k < 1 or k > g.n:
        return None

    parts: list = [[0]]

    def rec(v):
        if v == g.n:
            if len(parts) != k:
                return None
            sets = [frozenset(p) for p in parts]
            model = MinorModel(branch_sets=tuple(sets), target=k)
            if minor_model_violation(g, model) is None:
                return model
            return None
        if len(parts) + (g.n - v) < k:
            return None
        for p in parts:
            p.append(v)
            found = rec(v + 1)
            if found:
                return found
            p.pop()
        if len(parts) < k:
            parts.append([v])
            found = rec(v + 1)
            if found:
                return found
            parts.pop()
        return None

    return rec(1)


@dataclass(frozen=True)
class BoundsReport:
    """Lower bounds on maximum nullity against the zero forcing upper bound.

    `m` is the pinned maximum nullity when the bounds meet, otherwise None
    and the truth lies in [lower, upper] (upper may be None on an exhausted
    solver budget).
    """

    graph6: str
    lower_bounds: tuple   # (source, value) pairs
    lower: int
    upper: int | None
    upper_floor: int      # proven lower bound on the forcing number
    witness: frozenset | None
    m: int | None

    @property
    def verdict(self) -> str:
        if self.m is not None:
            return f"M={self.m}"
        upper = self.upper if self.upper is not None else "?"
        return f"M in [{self.lower},{upper}]"

    def to_text(self) -> str:
        tags = " ".join(f"{name}={value}" for name, value in self.lower_bounds)
        upper = str(self.upper) if self.upper is not None else \
            f"unknown (>= {self.upper_floor})"
        lines = [f"graph6: {self.graph6}",
                 f"L: {self.lower} [{tags}]",
                 f"U: {upper}"]
        if self.witness is not None:
            lines.append("witness: {" + ",".join(map(str, sorted(self.witness))) + "}")
        else:
            lines.append("witness: -")
        lines.append(f"verdict: {self.verdict}")
        return "\n".join(lines)


def bounds_report(g: Graph, models=(), budget: int | None = None) -> BoundsReport:
    """Best maximum-nullity sandwich for a connected graph.

    `models` are complete-minor models; each must verify, and a verified
    model of target k contributes the lower bound k - 1.  The graph6 record
    is encoded first, so a graph beyond the codec fails before any solving.
    """
    graph6 = write_graph6(g)
    if not g.is_connected():
        raise ValueError("bounds are reported for connected graphs")
    eig = max_multiplicity_bound(g)
    twins = twin_bound(g)
    sources = [("eigenvalue", eig), ("twin", twins)]
    for model in models:
        problem = minor_model_violation(g, model)
        if problem:
            raise ValueError(f"invalid minor model: {problem}")
        sources.append(("minor", model.target - 1))
    lower = max(value for _, value in sources)
    result = zero_forcing_number(g, budget=budget)
    if result.exact and lower > result.z:
        raise AssertionError(f"lower bound {lower} exceeds zero forcing "
                             f"number {result.z}; one of them is wrong")
    upper = result.z
    return BoundsReport(graph6=graph6,
                        lower_bounds=tuple(sources),
                        lower=lower,
                        upper=upper,
                        upper_floor=result.lower_bound,
                        witness=result.witness,
                        m=lower if upper == lower else None)
