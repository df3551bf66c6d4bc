"""Dense symmetric eigensolver plus every nullity lower bound the library knows.

Spectra come from LAPACK's symmetric eigensolver (`numpy.linalg.eigh`); every
decomposition reports its reconstruction and orthogonality residuals, and the
multiplicity bound refuses one whose residuals exceed 1e-8.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forcing import zero_forcing_number
from .graphs import Graph, _layers

CLUSTER_GAP = 1e-6


@dataclass(frozen=True)
class SpectralReport:
    eigenvalues: tuple    # ascending
    residual: float       # max |Q diag(w) Q^T - A|
    orthogonality: float  # max |Q^T Q - I|

    def max_multiplicity(self) -> int:
        """Length of the longest run of eigenvalues whose neighbours differ by
        at most CLUSTER_GAP (single linkage); 0 for an empty spectrum."""
        values = self.eigenvalues
        best = run = 1 if values else 0
        for a, b in zip(values, values[1:]):
            run = run + 1 if b - a <= CLUSTER_GAP else 1
            best = max(best, run)
        return best


def adjacency_matrix(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n))
    for u, v in g.edges:
        a[u, v] = a[v, u] = 1.0
    return a


def eigen_decomposition(matrix: np.ndarray) -> SpectralReport:
    """Full spectrum of a real symmetric matrix, ascending, by `numpy.linalg.eigh`.

    `eigh` reads one triangle only, so the input is checked for finite
    entries and symmetry first.
    """
    a0 = np.asarray(matrix, dtype=float)
    if a0.ndim != 2 or a0.shape[0] != a0.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a0.shape}")
    n = a0.shape[0]
    if not np.isfinite(a0).all():
        raise ValueError("matrix has a non-finite entry")
    if n and float(np.abs(a0 - a0.T).max()) > 1e-12:
        raise ValueError("matrix is not symmetric")
    values, q = np.linalg.eigh(a0)
    residual = float(np.abs(q @ np.diag(values) @ q.T - a0).max()) if n else 0.0
    orthogonality = float(np.abs(q.T @ q - np.eye(n)).max()) if n else 0.0
    # Python floats: cheaper to loop over
    return SpectralReport(eigenvalues=tuple(values.tolist()), residual=residual,
                          orthogonality=orthogonality)


def max_multiplicity_bound(g: Graph) -> int:
    """Largest eigenvalue multiplicity of the adjacency matrix.

    Shifting the adjacency matrix by any eigenvalue stays inside the matrix
    family of the graph and has that multiplicity as its nullity, so this is
    a lower bound on the maximum nullity.  A decomposition whose residual or
    orthogonality error exceeds 1e-8 raises RuntimeError.
    """
    if g.n == 0:
        raise ValueError("empty graph")
    report = eigen_decomposition(adjacency_matrix(g))
    if max(report.residual, report.orthogonality) > 1e-8:
        raise RuntimeError("eigh decomposition failed its check: residual "
                           f"{report.residual:.3g}, orthogonality "
                           f"{report.orthogonality:.3g}")
    return report.max_multiplicity()


def twin_bound(g: Graph) -> int:
    """Sum of (class size - 1) over the classes of vertices with equal open
    neighborhoods, which is n minus the number of distinct neighborhoods;
    equal adjacency rows make this a lower bound on the maximum nullity."""
    return g.n - len(set(g.bits))


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
    masks = []
    for i, s in enumerate(sets):
        if not s:
            return f"branch set {i} is empty"
        for v in s:
            if not 0 <= v < g.n:
                return f"branch set {i} references vertex {v} out of range"
        mask = sum(1 << v for v in s)
        if any(m & mask for m in masks):
            return f"branch set {i} overlaps an earlier one"
        masks.append(mask)
        if sum(_layers([b & mask for b in g.bits], mask & -mask)) != mask:
            return f"branch set {i} does not induce a connected subgraph"
    for i, s in enumerate(sets):
        reach = 0
        for u in s:
            reach |= g.bits[u]
        for j in range(i + 1, len(sets)):
            if not reach & masks[j]:
                return f"no edge joins branch sets {i} and {j}"
    return None


@dataclass(frozen=True)
class BoundsReport:
    """Lower bounds on maximum nullity against the zero forcing upper bound.

    `m` is the pinned maximum nullity when the bounds meet, otherwise None
    and the truth lies in [lower, upper] (upper may be None on an exhausted
    solver budget).
    """

    lower_bounds: tuple   # (source, value) pairs
    upper: int | None
    upper_floor: int      # proven lower bound on the forcing number
    witness: frozenset | None

    @property
    def lower(self) -> int:
        return max(value for _, value in self.lower_bounds)

    @property
    def m(self) -> int | None:
        return self.lower if self.upper == self.lower else None


def bounds_report(g: Graph, models=(), budget: int | None = None) -> BoundsReport:
    """Best maximum-nullity sandwich for a connected graph.

    `models` are complete-minor models; each must verify, and a verified
    model of target k contributes the lower bound k - 1.  L <= M <= Z, so
    `upper_floor` is at least L.
    """
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
    if budget is not None and lower > budget:
        # Z >= M >= L > budget: no witness fits, so skip the search.  The
        # solver's floor would be budget + 1 <= L, or the least degree, a
        # floor on Z it proves without a search
        floor = max(lower, g.min_degree())
        return BoundsReport(lower_bounds=tuple(sources), upper=None,
                            upper_floor=floor, witness=None)
    result = zero_forcing_number(g, budget=budget)
    if result.exact and lower > result.z:
        raise AssertionError(f"lower bound {lower} exceeds zero forcing "
                             f"number {result.z}; one of them is wrong")
    return BoundsReport(lower_bounds=tuple(sources), upper=result.z,
                        upper_floor=max(result.lower_bound, lower),
                        witness=result.witness)
