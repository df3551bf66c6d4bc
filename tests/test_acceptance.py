"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -rA` to see the per-criterion
lines.  Criterion 7 relates Z(G) to the leaves of a layered spanning tree T:
the leaves force G, so Z(G) <= n1(T) = n3(T) + 2.  It does not claim
Z(G) <= Z(T), which is false (the cube: Z = 4, its tree has Z = 2).
"""

import itertools
import math
import random
import time

from conftest import load_catalog
from util import atlas_graphs, naive_closure, random_cubic_connected
from zeroforcing import (adjacency_matrix, bounds_report, complete_graph,
                         counterexample16, degree_census, edge_connectivity,
                         eigen_decomposition, family_members, find_clique_minor,
                         heawood_graph, is_zero_forcing_set, minor_model_violation,
                         necklace, permutation_prism, recognize_z3,
                         spanning_tree, twin_bound, write_graph6,
                         zero_forcing_number)

class Criterion:
    """Times a criterion and prints its PASS/FAIL line."""

    def __init__(self, number, label, limit=None):
        self.number = number
        self.label = label
        self.limit = limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[criterion {self.number}] {status}  {self.label}  "
              f"({elapsed:.2f}s)")
        if exc_type is None and self.limit is not None:
            assert elapsed < self.limit, \
                f"criterion {self.number} exceeded {self.limit}s ({elapsed:.2f}s)"
        return False


def test_criterion_1_k4():
    with Criterion(1, "K4: Z=3 and pinned nullity 3", limit=1.0):
        result = zero_forcing_number(complete_graph(4))
        assert result.z == 3
        report = bounds_report(complete_graph(4))
        assert dict(report.lower_bounds)["eigenvalue"] == 3
        assert report.m == 3


def test_criterion_2_heawood():
    with Criterion(2, "Heawood: Z=6, sqrt(2) multiplicity 6, M=6", limit=5.0):
        g = heawood_graph()
        result = zero_forcing_number(g)     # exhausts every size below 6
        assert result.z == 6
        spectrum = eigen_decomposition(adjacency_matrix(g))
        got = [(c.value, c.multiplicity) for c in spectrum.clusters]
        expected = [(-3.0, 1), (-math.sqrt(2), 6), (math.sqrt(2), 6), (3.0, 1)]
        assert len(got) == len(expected)
        for (value, mult), (evalue, emult) in zip(got, expected):
            assert mult == emult and abs(value - evalue) <= 1e-6
        assert bounds_report(g).m == 6


def test_criterion_3_counterexample_order_16():
    with Criterion(3, "order-16 graph: Z=8 beats the n/3+2 bound", limit=30.0):
        g = counterexample16()
        result = zero_forcing_number(g)     # scans every subset of size <= 8
        assert result.z == 8
        assert result.z > g.n // 3 + 2 == 7


def test_criterion_4_swapped_prisms():
    with Criterion(4, "prisms with one swap: Z=4, K5 minor pins M=4",
                   limit=60.0):
        for n in range(4, 9):
            for gap in range(1, n // 2 + 1):
                sigma = (1, 1 + gap)
                g = permutation_prism(n, sigma)
                result = zero_forcing_number(g)   # no 3-set forces, some 4-set does
                assert result.z == 4, f"prism({n},{sigma})"
                assert any(
                    is_zero_forcing_set(g, cyc)
                    for cyc in _four_cycles(g)), f"prism({n},{sigma})"
        g = permutation_prism(5, (1, 2))
        model = find_clique_minor(g, 5)
        assert model is not None and minor_model_violation(g, model) is None
        report = bounds_report(g, models=[model])
        assert report.m == 4


def _four_cycles(g):
    for quad in itertools.combinations(range(g.n), 4):
        w, x, y, z = quad
        for a, b, c, d in ((w, x, y, z), (w, x, z, y), (w, y, x, z)):
            if (g.has_edge(a, b) and g.has_edge(b, c)
                    and g.has_edge(c, d) and g.has_edge(d, a)):
                yield set(quad)
                break


def test_criterion_5_family_characterization():
    with Criterion(5, "family members have Z=3; catalog converse (n<=12)",
                   limit=300.0):
        for order in range(4, 21):
            for _, g in family_members(order):
                assert g.is_cubic() and g.is_connected()
                assert edge_connectivity(g) >= 3
                assert zero_forcing_number(g).z == 3
        for order in (4, 6, 8, 10, 12):
            for g in load_catalog(order):
                member = recognize_z3(g).member
                assert member == (zero_forcing_number(g).z == 3)


def test_criterion_6_necklace():
    with Criterion(6, "necklace(3): Z=8=n/3+2, nullity>=8, twins 6, M=8",
                   limit=120.0):
        g = necklace(3)
        result = zero_forcing_number(g)
        assert result.z == 8 == g.n // 3 + 2
        spectrum = eigen_decomposition(adjacency_matrix(g))
        assert spectrum.multiplicity_near(0.0, tol=1e-6) >= 8
        assert twin_bound(g) == 6
        assert bounds_report(g).m == 8


def test_criterion_7_spanning_tree_properties():
    rng = random.Random(77)
    violations = {"leaves force G": [], "Z(G)<=n3+2": [], "Z(T)<=n3+2": [],
                  "n3<=n/2-1": [], "Z(G)<=n/2+1": []}
    with Criterion(7, "spanning-tree bounds on 200 random cubic graphs"):
        for sample in range(200):
            n = rng.choice((8, 10, 12, 14, 16))
            g = random_cubic_connected(rng, n)
            root = rng.randrange(n)
            tree = spanning_tree(g, root)
            census = degree_census(tree)
            leaves = [v for v in range(n) if tree.tree.degree(v) == 1]
            z_graph = zero_forcing_number(g).z
            z_tree = zero_forcing_number(tree.tree).z
            forced = naive_closure(g, leaves)
            if len(forced) != n:
                violations["leaves force G"].append(
                    (sample, write_graph6(g), root, leaves,
                     sorted(set(range(n)) - forced)))
            if not z_graph <= census.n3 + 2:
                violations["Z(G)<=n3+2"].append((n, root, z_graph, census.n3))
            if not z_tree <= census.n3 + 2:
                violations["Z(T)<=n3+2"].append((n, root))
            if not census.n3 <= n // 2 - 1:
                violations["n3<=n/2-1"].append((n, root))
            if not z_graph <= n // 2 + 1:
                violations["Z(G)<=n/2+1"].append((n, root))
        for name, found in violations.items():
            print(f"  [criterion 7] {name}: {len(found)} violations")
        found = violations["leaves force G"]
        assert not found, (
            f"the tree's leaves fail to force G on {len(found)}/200 samples; "
            f"first (sample, graph6, root, leaves, left white): {found[0]}")
        for name in ("Z(G)<=n3+2", "Z(T)<=n3+2", "n3<=n/2-1", "Z(G)<=n/2+1"):
            assert not violations[name], \
                f"{name} violated: {violations[name][:3]}"


def test_criterion_8_solver_matches_exhaustive_oracle():
    with Criterion(8, "solver equals full-subset enumeration on all small graphs"):
        counts = {n: len(atlas_graphs(n)) for n in range(1, 8)}
        assert counts[7] == 1044
        for n in range(1, 8):
            for g in atlas_graphs(n):
                naive = min(
                    (k for k in range(1, g.n + 1)
                     for combo in itertools.combinations(range(g.n), k)
                     if len(naive_closure(g, combo)) == g.n))
                assert zero_forcing_number(g).z == naive


def test_criterion_9_spectral_residuals_and_shift():
    import numpy as np

    from util import random_graph
    with Criterion(9, "eigensolver residuals <= 1e-8; shift identity"):
        rng = np.random.default_rng(99)
        for _ in range(100):
            n = int(rng.integers(1, 21))
            m = rng.normal(size=(n, n))
            m = (m + m.T) / 2
            report = eigen_decomposition(m)
            assert report.residual <= 1e-8
            assert report.orthogonality <= 1e-8
        pyrng = random.Random(99)
        for _ in range(50):
            g = random_graph(pyrng, pyrng.randint(2, 12))
            a = adjacency_matrix(g)
            report = eigen_decomposition(a)
            for cluster in report.clusters:
                shifted = eigen_decomposition(a - cluster.value * np.eye(g.n))
                assert shifted.multiplicity_near(0.0) == cluster.multiplicity
