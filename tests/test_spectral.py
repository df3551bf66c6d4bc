"""Eigensolver, multiplicity/twin/minor lower bounds, and the bounds report."""

import itertools
import math
import random

import networkx
import numpy as np
import pytest
import sympy

from conftest import load_catalog
from util import (atlas_graphs, naive_eigen_clusters, random_connected_graph,
                  random_graph)
from zeroforcing import spectral
from zeroforcing import (Graph, MinorModel, adjacency_matrix, bounds_report,
                         complete_bipartite, complete_graph, cycle_graph,
                         eigen_decomposition, heawood_graph,
                         max_multiplicity_bound, minor_model_violation,
                         necklace, path_graph, permutation_prism, twin_bound,
                         twin_classes, zero_forcing_number)
from zeroforcing.cli import main

# a K5-minor model of permutation_prism(5, (1, 2)), checked by
# minor_model_violation in TestMinorModels
SWAPPED_PRISM_K5 = MinorModel(branch_sets=({0, 4}, {1, 2}, {3, 8}, {5, 9},
                                           {6, 7}), target=5)


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph(10, outer + inner + spokes)


class TestEigenDecomposition:
    def test_triangle_spectrum(self):
        report = eigen_decomposition(adjacency_matrix(complete_graph(3)))
        assert np.allclose(report.eigenvalues, [-1, -1, 2], atol=1e-10)
        assert [(round(c.value), c.multiplicity) for c in report.clusters] == \
            [(-1, 2), (2, 1)]

    def test_square_spectrum(self):
        report = eigen_decomposition(adjacency_matrix(cycle_graph(4)))
        assert np.allclose(report.eigenvalues, [-2, 0, 0, 2], atol=1e-10)

    def test_five_cycle_matches_cosine_formula(self):
        expected = sorted(2 * math.cos(2 * math.pi * k / 5) for k in range(5))
        report = eigen_decomposition(adjacency_matrix(cycle_graph(5)))
        assert np.allclose(report.eigenvalues, expected, atol=1e-10)

    def test_heawood_clusters(self):
        report = eigen_decomposition(adjacency_matrix(heawood_graph()))
        got = [(c.value, c.multiplicity) for c in report.clusters]
        expected = [(-3, 1), (-math.sqrt(2), 6), (math.sqrt(2), 6), (3, 1)]
        assert len(got) == 4
        for (value, mult), (evalue, emult) in zip(got, expected):
            assert mult == emult
            assert abs(value - evalue) <= 1e-6

    def test_residuals_and_numpy_agreement(self):
        rng = np.random.default_rng(30)
        for _ in range(25):
            n = int(rng.integers(1, 21))
            m = rng.normal(size=(n, n))
            m = (m + m.T) / 2
            report = eigen_decomposition(m)
            assert report.residual <= 1e-8
            assert report.orthogonality <= 1e-8
            assert np.allclose(report.eigenvalues, np.linalg.eigvalsh(m),
                               atol=1e-9)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            eigen_decomposition(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            eigen_decomposition(np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        # NaN compares false, so only an explicit check keeps it out of eigh;
        # a symmetric pair of infinities would also pass a symmetry check
        with pytest.raises(ValueError, match="non-finite"):
            eigen_decomposition(np.array([[bad, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="non-finite"):
            eigen_decomposition(np.array([[0.0, bad], [bad, 1.0]]))

    def test_shift_identity(self):
        # multiplicity of an eigenvalue equals the nullity of the shifted matrix
        rng = random.Random(31)
        for _ in range(20):
            g = random_graph(rng, rng.randint(2, 10))
            a = adjacency_matrix(g)
            report = eigen_decomposition(a)
            for cluster in report.clusters:
                shifted = eigen_decomposition(a - cluster.value * np.eye(g.n))
                assert shifted.multiplicity_near(0.0) == cluster.multiplicity

    def test_cluster_report_stable_across_tolerances(self):
        for g in (complete_graph(4), cycle_graph(4), complete_bipartite(3, 3),
                  petersen(), cycle_graph(6)):
            a = adjacency_matrix(g)
            reference = [c.multiplicity for c in eigen_decomposition(a).clusters]
            for gap in (1e-9, 1e-8, 1e-7, 1e-6):
                _, clusters = naive_eigen_clusters(a, gap)
                assert [k for _, k in clusters] == reference

    def test_clusters_match_numpy_reference(self):
        # random symmetric matrices, some with planted repeated eigenvalues;
        # n = 0 and n = 1; K10, whose -1 has multiplicity 9; Petersen,
        # Heawood and the cubic12 fixtures
        rng = np.random.default_rng(32)
        cases = [np.zeros((0, 0)), np.array([[2.5]])]
        for _ in range(40):
            n = int(rng.integers(1, 25))
            m = rng.normal(size=(n, n))
            cases.append((m + m.T) / 2)
            q = np.linalg.qr(rng.normal(size=(n, n)))[0]
            w = rng.choice(rng.normal(size=3), size=n)
            cases.append(q @ np.diag(w) @ q.T)
            if n > 3:   # n eigenvalues drawn from three values repeat
                assert eigen_decomposition(cases[-1]).max_multiplicity() > 1
        for g in [complete_graph(10), petersen(), heawood_graph(),
                  *load_catalog(12)]:
            cases.append(adjacency_matrix(g))
        largest = 0
        for matrix in cases:
            report = eigen_decomposition(matrix)
            values, clusters = naive_eigen_clusters(matrix, spectral.CLUSTER_GAP)
            assert report.eigenvalues == values
            assert [c.multiplicity for c in report.clusters] == \
                [k for _, k in clusters]
            for c, (mean, _) in zip(report.clusters, clusters):
                assert abs(c.value - mean) <= 1e-12
            largest = max([largest] + [c.multiplicity for c in report.clusters])
        assert largest >= 9


def exact_max_multiplicity(g: Graph) -> int:
    """Largest root multiplicity of the characteristic polynomial, in integer
    arithmetic; for a symmetric matrix this equals the largest eigenspace
    dimension."""
    a = sympy.Matrix(g.n, g.n, lambda i, j: int(g.has_edge(i, j)))
    _, factors = sympy.sqf_list(a.charpoly())
    return max(k for _, k in factors)


class TestMultiplicityBound:
    def test_matches_exact_charpoly(self):
        graphs = [g for order in range(4, 13, 2) for g in load_catalog(order)]
        graphs += [petersen(), heawood_graph()]
        assert len(graphs) == 114
        for g in graphs:
            assert max_multiplicity_bound(g) == exact_max_multiplicity(g), g.edges

    def test_k5(self):
        assert max_multiplicity_bound(complete_graph(5)) == 4

    def test_heawood(self):
        assert max_multiplicity_bound(heawood_graph()) == 6

    def test_petersen(self):
        assert max_multiplicity_bound(petersen()) == 5

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="empty graph"):
            max_multiplicity_bound(Graph(0))

    def test_unchecked_decomposition_is_refused(self, monkeypatch, tmp_path,
                                                capsys):
        # an eigenvector basis off by 1e-6 fails the residual and orthogonality
        # checks: the bound raises, and the CLI skips the record
        eigh = np.linalg.eigh

        def perturbed(a):
            values, q = eigh(a)
            return values, q + 1e-6

        monkeypatch.setattr(spectral.np.linalg, "eigh", perturbed)
        report = eigen_decomposition(adjacency_matrix(petersen()))
        assert report.residual > 1e-8 and report.orthogonality > 1e-8
        with pytest.raises(RuntimeError, match="residual"):
            max_multiplicity_bound(petersen())
        path = tmp_path / "k4.g6"
        path.write_text("C~\n")
        assert main(["bounds", "--in", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("line 1: eigh decomposition failed its check")


class TestTwins:
    def test_k33(self):
        assert twin_bound(complete_bipartite(3, 3)) == 4

    def test_necklace(self):
        assert twin_bound(necklace(3)) == 6

    def test_path_has_none(self):
        assert twin_bound(path_graph(5)) == 0
        assert twin_classes(path_graph(5)) == ()

    def test_classes_match_networkx_neighborhoods(self):
        # every graph with 0-7 vertices: vertices grouped by their networkx
        # neighbor set, groups in order of their least vertex
        for h in networkx.graph_atlas_g():
            groups = {}
            for v in sorted(h):
                groups.setdefault(frozenset(h[v]), []).append(v)
            expected = tuple(tuple(vs) for vs in groups.values() if len(vs) > 1)
            g = Graph(h.number_of_nodes(), list(h.edges()))
            assert twin_classes(g) == expected, h.edges()

    def test_adjacency_nullity_certifies_twin_bound(self):
        # equal rows for twins force at least twin_bound zero eigenvalues
        for n in range(2, 7):
            for g in atlas_graphs(n):
                bound = twin_bound(g)
                if bound:
                    report = eigen_decomposition(adjacency_matrix(g))
                    assert report.multiplicity_near(0.0) >= bound

    def test_twin_bound_below_forcing_number(self):
        for n in range(1, 7):
            for g in atlas_graphs(n):
                assert twin_bound(g) <= zero_forcing_number(g).z


class TestMinorModels:
    def test_complete_graph_singletons(self):
        g = complete_graph(5)
        model = MinorModel(branch_sets=tuple(frozenset({v}) for v in range(5)),
                           target=5)
        assert minor_model_violation(g, model) is None

    def test_disconnected_branch_set(self):
        g = cycle_graph(6)
        model = MinorModel(branch_sets=(frozenset({0, 3}), frozenset({1}),
                                        frozenset({2})), target=3)
        assert minor_model_violation(g, model) is not None
        assert "connected" in minor_model_violation(g, model)

    def test_overlap_and_range_and_count(self):
        g = complete_graph(4)
        overlap = MinorModel((frozenset({0, 1}), frozenset({1, 2})), 2)
        assert "overlaps" in minor_model_violation(g, overlap)
        out = MinorModel((frozenset({7}),), 1)
        assert "out of range" in minor_model_violation(g, out)
        short = MinorModel((frozenset({0}),), 2)
        assert "branch sets" in minor_model_violation(g, short)
        empty = MinorModel((frozenset(), frozenset({0})), 2)
        assert "empty" in minor_model_violation(g, empty)

    def test_missing_cross_edge(self):
        g = path_graph(4)
        model = MinorModel((frozenset({0}), frozenset({3})), 2)
        assert "no edge joins" in minor_model_violation(g, model)

    def test_search_respects_frozen_model(self):
        g = permutation_prism(5, (1, 2))
        assert minor_model_violation(g, SWAPPED_PRISM_K5) is None

    def test_matches_networkx(self):
        # random models, some with empty, out-of-range, overlapping,
        # disconnected or unjoined branch sets, against networkx's reading
        rng = random.Random(31)
        valid = 0
        for _ in range(2500):
            n = rng.randint(1, 12)
            g = random_graph(rng, n, rng.choice((0.3, 0.5, 0.8)))
            h = networkx.Graph(list(g.edges))
            h.add_nodes_from(range(n))
            target = rng.randint(1, 5)
            sets = [{rng.randint(-1, n) if rng.random() < 0.05
                     else rng.randrange(n) for _ in range(rng.randint(0, 4))}
                    for _ in range(target)]
            expected = (
                all(s and s <= set(range(n)) for s in sets)
                and sum(map(len, sets)) == len(set().union(*sets))
                and all(networkx.is_connected(h.subgraph(s)) for s in sets)
                and all(any(True for _ in networkx.edge_boundary(h, a, b))
                        for a, b in itertools.combinations(sets, 2)))
            model = MinorModel(sets, target)
            assert (minor_model_violation(g, model) is None) == expected, \
                (sorted(g.edges), sets)
            valid += expected
        assert valid >= 100


class TestBoundsReport:
    def test_k4(self):
        report = bounds_report(complete_graph(4))
        assert dict(report.lower_bounds)["eigenvalue"] == 3
        assert (report.lower, report.upper, report.m) == (3, 3, 3)

    def test_heawood(self):
        report = bounds_report(heawood_graph())
        assert (report.lower, report.upper, report.m) == (6, 6, 6)

    def test_swapped_prism_with_model(self):
        g = permutation_prism(5, (1, 2))
        report = bounds_report(g, models=[SWAPPED_PRISM_K5])
        assert dict(report.lower_bounds)["minor"] == 4
        assert (report.lower, report.upper, report.m) == (4, 4, 4)

    def test_interval_verdict_without_model(self):
        report = bounds_report(permutation_prism(5, (1, 2)))
        assert (report.lower, report.upper, report.m) == (1, 4, None)

    def test_invalid_model_rejected(self):
        g = complete_graph(4)
        bad = MinorModel((frozenset({0, 9}),), 1)
        with pytest.raises(ValueError, match="invalid minor model"):
            bounds_report(g, models=[bad])

    def test_budget_exhaustion(self):
        report = bounds_report(heawood_graph(), budget=4)
        assert (report.lower, report.upper, report.m) == (6, None, None)
        assert (report.upper_floor, report.witness) == (5, None)

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            bounds_report(Graph(4, [(0, 1), (2, 3)]))

    def test_beyond_graph6_range_is_solved(self):
        # past the one-byte graph6 size field (n <= 62): the eigensolver and
        # the solver take a Graph of any size
        assert bounds_report(cycle_graph(64)).m == 2
        report = bounds_report(permutation_prism(40))
        assert (report.lower, report.upper) == (3, 4)

    def test_sandwich_on_small_connected_graphs(self):
        rng = random.Random(32)
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(2, 8))
            report = bounds_report(g)
            assert report.lower <= report.upper
