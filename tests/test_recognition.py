"""Membership recognition for cubic graphs with forcing number 3."""

import random
from types import SimpleNamespace

import pytest

from conftest import load_catalog
from util import (complete_bipartite, index_spec, mapping_is_valid,
                  permuted_copy, random_family_spec)
from zeroforcing import (Graph, build_family, canonical_labelling,
                         complete_graph, family_members, heawood_graph,
                         permutation_prism, recognition, recognize_z3,
                         zero_forcing_number)

TRIANGULAR_PRISM = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                             (0, 3), (1, 4), (2, 5)])


def pendant_block_edges(offset):
    """5-vertex hub-plus-diamond gadget whose hub has one free slot."""
    a, x, y, w, z = range(offset, offset + 5)
    return [(a, x), (a, y), (x, w), (x, z), (y, w), (y, z), (w, z)], a


def bridged_cubic() -> Graph:
    """Two pendant blocks joined hub to hub: cubic with a bridge."""
    left, hub_l = pendant_block_edges(0)
    right, hub_r = pendant_block_edges(5)
    return Graph(10, left + right + [(hub_l, hub_r)])


def two_cut_cubic() -> Graph:
    """Two chorded squares joined by a matching: cubic with a 2-edge cut."""
    return Graph(8, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3),
                     (4, 5), (4, 6), (4, 7), (5, 6), (5, 7),
                     (2, 6), (3, 7)])


def relabelled_members(seed: int, orders):
    """(spec, member, relabelled copy) for every member of the orders."""
    rng = random.Random(seed)
    for order in orders:
        for spec, member in family_members(order):
            yield spec, member, permuted_copy(rng, member)


class TestCertificates:
    def test_k4_member(self):
        result = recognize_z3(complete_graph(4))
        assert result.member
        assert result.spec.label() == "apex(T0)"
        rebuilt = build_family(result.spec)
        assert mapping_is_valid(rebuilt, complete_graph(4), result.mapping)

    def test_prism_member(self):
        result = recognize_z3(TRIANGULAR_PRISM)
        assert result.member
        assert result.spec.label() == "apex(T1)"
        assert canonical_labelling(build_family(result.spec))[0] == \
            canonical_labelling(TRIANGULAR_PRISM)[0]

    def test_heawood_not_member(self):
        result = recognize_z3(heawood_graph())
        assert not result.member
        assert result.z == 6

    def test_k33_not_member(self):
        result = recognize_z3(complete_bipartite(3, 3))
        assert not result.member
        assert result.z == 4

    def test_bridge_fast_rejection(self):
        g = bridged_cubic()
        assert g.is_cubic() and g.is_connected()
        result = recognize_z3(g)
        assert not result.member
        assert result.edge_connectivity == 1
        assert result.z is None          # rejected before any solver call

    def test_two_cut_fast_rejection(self):
        g = two_cut_cubic()
        assert g.is_cubic() and g.is_connected()
        result = recognize_z3(g)
        assert not result.member
        assert result.edge_connectivity == 2


class TestOrderOfChecks:
    def test_non_members_are_solved_without_walking(self, monkeypatch):
        # edge connectivity below 3 and Z != 3 both reject before the walk
        def no_walk(*args):
            pytest.fail("a non-member was walked")
        monkeypatch.setattr(recognition, "_least_parse", no_walk)
        for g, z in ((heawood_graph(), 6), (complete_bipartite(3, 3), 4)):
            result = recognize_z3(g)
            assert not result.member and result.z == z
        for g, kappa in ((bridged_cubic(), 1), (two_cut_cubic(), 2)):
            result = recognize_z3(g)
            assert not result.member and result.edge_connectivity == kappa

    def test_z3_without_a_matching_member_refutes_the_characterization(
            self, monkeypatch):
        # K3,3 is cubic with edge connectivity 3 and Z = 4; report Z = 3.
        # It has no triangle, so no apex starts a walk and no parse exists
        monkeypatch.setattr(recognition, "zero_forcing_number",
                            lambda g: SimpleNamespace(z=3))
        with pytest.raises(AssertionError, match="refute"):
            recognize_z3(complete_bipartite(3, 3))


class TestPreconditions:
    def test_non_cubic_rejected(self):
        with pytest.raises(ValueError, match="cubic"):
            recognize_z3(complete_graph(5))

    def test_disconnected_rejected(self, monkeypatch):
        # edge connectivity 0 decides it: no second search, and no solve
        def fail(*args):
            raise AssertionError("recognition ran more than edge connectivity")

        monkeypatch.setattr(Graph, "is_connected", fail)
        monkeypatch.setattr(recognition, "zero_forcing_number", fail)
        rng = random.Random(19)
        fixtures = [g for order in (4, 6, 8, 10) for g in load_catalog(order)]
        pairs = [(complete_graph(4), complete_graph(4)),
                 (complete_graph(4), TRIANGULAR_PRISM)]
        pairs += [(rng.choice(fixtures), rng.choice(fixtures))
                  for _ in range(60)]
        for a, b in pairs:
            union = Graph(a.n + b.n, list(a.edges)
                          + [(u + a.n, v + a.n) for u, v in b.edges])
            for g in (union, permuted_copy(rng, union)):
                with pytest.raises(ValueError, match="connected graphs"):
                    recognize_z3(g)


class TestAgreementWithSolver:
    def test_catalog_through_order_ten(self):
        for order in (4, 6, 8, 10):
            for g in load_catalog(order):
                result = recognize_z3(g)
                assert result.member == (zero_forcing_number(g).z == 3)
                if result.member:
                    assert mapping_is_valid(build_family(result.spec), g,
                                            result.mapping)

    def test_catalog_at_order_fourteen(self):
        verdicts = [recognize_z3(g).member for g in load_catalog(14)]
        solved = [zero_forcing_number(g).z == 3 for g in load_catalog(14)]
        assert verdicts == solved
        assert sum(verdicts) == 10

    def test_relabelled_members_through_order_eighteen(self):
        # each is recognized with its `family_members` spec and a valid
        # mapping, and the same input gives the same mapping again
        for spec, member, g in relabelled_members(18, range(4, 19, 2)):
            result = recognize_z3(g)
            assert result.member and result.spec == spec
            assert mapping_is_valid(member, g, result.mapping)
            assert recognize_z3(Graph(g.n, g.edges)).mapping == result.mapping

    def test_specs_match_the_index_oracle(self):
        # every relabelled member through order 20 and every fixture through
        # order 14; the oracle reports None where no assembly is isomorphic
        graphs = [g for _, _, g in relabelled_members(20, range(4, 21, 2))]
        assert len(graphs) == 310
        graphs += [g for order in range(4, 15, 2) for g in load_catalog(order)]
        for g in graphs:
            assert recognize_z3(g).spec == index_spec(g)

    def test_walk_parses_exactly_the_members(self):
        # the walk alone, on every fixture through order 14, Z != 3 included
        for order in range(4, 15, 2):
            for g in load_catalog(order):
                mapping = recognition._least_parse(g)[1]
                assert (mapping is not None) == (index_spec(g) is not None)

    def test_random_members_of_large_order(self):
        rng = random.Random(62)
        for order in (24, 40, 62):
            for _ in range(4):
                built = build_family(random_family_spec(rng, order))
                g = permuted_copy(rng, built)
                result = recognize_z3(g)
                assert result.member and g.n == order
                member = build_family(result.spec)
                assert mapping_is_valid(member, g, result.mapping)
                assert canonical_labelling(member)[0] == canonical_labelling(g)[0]
        result = recognize_z3(permutation_prism(31))
        assert not result.member and result.z == 4

    def test_members_never_have_small_cuts(self):
        from zeroforcing import edge_connectivity
        for order in (4, 6, 8, 10):
            for g in load_catalog(order):
                if recognize_z3(g).member:
                    assert edge_connectivity(g) >= 3
