"""Closure, forcing-set checks, and the exact solver against naive oracles."""

import itertools
import random

import networkx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import load_catalog
from util import (is_zero_forcing_set, naive_closure, naive_colex_least,
                  naive_wavefront, neighbor_sets, path_graph, random_graph,
                  reference_close_mask, reference_wavefront)
from zeroforcing import (Graph, closure, complete_graph, connected_cubic_graphs,
                         cycle_graph, family_members, forcing, heawood_graph,
                         necklace, permutation_prism, zero_forcing_number)

# every graph with 1 to 7 vertices, up to isomorphism (1252 graphs)
ATLAS = [Graph(h.number_of_nodes(), list(h.edges()))
         for h in networkx.graph_atlas_g()[1:]]

# K4 + C4 + P3: Z = 3 + 2 + 1
PIECES = Graph(11, list(complete_graph(4).edges)
               + [(u + 4, v + 4) for u, v in cycle_graph(4).edges]
               + [(8, 9), (9, 10)])


def assert_forcing_witness(g, result, where=""):
    """The witness has Z members and forces g under the naive closure."""
    assert len(result.witness) == result.z, where
    assert naive_closure(g, result.witness) == set(range(g.n)), where


def assert_minimum_witness(g, result, where=""):
    """Z equals brute force, and the witness is a forcing set of that size."""
    assert result.z == naive_colex_least(g)[0], where
    assert_forcing_witness(g, result, where)


@st.composite
def graph_and_set(draw, max_n=9):
    n = draw(st.integers(1, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    g = Graph(n, [e for i, e in enumerate(pairs) if (mask >> i) & 1])
    vmask = draw(st.integers(0, (1 << n) - 1))
    return g, frozenset(v for v in range(n) if (vmask >> v) & 1)


def validate_trace(g, initial, derived):
    """Replay the forces and re-check legality of every step."""
    nbrs = neighbor_sets(g)
    black = set(initial)
    forced = set()
    for u, v in derived.trace:
        assert u in black
        assert v not in black
        whites = [w for w in nbrs[u] if w not in black]
        assert whites == [v]
        assert v not in initial
        assert v not in forced
        forced.add(v)
        black.add(v)
    assert black == set(derived.black)
    # no further force is possible at the fixpoint
    for u in black:
        assert len([w for w in nbrs[u] if w not in black]) != 1


class TestClosure:
    def test_k4_three_black(self):
        derived = closure(complete_graph(4), {0, 1, 2})
        assert derived.black == frozenset(range(4))
        assert len(derived.trace) == 1

    def test_path_endpoint(self):
        derived = closure(path_graph(5), {0})
        assert derived.black == frozenset(range(5))
        assert derived.trace == ((0, 1), (1, 2), (2, 3), (3, 4))

    def test_cycle_single_vertex_stalls(self):
        derived = closure(cycle_graph(4), {1})
        assert derived.black == frozenset({1})
        assert derived.trace == ()

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            closure(path_graph(3), {3})

    @given(graph_and_set())
    def test_matches_naive_and_trace_is_legal(self, case):
        g, s = case
        derived = closure(g, s)
        assert set(derived.black) == naive_closure(g, s)
        validate_trace(g, s, derived)

    def test_confluence_under_random_orders(self):
        # applying legal forces in any order reaches the same fixpoint
        rng = random.Random(10)
        for _ in range(100):
            g = random_graph(rng, rng.randint(1, 10))
            s = {v for v in range(g.n) if rng.random() < 0.35}
            expected = set(closure(g, s).black)
            nbrs = neighbor_sets(g)
            black = set(s)
            while True:
                moves = [(u, w[0]) for u in black
                         if len(w := [x for x in nbrs[u] if x not in black]) == 1]
                if not moves:
                    break
                black.add(rng.choice(moves)[1])
            assert black == expected

    @given(graph_and_set())
    def test_monotone_in_initial_set(self, case):
        g, t = case
        sub = frozenset(v for v in t if v % 2 == 0)
        assert set(closure(g, sub).black) <= set(closure(g, t).black)


def start_set_cases():
    """(label, graph) pairs for the start-set contract of `_close_mask`."""
    cases = [(f"cubic{order:02d} #{i}", g) for order in range(4, 13, 2)
             for i, g in enumerate(load_catalog(order), start=1)]
    cases.append(("necklace(3)", necklace(3)))
    rng = random.Random(14)
    cases += [(f"random #{i}", random_graph(rng, rng.randint(2, 12), p=rng.random()))
              for i in range(60)]
    return cases


class TestStartSet:
    def test_distance_two_ball_suffices_after_a_step(self):
        # From a closed s, blackening N[v] changes the white neighbors only of
        # vertices within distance 2 of v, so the closure may start there.
        rng = random.Random(15)
        for label, g in start_set_cases():
            nbrs = neighbor_sets(g)
            full = (1 << g.n) - 1
            for _ in range(3):
                s = naive_closure(g, rng.sample(range(g.n), rng.randint(0, g.n // 3)))
                s_mask = sum(1 << u for u in s)
                for v in range(g.n):
                    closed_nbhd = nbrs[v] | {v}
                    if closed_nbhd <= s:
                        continue
                    near = closed_nbhd.union(*(nbrs[u] for u in nbrs[v]))
                    ball = sum(1 << u for u in near)
                    start = s_mask | sum(1 << u for u in closed_nbhd)
                    got = forcing._close_mask(g.bits, start, full, active=ball)
                    expected = naive_closure(g, s | closed_nbhd)
                    assert got == sum(1 << u for u in expected), f"{label}, v={v}"


class TestCloseKernel:
    def test_matches_the_reference_loop(self):
        # Carrying the white set and not re-queueing the forcer change no
        # force: the kernel returns the mask of the loop before that change
        # and appends its trace, in order, from the whole black set and from
        # a step's distance-2 ball over a closed set.  The last two hosts
        # have masks wider than a machine word.
        rng = random.Random(34)
        cases = start_set_cases()
        cases += [(f"atlas {i}", g) for i, g in enumerate(ATLAS, start=1)
                  if g.is_connected()]
        cases += [("Graph(0)", Graph(0)), ("necklace(20)", necklace(20)),
                  ("permutation_prism(40)", permutation_prism(40))]
        for label, g in cases:
            full = (1 << g.n) - 1
            starts = [(sum(1 << u for u in rng.sample(range(g.n), k)), None)
                      for k in (0, g.n // 4, g.n // 3, g.n // 2)]
            s = reference_close_mask(g.bits, starts[2][0], full)  # closed
            starts += [(s | nv, forcing._ball(g.bits, g.bits[v], nv))
                       for v in range(g.n)
                       if (nv := g.bits[v] | 1 << v) & ~s]
            for black, active in starts:
                got, expected = [], []
                assert (forcing._close_mask(g.bits, black, full, active, got)
                        == reference_close_mask(g.bits, black, full, active,
                                                expected)), f"{label}, {black:#x}"
                assert got == expected, f"{label}, {black:#x}, {active}"


class TestIsZeroForcingSet:
    def test_full_vertex_set(self):
        g = cycle_graph(5)
        assert is_zero_forcing_set(g, range(5))

    def test_cycle_singleton(self):
        assert not is_zero_forcing_set(cycle_graph(4), {0})

    @given(graph_and_set())
    def test_superset_stability(self, case):
        g, s = case
        if is_zero_forcing_set(g, s):
            bigger = set(s) | {0}
            assert is_zero_forcing_set(g, bigger)


class TestSolver:
    def test_paths(self):
        for n in (1, 2, 5, 9):
            result = zero_forcing_number(path_graph(n))
            assert result.z == 1
            assert result.witness == frozenset({0})

    def test_k4_pinned_witness(self):
        result = zero_forcing_number(complete_graph(4))
        assert (result.z, result.witness) == (3, frozenset({0, 1, 2}))

    def test_witness_always_forces(self):
        rng = random.Random(11)
        for _ in range(80):
            g = random_graph(rng, rng.randint(1, 9))
            result = zero_forcing_number(g)
            assert is_zero_forcing_set(g, result.witness)

    def test_matches_naive_small(self):
        rng = random.Random(12)
        for _ in range(120):
            g = random_graph(rng, rng.randint(1, 7), p=rng.random())
            assert_minimum_witness(g, zero_forcing_number(g))

    def test_matches_naive_at_eight(self):
        rng = random.Random(13)
        for _ in range(60):
            g = random_graph(rng, 8, p=rng.random())
            assert_minimum_witness(g, zero_forcing_number(g))

    def test_minimum_forcing_witness_on_every_small_graph(self):
        for i, g in enumerate(ATLAS, start=1):
            assert_minimum_witness(g, zero_forcing_number(g), f"atlas {i}")

    def test_witness_forces_every_fixture_and_family_member(self):
        graphs = [(f"cubic{order:02d} #{i}", g) for order in range(4, 15, 2)
                  for i, g in enumerate(load_catalog(order), start=1)]
        assert len(graphs) == 621
        graphs += [(spec.label(), g) for order in range(4, 19)
                   for spec, g in family_members(order)]
        graphs += [(f"necklace({b})", necklace(b)) for b in (3, 4, 5)]
        for label, g in graphs:
            assert_forcing_witness(g, zero_forcing_number(g), label)

    def test_disconnected_adds_components(self):
        result = zero_forcing_number(PIECES)
        assert result.z == 3 + 2 + 1
        assert is_zero_forcing_set(PIECES, result.witness)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            zero_forcing_number(Graph(0))

    def test_budget_exhaustion_reports_lower_bound(self):
        g = cycle_graph(6)                      # Z = 2
        result = zero_forcing_number(g, budget=1)
        assert not result.exact
        assert result.z is None and result.witness is None
        assert result.lower_bound == 2

    def test_budget_generous_is_exact(self):
        g = cycle_graph(6)
        assert zero_forcing_number(g, budget=2).z == 2

    def test_budget_boundary_on_every_small_graph(self):
        for i, g in enumerate(ATLAS, start=1):
            exact = zero_forcing_number(g)
            for b in range(exact.z):
                result = zero_forcing_number(g, budget=b)
                assert not result.exact, f"atlas {i}, budget {b}"
                assert b < result.lower_bound <= exact.z, f"atlas {i}, budget {b}"
            assert zero_forcing_number(g, budget=exact.z) == exact, f"atlas {i}"

    def test_budget_boundary_heawood(self):
        g = heawood_graph()
        assert zero_forcing_number(g, budget=5).lower_bound == 6
        assert_minimum_witness(g, zero_forcing_number(g, budget=6))

    def test_budget_boundary_disconnected(self):
        for b in (3, 4, 5):
            result = zero_forcing_number(PIECES, budget=b)
            assert (result.exact, result.lower_bound) == (False, 6)
        assert zero_forcing_number(PIECES, budget=6).z == 6

    def test_cubic_lower_bound(self):
        for order in (4, 6, 8):
            for g in connected_cubic_graphs(order):
                assert zero_forcing_number(g).z >= 3


def oracle_cases(source):
    """(label, graph) pairs for the solver-against-oracle test."""
    if source == "cubic":
        return [(f"cubic{order:02d} #{i}", g) for order in range(4, 15, 2)
                for i, g in enumerate(load_catalog(order), start=1)]
    if source == "family":
        return [(spec.label(), g) for order in range(4, 19)
                for spec, g in family_members(order)]
    if source == "necklace":
        return [(f"necklace({b})", necklace(b)) for b in (3, 4, 5)]
    return [(f"atlas {i}", g) for i, g in enumerate(ATLAS, start=1)
            if g.is_connected()]


class TestWavefront:
    @pytest.mark.parametrize("source", ["cubic", "family", "necklace", "atlas"])
    def test_matches_unpruned_oracle_at_every_cap(self, source):
        # The oracle finds nothing below Z and its cap-n answer at every cap from
        # Z up.  The necklaces, the slowest to search, take that rule as given;
        # the other sources run the oracle at every cap and check it.
        for label, g in oracle_cases(source):
            full = (1 << g.n) - 1
            answer = naive_wavefront(g.bits, full, g.n)
            for cap in range(1, g.n + 1):
                expected = answer if cap >= answer[0] else None
                if source != "necklace":
                    assert (naive_wavefront(g.bits, full, cap)
                            == expected), f"{label}, oracle at cap {cap}"
                assert (forcing._wavefront(g.bits, full, cap)
                        == expected), f"{label}, cap {cap}"

    @pytest.mark.parametrize("source", ["cubic", "family", "necklace", "atlas"])
    def test_closes_what_the_reference_loop_closes(self, source, monkeypatch):
        # Pricing each step from the count of vertices it gains, and ending an
        # expansion once no slack is left, change no work: the same sets are
        # closed from the same start sets in the same order, at every cap.
        calls = []
        close_mask = forcing._close_mask

        def record(bits, black, full, active=None, trace=None):
            calls.append((black, active))
            return close_mask(bits, black, full, active, trace)

        monkeypatch.setattr(forcing, "_close_mask", record)
        if source == "cubic":
            cases = [(f"cubic{order:02d} #{i}", g) for order in range(4, 13, 2)
                     for i, g in enumerate(load_catalog(order), start=1)]
        elif source == "necklace":
            cases = [(f"necklace({b})", necklace(b)) for b in (3, 4)]
        else:
            cases = oracle_cases(source)
        for label, g in cases:
            full = (1 << g.n) - 1
            for cap in range(1, g.n + 1):
                calls.clear()
                expected = reference_wavefront(g.bits, full, cap)
                expected_calls = calls[:]
                calls.clear()
                assert (forcing._wavefront(g.bits, full, cap)
                        == expected), f"{label}, cap {cap}"
                assert calls == expected_calls, f"{label}, cap {cap}"

    def test_closes_each_set_once(self, monkeypatch):
        closed = []
        close_mask = forcing._close_mask

        def record(bits, black, full, active=None, trace=None):
            closed.append(black)
            return close_mask(bits, black, full, active, trace)

        monkeypatch.setattr(forcing, "_close_mask", record)
        for g in (heawood_graph(), necklace(4)):
            full = (1 << g.n) - 1
            closed.clear()
            forcing._wavefront(g.bits, full, g.n)
            memoized = list(closed)
            closed.clear()
            naive_wavefront(g.bits, full, g.n)
            assert len(set(memoized)) == len(memoized)
            assert len(memoized) < len(closed)
