"""Rebuild bench/data/: the base graphs of each workload and their reference answers.

Run from the repository root (minutes; only needed when a workload's base set
changes, since the files it writes are committed):

    PYTHONPATH=src python3 bench/make_data.py

Base graphs come from tests/data (cubic orders 12 and 14), from the
library's named constructions and family enumeration, and from
networkx.random_regular_graph with fixed seeds (its output may differ under
another networkx version; the stored files are what the benchmark uses).
Every reference answer is computed by oracle.py or networkx, never by the
library: Z by the wavefront search, kappa by networkx, eigenvalue
multiplicity by numpy.  Family recipe labels are the one thing taken from
the library, and each is matched to its member by networkx isomorphism.
"""

from __future__ import annotations

import itertools
import json
import pathlib

import networkx as nx

import oracle
from zeroforcing import families

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

# (order, random_regular_graph seed): connected cubic graphs with Z 6-7 whose
# solves take 0.05-1 s each in the seed solver.  Five order-30 graphs with
# Z=6 cost nearly the same, so the median record falls among them and does
# not jump when relabelling reorders two neighbours of unequal cost.
ZF_RANDOM = [(24, 24000), (24, 24001), (24, 24002), (26, 26000), (26, 26001),
             (28, 28000), (28, 28003), (30, 30000), (30, 30001), (30, 30002),
             (30, 30003), (30, 30005), (30, 30008)]


def write(name: str, payload) -> None:
    path = HERE / "data" / name
    path.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"{path.relative_to(ROOT)}: {len(payload['graphs'])} graphs")


def from_library(g) -> nx.Graph:
    h = nx.empty_graph(g.n)
    h.add_edges_from(g.edges)
    return h


def read_fixture(order: int) -> list:
    text = (ROOT / "tests" / "data" / f"cubic{order:02d}.g6").read_text()
    return [oracle.parse_g6(line) for line in text.split()]


def check_cubic_catalog(graphs, count: int) -> None:
    assert len(graphs) == count
    assert all(nx.is_connected(g) and set(dict(g.degree).values()) == {3}
               for g in graphs)
    assert oracle.isomorphism_classes(graphs) == count


def census_cubic14() -> dict:
    graphs = read_fixture(14)
    check_cubic_catalog(graphs, 509)
    return {"graphs": [{"g6": oracle.write_g6(g),
                        "z": oracle.zero_forcing_number(g),
                        "kappa": nx.edge_connectivity(g),
                        "l_eig": oracle.max_eigen_multiplicity(g),
                        "l_twin": oracle.twin_bound(g)} for g in graphs]}


def zf_hard() -> dict:
    named = [("cex16", families.counterexample16()),
             ("necklace3", families.necklace(3))]
    rows = [(name, from_library(g)) for name, g in named]
    for order, seed in ZF_RANDOM:
        g = nx.random_regular_graph(3, order, seed=seed)
        assert nx.is_connected(g)
        rows.append((f"rr{order}s{seed}", g))
    return {"graphs": [{"name": name, "g6": oracle.write_g6(g),
                        "z": oracle.zero_forcing_number(g),
                        "kappa": nx.edge_connectivity(g)} for name, g in rows]}


def family_labels(order: int) -> list:
    """(label, graph) for every recipe of the given order, duplicates kept;
    the same enumeration as families.family_members, before deduplication."""
    out = []
    budget = order - 4  # order = 1 (apex) + sum(2 n_i + 4) over M blocks + 2 m + 3
    for t in range(budget // 4 + 1):
        rest = budget - 4 * t
        if rest % 2:
            continue
        for m in range(rest // 2 + 1):
            tail = rest // 2 - m
            for seq in itertools.product(range(tail + 1), repeat=t):
                if sum(seq) != tail:
                    continue
                blocks = tuple([("M", ni) for ni in seq] + [("T", m)])
                for perms in itertools.product(itertools.permutations(range(3)),
                                               repeat=t):
                    spec = families.FamilySpec(blocks=blocks, matchings=perms)
                    g = families.build_family(spec)
                    if g.n == order and g.is_cubic() and g.is_connected():
                        out.append((spec.label(), from_library(g)))
    return out


def spliced(a: nx.Graph, b: nx.Graph, bridge: bool) -> nx.Graph:
    """Join two cubic graphs into one cubic graph across a 2-edge cut, or
    across a bridge between two subdivision vertices."""
    g = nx.disjoint_union(a, b)
    (x1, y1), (x2, y2) = min(a.edges), min(b.edges)
    x2, y2 = x2 + len(a), y2 + len(a)
    g.remove_edges_from([(x1, y1), (x2, y2)])
    if not bridge:
        g.add_edges_from([(x1, x2), (y1, y2)])
        return g
    p, q = len(g), len(g) + 1
    g.add_edges_from([(x1, p), (y1, p), (x2, q), (y2, q), (p, q)])
    return g


def recognize_18() -> dict:
    order = 18
    members = [from_library(g) for _, g in families.family_members(order)]
    assert len(members) == 70 and oracle.isomorphism_classes(members) == 70
    labels = [set() for _ in members]
    by_hash = {}
    for i, m in enumerate(members):
        by_hash.setdefault(oracle.invariant_hash(m), []).append(i)
    for label, g in family_labels(order):
        match = [i for i in by_hash[oracle.invariant_hash(g)]
                 if nx.is_isomorphic(g, members[i])]
        assert len(match) == 1
        labels[match[0]].add(label)
    rows = [{"cls": "member", "g6": oracle.write_g6(g), "kappa": 3, "z": 3,
             "specs": sorted(ls)} for g, ls in zip(members, labels)]
    for g in members:
        assert nx.edge_connectivity(g) == 3 and oracle.zero_forcing_number(g) == 3

    seed = 18000
    others = []
    while len(others) < 70:
        seed += 1
        g = nx.random_regular_graph(3, order, seed=seed)
        if not nx.is_connected(g) or nx.edge_connectivity(g) < 3:
            continue
        z = oracle.zero_forcing_number(g)
        if z == 3 or any(nx.is_isomorphic(g, h) for h in others):
            continue
        others.append(g)
        rows.append({"cls": "other", "g6": oracle.write_g6(g), "kappa": 3, "z": z})

    low = []
    # piece orders: a + b = 18 across a 2-edge cut, a + b = 16 around a bridge
    shapes = [(8, 10, False), (6, 12, False), (4, 14, False),
              (6, 10, True), (8, 8, True), (4, 12, True)]
    while len(low) < 30:
        for a_order, b_order, bridge in shapes:
            seed += 1
            a = nx.random_regular_graph(3, a_order, seed=seed)
            b = nx.random_regular_graph(3, b_order, seed=seed + 50000)
            if not (nx.is_connected(a) and nx.is_connected(b)):
                continue
            g = spliced(a, b, bridge)
            if any(nx.is_isomorphic(g, h) for h in low):
                continue
            kappa = nx.edge_connectivity(g)
            assert kappa == (1 if bridge else 2)
            low.append(g)
            rows.append({"cls": "kappa<3", "g6": oracle.write_g6(g),
                         "kappa": kappa, "z": oracle.zero_forcing_number(g)})
            if len(low) == 30:
                break
    for row in rows:
        g = oracle.parse_g6(row["g6"])
        assert len(g) == order and set(dict(g.degree).values()) == {3}
        assert nx.is_connected(g)
    return {"graphs": rows}


def catalog_cold_12() -> dict:
    graphs = read_fixture(12)
    check_cubic_catalog(graphs, 85)
    return {"order": 12, "graphs": [oracle.write_g6(g) for g in graphs]}


if __name__ == "__main__":
    write("census-cubic14.json", census_cubic14())
    write("zf-hard.json", zf_hard())
    write("recognize-18.json", recognize_18())
    write("catalog-cold-12.json", catalog_cold_12())
