"""The benchmark's workloads: stored base graphs, seeded inputs, output checks.

Each workload has a fixed base set in data/<name>.json with reference
answers.  The seed and the pass number draw a vertex relabelling of every
base graph and the record order; only the relabelled graph6 records reach
the program.  Answers do not depend on labels but search order does, so a
new seed is a fair holdout.  Every output line is checked against the
references and against oracle.py, never against the library.
"""

from __future__ import annotations

import json
import random
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import networkx as nx

import oracle

DATA = Path(__file__).resolve().parent / "data"


@dataclass(frozen=True)
class Record:
    base: int         # index of the base graph in the data file
    line: str         # the graph6 record the program receives
    graph: nx.Graph   # the relabelled graph that record encodes


def input_class(ref: dict) -> str:
    """member (Z = 3, 3-edge-connected), kappa<3, or other."""
    if ref["kappa"] < 3:
        return "kappa<3"
    return "member" if ref["z"] == 3 else "other"


class CliWorkload:
    """Records piped through one `zeroforcing` subcommand, one line out per
    record in input order."""

    def __init__(self, name: str, argv: list, check_row):
        self.name = name
        self.argv = argv
        self.check_row = check_row
        self.refs = json.loads((DATA / f"{name}.json").read_text())["graphs"]
        self.graphs = [oracle.parse_g6(ref["g6"]) for ref in self.refs]

    def inputs(self, seed: int, index: int) -> list:
        rng = random.Random(f"{self.name}/{seed}/{index}")
        order = list(range(len(self.refs)))
        rng.shuffle(order)
        records = []
        for base in order:
            perm = list(range(len(self.graphs[base])))
            rng.shuffle(perm)
            g = oracle.relabel(self.graphs[base], perm)
            records.append(Record(base, oracle.write_g6(g), g))
        return records

    def config(self, records: list, trace: bool) -> dict:
        return {"kind": "cli", "argv": self.argv, "trace": trace,
                "input": [r.line + "\n" for r in records]}

    def check(self, records: list, output: list) -> list:
        """One message per record whose output line is missing or wrong, and
        one per surplus line."""
        errors = []
        for i, rec in enumerate(records):
            if i >= len(output):
                errors.append(f"record {i} ({rec.line}): no output line")
                continue
            problem = self.check_row(self.refs[rec.base], rec, output[i])
            if problem:
                errors.append(f"record {i} ({rec.line}): {problem}: {output[i]!r}")
        errors += [f"surplus output line {line!r}" for line in output[len(records):]]
        return errors

    def profile(self, records: list) -> dict:
        refs = [self.refs[r.base] for r in records]
        classes = Counter(input_class(ref) for ref in refs)
        return {"z_histogram": dict(sorted(Counter(ref["z"] for ref in refs).items())),
                "class_share": {c: classes[c] / len(refs)
                                for c in ("member", "kappa<3", "other")}}


def check_census_row(ref: dict, rec: Record, row: str):
    fields = row.split("\t")
    if len(fields) != 9:
        return f"expected 9 fields, got {len(fields)}"
    expected = [rec.line, str(len(rec.graph)), "1", str(ref["kappa"]), str(ref["z"]),
                str(ref["l_eig"]), str(ref["l_twin"])]
    names = ("graph6", "n", "cubic", "kappa", "Z", "L_eig", "L_twin")
    for name, got, want in zip(names, fields, expected):
        if got != want:
            return f"{name} is {got!r}, expected {want!r}"
    lower = max(ref["l_eig"], ref["l_twin"])
    minor = fields[7]
    if minor != "-":
        if not minor.isdigit():
            return f"L_minor {minor!r} is not a number"
        lower = max(lower, int(minor))
    z = ref["z"]
    if lower > z:
        return f"lower bound {lower} exceeds Z={z}"
    verdict = f"M={z}" if lower == z else f"M in [{lower},{z}]"
    if fields[8] != verdict:
        return f"verdict {fields[8]!r}, expected {verdict!r}"
    return None


def pinned_fraction(rows: list) -> float:
    """Share of census rows whose verdict pins M (lower bound = Z)."""
    pinned = sum(row.split("\t")[-1].startswith("M=") for row in rows)
    return pinned / max(len(rows), 1)


ZF_ROW = re.compile(r"(\S+)  Z=(\d+)  witness=\{([\d,]*)\}")


def check_zf_row(ref: dict, rec: Record, row: str):
    m = ZF_ROW.fullmatch(row)
    if not m:
        return "malformed zf line"
    if m[1] != rec.line:
        return "graph6 echo differs from the input"
    if int(m[2]) != ref["z"]:
        return f"Z={m[2]}, expected {ref['z']}"
    witness = {int(v) for v in m[3].split(",") if v}
    if len(witness) != ref["z"]:
        return f"witness has {len(witness)} vertices, Z={ref['z']}"
    if not witness <= set(rec.graph) or not oracle.forces_all(rec.graph, witness):
        return "witness does not force the graph"
    return None


RECOGNIZE_ROW = re.compile(
    r"(\S+)  (?:member  spec=(\S+)|non-member  kappa=(\d+)|non-member  Z=(\d+))")


def check_recognize_row(ref: dict, rec: Record, row: str):
    m = RECOGNIZE_ROW.fullmatch(row)
    if not m:
        return "malformed recognize line"
    if m[1] != rec.line:
        return "graph6 echo differs from the input"
    spec, kappa, z = m[2], m[3], m[4]
    if spec is not None:
        if input_class(ref) != "member":
            return "non-member reported as member"
        if spec not in ref["specs"]:
            return f"spec {spec} does not build this graph"
    elif kappa is not None:
        if int(kappa) != ref["kappa"] or ref["kappa"] >= 3:
            return f"kappa={kappa}, expected {ref['kappa']}"
    elif ref["kappa"] < 3 or int(z) != ref["z"] or ref["z"] == 3:
        return f"Z={z} for a graph with Z={ref['z']}, kappa={ref['kappa']}"
    return None


class CatalogWorkload:
    """connected_cubic_graphs(order) in a fresh process, so its cache is cold.
    Nothing is sent to the program, so the seed is unused."""

    name = "catalog-cold-12"

    def __init__(self):
        data = json.loads((DATA / f"{self.name}.json").read_text())
        self.order = data["order"]
        self.refs = [oracle.parse_g6(line) for line in data["graphs"]]
        self.buckets = {}
        for i, g in enumerate(self.refs):
            self.buckets.setdefault(oracle.invariant_hash(g), []).append(i)

    def inputs(self, seed: int, index: int) -> list:
        """The expected catalog: one record per stored reference graph."""
        return [Record(i, oracle.write_g6(g), g) for i, g in enumerate(self.refs)]

    def config(self, records: list, trace: bool) -> dict:
        return {"kind": "catalog", "order": self.order, "trace": trace}

    def check(self, records: list, output: list) -> list:
        """Every output graph must be connected, cubic, of the right order,
        isomorphic to a stored graph and to no other output graph; every
        stored graph must be found."""
        errors = []
        found = set()
        for i, edges in enumerate(output):
            g = nx.empty_graph(self.order)
            g.add_edges_from(map(tuple, edges))
            if len(g) != self.order or any(d != 3 for _, d in g.degree) \
                    or not nx.is_connected(g):
                errors.append(f"graph {i} is not a connected cubic graph "
                              f"on {self.order} vertices")
                continue
            match = [j for j in self.buckets.get(oracle.invariant_hash(g), ())
                     if nx.is_isomorphic(g, self.refs[j])]
            if not match:
                errors.append(f"graph {i} is not in the reference catalog")
            elif match[0] in found:
                errors.append(f"graph {i} duplicates an earlier graph")
            else:
                found.add(match[0])
        errors += [f"reference graph {j} missing" for j in range(len(records))
                   if j not in found]
        return errors

    def profile(self, records: list) -> dict:
        return {}


def load(name: str):
    if name == "census-cubic14":
        return CliWorkload(name, ["census"], check_census_row)
    if name == "zf-hard":
        return CliWorkload(name, ["zf"], check_zf_row)
    if name == "recognize-18":
        return CliWorkload(name, ["recognize"], check_recognize_row)
    if name == "catalog-cold-12":
        return CatalogWorkload()
    raise KeyError(name)


NAMES = ("census-cubic14", "zf-hard", "recognize-18", "catalog-cold-12")
