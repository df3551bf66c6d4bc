"""Self-tests of the benchmark's own arithmetic and checks.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import networkx as nx

import oracle
import run
import speed
import tracer
import workloads
from workloads import Record


def test_self_time_subtracts_direct_children_only():
    spans = [["x.a", 0.0, 10.0, -1],
             ["x.b", 1.0, 4.0, 0],
             ["y.c", 2.0, 3.0, 1],
             ["x.b", 5.0, 7.0, 0],
             ["x.a", 8.0, 9.0, 0]]
    assert tracer.self_times(spans) == [4.0, 2.0, 1.0, 2.0, 1.0]
    stats = tracer.summarize(spans)
    assert stats["x.a"] == {"calls": 2, "self_s": 5.0, "total_s": 10.0}
    assert stats["x.b"] == {"calls": 2, "self_s": 4.0, "total_s": 5.0}
    assert stats["y.c"] == {"calls": 1, "self_s": 1.0, "total_s": 1.0}
    assert stats["x"] == {"calls": 4, "self_s": 9.0, "total_s": 10.0}
    assert stats["y"] == {"calls": 1, "self_s": 1.0, "total_s": 1.0}


def test_reference_seconds_scale_by_mean_probe_speed():
    ref = speed.PROBE_REF_S
    stamps, durations, costs = [0.0, 1.0, 2.0, 3.0], [ref, 2 * ref, ref, ref], [0.1] * 4
    # ticks at 1.0 and 2.0 ran at half and full speed; their cost is removed
    assert speed.reference_seconds(stamps, durations, costs, 0.5, 2.5) == (2.0 - 0.2) * 0.75
    # no tick inside: the nearest one on each side
    assert abs(speed.reference_seconds(stamps, durations, costs, 1.2, 1.4) - 0.2 * 0.75) < 1e-12


def census_rows(workload, records):
    rows = []
    for rec in records:
        ref = workload.refs[rec.base]
        lower = max(ref["l_eig"], ref["l_twin"])
        verdict = f"M={lower}" if lower == ref["z"] else f"M in [{lower},{ref['z']}]"
        rows.append("\t".join([rec.line, "14", "1", str(ref["kappa"]), str(ref["z"]),
                               str(ref["l_eig"]), str(ref["l_twin"]), "-", verdict]))
    return rows


def test_corrupted_census_row_is_an_error():
    census = workloads.load("census-cubic14")
    records = census.inputs(seed=7, index=0)
    rows = census_rows(census, records)
    assert census.check(records, rows) == []
    assert workloads.pinned_fraction(rows) == 2 / 509
    bad = rows[5].split("\t")
    bad[4] = str(int(bad[4]) + 1)
    rows[5] = "\t".join(bad)
    assert len(census.check(records, rows)) == 1
    assert len(census.check(records, rows[:-1])) == 2


def test_seed_draws_the_inputs():
    census = workloads.load("census-cubic14")
    first = [r.line for r in census.inputs(seed=3, index=0)]
    assert first == [r.line for r in census.inputs(seed=3, index=0)]
    assert first != [r.line for r in census.inputs(seed=4, index=0)]
    assert sorted(map(oracle.invariant_hash, (r.graph for r in census.inputs(4, 0)))) \
        == sorted(map(oracle.invariant_hash, census.graphs))


def test_zf_witness_must_force():
    path = nx.path_graph(4)
    rec = Record(0, oracle.write_g6(path), path)
    ref = {"z": 1}
    assert workloads.check_zf_row(ref, rec, f"{rec.line}  Z=1  witness={{0}}") is None
    assert workloads.check_zf_row(ref, rec, f"{rec.line}  Z=1  witness={{1}}")
    assert workloads.check_zf_row(ref, rec, f"{rec.line}  Z=2  witness={{0,1}}")


def test_recognize_checks_spec_and_reason():
    recognize = workloads.load("recognize-18")
    by_class = {}
    for rec in recognize.inputs(seed=1, index=0):
        by_class.setdefault(workloads.input_class(recognize.refs[rec.base]), rec)
    member, low, other = by_class["member"], by_class["kappa<3"], by_class["other"]
    spec = recognize.refs[member.base]["specs"][0]
    kappa = recognize.refs[low.base]["kappa"]
    z = recognize.refs[other.base]["z"]
    check = workloads.check_recognize_row
    assert check(recognize.refs[member.base], member, f"{member.line}  member  spec={spec}") is None
    assert check(recognize.refs[member.base], member, f"{member.line}  member  spec=apex(T9)")
    assert check(recognize.refs[low.base], low, f"{low.line}  non-member  kappa={kappa}") is None
    assert check(recognize.refs[other.base], other, f"{other.line}  non-member  Z={z}") is None
    assert check(recognize.refs[other.base], other, f"{other.line}  member  spec={spec}")
    assert check(recognize.refs[other.base], other, f"{other.line}  non-member  Z=3")


def test_catalog_check_counts_missing_and_duplicate_graphs():
    catalog = workloads.load("catalog-cold-12")
    records = catalog.inputs(seed=0, index=0)
    output = [sorted(map(sorted, r.graph.edges)) for r in records]
    assert catalog.check(records, output) == []
    assert len(catalog.check(records, output[:-1])) == 1
    assert len(catalog.check(records, output[:-1] + output[:1])) == 2


def test_tracer_sees_calls_inside_a_module():
    config = {"kind": "cli", "argv": ["bounds"], "input": ["C~\n"], "trace": True,
              "launched": time.perf_counter()}
    proc = subprocess.run([sys.executable, str(run.ROOT / "bench" / "child.py")],
                          input=json.dumps(config), capture_output=True, text=True,
                          env=run.child_env(), check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["output"][-1] == "verdict: M=3"
    spans = result["spans"]
    names = [s[0] for s in spans]
    eig = spans[names.index("spectral.eigen_decomposition")]
    assert spans[eig[3]][0] == "spectral.max_multiplicity_bound"
    assert names[0] == "cli.main"
    assert len(result["in_stamps"]) == 1 and len(result["out_stamps"]) == 5
    assert 0 < run.pass_seconds(result["setup"]) < 60


def test_benchmark_json_declares_the_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
