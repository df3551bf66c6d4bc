"""Benchmark for zeroforcing, measured from outside the program.

    python3 bench/run.py --workload census-cubic14 --seed 1 --seconds 20 --trace 0

Run from the repository root.  Each pass of a workload runs in a fresh
interpreter (bench/child.py) with the package from src/; only the call into
the program is timed.  Passes repeat, each with inputs drawn from the seed
and the pass number, until the next one would overrun --seconds.  Every
output is checked against stored references and an independent oracle.

--trace 0 reports the end-to-end metrics: throughput (median over passes),
per-record latency percentiles (over all records), set-up time (the median
over passes of the time from starting the child until zeroforcing.cli is
imported) and peak RSS.  --trace 1 runs each input set untraced and traced,
the two in turn first, and reports per-layer calls, self times and ratios
from an outside-in tracer (bench/tracer.py), plus the tracing overhead.

Times are wall-clock intervals read at a reference machine speed, which a
probe sampled during each interval measures (bench/speed.py): other tenants
of a shared machine change its speed by up to 2x.  The raw wall times are
printed alongside.

One caller, one process, no threads: a closed loop with nothing queued, so
no time is spent waiting.  Numeric libraries in the child run on one thread.
Human-readable lines come first; the last line is one JSON object with
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 150

END_TO_END = [("graphs_per_s", "graphs/s"), ("record_p50_ms", "ms"),
              ("record_p90_ms", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MiB")]

# The functions whose time or call count the optimisations queued on the
# ROADMAP are expected to move.  Times are reported as shares of the traced
# pass, so a function a workload never calls reads 0 as a share rather than
# as a time; the seconds are printed in the `layers` line.
FUNCTION_METRICS = [
    ("spectral.eigen_decomposition", ("calls", "self")),
    ("spectral.bounds_report", ("self",)),
    ("forcing.zero_forcing_number", ("calls", "self", "total")),
    ("graphs.canonical_certificate", ("calls", "self")),
    ("graphs.are_isomorphic", ("calls", "self")),
    ("graphs.edge_connectivity", ("calls", "self")),
    ("graph6.parse_graph6", ("self",)),
    ("graph6.write_graph6", ("self",)),
    ("families.family_members", ("total",)),
    ("families.build_family", ("calls",)),
    ("recognition.recognize_z3", ("calls", "self")),
    ("catalog.connected_cubic_graphs", ("total",)),
]
RATIOS = ["graphs.canonical_certificate.distinct_ratio",
          "graphs.are_isomorphic.hit_ratio",
          "spectral.bounds_report.pinned_fraction",
          "trace_overhead_frac"]
TRACED = ([(name, field) for name, fields in FUNCTION_METRICS for field in fields]
          + [(layer, field) for layer in tracer.LAYERS for field in ("calls", "self")])
PER_LAYER = ([(f"{key}.calls", "count") if field == "calls"
              else (f"{key}.{field}_share", "fraction") for key, field in TRACED]
             + [(name, "fraction") for name in RATIOS])


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(config: dict, env: dict):
    """Result dict of one pass, or None when the child failed."""
    try:
        config = dict(config, launched=time.perf_counter())
        proc = subprocess.run([sys.executable, str(ROOT / "bench" / "child.py")],
                              input=json.dumps(config), capture_output=True,
                              text=True, cwd=ROOT, env=env, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"pass timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"pass failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def run_passes(workload, seed: int, seconds: float, trace: bool, env: dict) -> list:
    """(records, traced, result) per pass.  In trace mode each input set runs
    untraced and traced, the untraced pass first in even rounds and second in
    odd ones.  Stops when one more round would overrun."""
    passes = []
    start = time.perf_counter()
    rounds = 0
    while True:
        records = workload.inputs(seed, rounds)
        order = ((True, False) if rounds % 2 else (False, True)) if trace else (False,)
        for traced in order:
            passes.append((records, traced, run_child(workload.config(records, traced), env)))
        rounds += 1
        elapsed = time.perf_counter() - start
        failed = any(r is None for *_, r in passes[-len(order):])
        if failed or elapsed * (rounds + 1) / rounds > seconds:
            return passes


def percentile(values: list, q: float) -> float:
    """Linear interpolation between closest ranks, as numpy's default."""
    values = sorted(values)
    pos = (len(values) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def reference_seconds(result: dict, start: float, end: float) -> float:
    """Length of the wall interval [start, end] of a pass at the reference speed."""
    return speed.reference_seconds(result["probe_stamps"], result["probe_s"],
                                   result["probe_cost_s"], start, end)


def wall_seconds(result: dict, start: float, end: float) -> float:
    return end - start


def pass_seconds(result: dict, seconds=reference_seconds) -> float:
    """The timed call's length (the set-up's, given a pass's "setup"), by
    default at the reference speed."""
    return seconds(result, result["start"], result["end"])


def end_to_end(passes: list, seconds=reference_seconds) -> dict:
    """The end-to-end metrics, with times measured by `seconds`: at the
    reference speed, or as raw wall time with wall_seconds."""
    done = [(records, r) for records, _, r in passes if r is not None]
    if not done:
        raise BenchError("no pass completed")
    latencies = [seconds(r, inp, out) * 1e3
                 for _, r in done for inp, out in zip(r["in_stamps"], r["out_stamps"])]
    return {
        "graphs_per_s": statistics.median(len(records) / pass_seconds(r, seconds)
                                          for records, r in done),
        "record_p50_ms": percentile(latencies, 0.5),
        "record_p90_ms": percentile(latencies, 0.9),
        "setup_s": statistics.median(pass_seconds(r["setup"], seconds) for _, r in done),
        "peak_rss_mb": max(r["peak_rss_kib"] for _, r in done) / 1024,
    }


def per_layer(passes: list, census: bool) -> tuple:
    """Per traced pass, averaged: the table of calls, self_s and total_s of
    every traced function and layer, at the reference speed, and the
    per-layer metrics drawn from it."""
    traced = [r for _, t, r in passes if t and r is not None]
    plain = [r for _, t, r in passes if not t and r is not None]
    if not traced or not plain:
        raise BenchError("no traced pass completed")
    table = {}
    ratios = dict.fromkeys(RATIOS, 0.0)
    for r in traced:
        scale = pass_seconds(r) / (r["end"] - r["start"]) / len(traced)
        for key, stats in tracer.summarize(r["spans"]).items():
            row = table.setdefault(key, {"calls": 0.0, "self_s": 0.0, "total_s": 0.0})
            row["calls"] += stats["calls"] / len(traced)
            row["self_s"] += stats["self_s"] * scale
            row["total_s"] += stats["total_s"] * scale
        certs = r["outcomes"]["graphs.canonical_certificate"]
        isos = r["outcomes"]["graphs.are_isomorphic"]
        if certs:
            ratios["graphs.canonical_certificate.distinct_ratio"] += \
                len(set(certs)) / len(certs) / len(traced)
        if isos:
            ratios["graphs.are_isomorphic.hit_ratio"] += sum(isos) / len(isos) / len(traced)
        if census:
            ratios["spectral.bounds_report.pinned_fraction"] += \
                workloads.pinned_fraction(r["output"]) / len(traced)
    pass_s = sum(map(pass_seconds, traced)) / len(traced)
    metrics = {}
    for key, field in TRACED:
        row = table.get(key, {})
        if field == "calls":
            metrics[f"{key}.calls"] = row.get("calls", 0.0)
        else:
            metrics[f"{key}.{field}_share"] = row.get(f"{field}_s", 0.0) / pass_s
    ratios["trace_overhead_frac"] = (sum(map(pass_seconds, traced))
                                     / sum(map(pass_seconds, plain)) - 1)
    return {**metrics, **ratios}, table


def environment() -> dict:
    import networkx
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "networkx": networkx.__version__, "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "commit": commit, "src_lines": src_lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "zeroforcing" / "__init__.py").is_file():
        print(f"no zeroforcing package under {SRC}", file=sys.stderr)
        return 2

    workload = workloads.load(args.workload)
    census = args.workload == "census-cubic14"
    passes = run_passes(workload, args.seed, args.seconds, bool(args.trace), child_env())

    attempted = failed = 0
    errors = []
    for records, _, result in passes:
        attempted += len(records)
        problems = (["pass failed"] if result is None
                    else workload.check(records, result["output"]))
        failed += min(len(problems), len(records))
        errors += problems
    for message in errors[:10]:
        print(f"wrong: {message}", file=sys.stderr)

    table = None
    if args.trace:
        (metrics, table), units = per_layer(passes, census), dict(PER_LAYER)
    else:
        metrics, units = end_to_end(passes), dict(END_TO_END)

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"records {attempted}")
    first = passes[0][0]
    for key, value in workload.profile(first).items():
        print(f"input {key} {json.dumps(value)}")
    print(f"error_rate {failed / attempted:.6g} fraction ({failed}/{attempted})")
    done = [r for _, _, r in passes if r is not None]
    if census and done:
        print(f"pinned_fraction {workloads.pinned_fraction(done[0]['output']):.6g} fraction")
    print(f"timed {sum(r['end'] - r['start'] for r in done):.6g} s wall, "
          f"{sum(map(pass_seconds, done)):.6g} s at the reference speed, "
          f"over {len(done)} passes")
    if not args.trace:
        print("wall " + json.dumps(end_to_end(passes, wall_seconds)))
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    if table is not None:
        for key, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"{key}  calls {row['calls']:.6g}  self_s {row['self_s']:.6g}  "
                  f"total_s {row['total_s']:.6g}")
        print("layers " + json.dumps(table))
    print("env " + json.dumps(environment()))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(1)
