"""One pass of a workload in a fresh interpreter.

    PYTHONPATH=src python3 bench/child.py < config.json

The interpreter first imports zeroforcing.cli, with the machine-speed
sampler of speed.py running.  Then it reads the config: when the caller
started this process ("launched", a time.perf_counter reading, which is
system-wide), the call ("cli" runs zeroforcing.cli.main on the given argv
and input lines; "catalog" builds connected_cubic_graphs(order) with a cold
cache) and whether to trace.  Only the call itself is timed, with the
sampler running again.  The CLI reads its records from an in-memory stdin
and writes to an in-memory stdout, which stamp the moment each line is
pulled and each output line is written.  The last line printed is one JSON
object with the outputs, the stamps, the probes, the set-up interval (launch
to zeroforcing.cli imported) with its own probes, the process's peak RSS, and
the spans when tracing.
"""

from __future__ import annotations

import json
import sys
import time

import speed

with speed.Sampler() as SETUP:
    import zeroforcing.cli
READY = time.perf_counter()


class StampedLines:
    """Iterable stdin stand-in; stamps the moment each line is taken."""

    def __init__(self, lines):
        self._lines = iter(lines)
        self.stamps = []

    def __iter__(self):
        return self

    def __next__(self):
        line = next(self._lines)
        self.stamps.append(time.perf_counter())
        return line


class StampedSink:
    """stdout stand-in; stamps the moment each line is completed."""

    def __init__(self):
        self.parts = []
        self.stamps = []

    def write(self, text):
        self.parts.append(text)
        for _ in range(text.count("\n")):
            self.stamps.append(time.perf_counter())
        return len(text)

    def flush(self):
        pass


def interval(start: float, end: float, sampler: speed.Sampler) -> dict:
    return {"start": start, "end": end, "probe_stamps": sampler.stamps,
            "probe_s": sampler.durations, "probe_cost_s": sampler.costs}


def timed(call) -> tuple:
    """call()'s result, and its interval with the probes taken during it."""
    with speed.Sampler() as sampler:
        start = time.perf_counter()
        result = call()
        end = time.perf_counter()
    return result, interval(start, end, sampler)


def run_cli(argv, lines) -> dict:
    feed, sink = StampedLines(lines), StampedSink()
    real_in, real_out = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = feed, sink
    try:
        rc, timing = timed(lambda: zeroforcing.cli.main(argv))
    finally:
        sys.stdin, sys.stdout = real_in, real_out
    return {"rc": rc, **timing, "output": "".join(sink.parts).splitlines(),
            "in_stamps": feed.stamps, "out_stamps": sink.stamps}


def run_catalog(order: int) -> dict:
    graphs, timing = timed(lambda: zeroforcing.connected_cubic_graphs(order))
    return {"rc": 0, **timing, "output": [sorted(map(list, g.edges)) for g in graphs],
            "in_stamps": [timing["start"]], "out_stamps": [timing["end"]]}


def peak_rss_kib() -> int:
    """High-water RSS of this process since exec.  getrusage's ru_maxrss
    would also count the parent's RSS at fork, inherited across exec."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    config = json.load(sys.stdin)
    tracer = None
    if config["trace"]:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    if config["kind"] == "cli":
        result = run_cli(config["argv"], config["input"])
    else:
        result = run_catalog(config["order"])
    result["setup"] = interval(config["launched"], READY, SETUP)
    result["peak_rss_kib"] = peak_rss_kib()
    if tracer is not None:
        result["spans"] = tracer.spans
        result["outcomes"] = tracer.outcomes
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
