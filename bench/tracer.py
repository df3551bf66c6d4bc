"""Outside-in span tracer for the zeroforcing layers.

`install` finds the public functions of each layer module by introspection,
wraps each one, and rebinds the wrapper wherever a zeroforcing namespace
holds the original, so calls across modules (`from .forcing import ...`) and
inside one module (`max_multiplicity_bound -> eigen_decomposition`) both pass
through it.  Calls made through other references, such as a dict of builder
functions, are not seen and count as their caller's self time.  A generator
function's span covers only the call that creates the generator.  A function
or module that no longer exists simply does not appear.

Spans are kept in memory as [name, start, end, parent] lists, parent being
the index of the enclosing span or -1, and handed out at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

PACKAGE = "zeroforcing"
LAYERS = ("graph6", "graphs", "forcing", "spectral", "families", "recognition",
          "catalog", "cli")


def _outcome_key(result):
    try:
        return hash(result)
    except TypeError:
        return repr(result)


# Return values worth counting where the work happens: distinct certificates
# show wasted duplicate work, isomorphic answers show how often a scan hits.
OBSERVE = {
    "graphs.canonical_certificate": _outcome_key,
    "graphs.are_isomorphic": lambda r: bool(getattr(r, "isomorphic", r)),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.outcomes = {name: [] for name in OBSERVE}
        self._stack = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = OBSERVE.get(name)
        seen = self.outcomes.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                seen.append(observe(result))
            return result

        return traced


def public_functions(module):
    """(name, function) for every public callable defined in the module,
    lru_cache wrappers included, classes excluded."""
    for name, obj in vars(module).items():
        if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


def install(tracer: Tracer) -> None:
    wrappers = {}
    for layer in LAYERS:
        try:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
        except ModuleNotFoundError:
            continue
        for name, fn in public_functions(module):
            wrappers[id(fn)] = (fn, tracer.wrap(f"{layer}.{name}", fn))
    for modname, module in list(sys.modules.items()):
        if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so a span's children are disjoint intervals
    inside it and the part they cover is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _) in enumerate(spans)]


def summarize(spans) -> dict:
    """Per function name and per layer: calls, self_s, and total_s, where
    total_s counts only outermost spans of a name, so recursion is not
    counted twice."""
    stats = {}
    own = self_times(spans)
    enclosing = []  # function and layer names on the path down to each span
    for i, (name, start, end, parent) in enumerate(spans):
        layer = name.split(".", 1)[0]
        above = enclosing[parent] if parent >= 0 else frozenset()
        enclosing.append(above | {name, layer})
        for key in (name, layer):
            entry = stats.setdefault(key, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += own[i]
            if key not in above:
                entry["total_s"] += end - start
    return stats
