"""Outside-in span tracer for the fuzzygep layers.

The tracer never edits the package. While it is installed it replaces public
functions at the place where their caller looks them up (a module global or
a class attribute) with a wrapper that records one span per call: name,
parent span, start and end in nanoseconds. Spans are kept in flat arrays in
memory and written out once, when the traced pass ends. A layer's self time
is the duration of its spans minus the part covered by their child spans.
"""

from __future__ import annotations

import functools
import os
import time
from array import array

import numpy as np

from fuzzygep import bench, cli, evolve

# (owner, attribute, span name). The span name is "<layer>.<function>", where
# the layer is the module that defines the function, not the one calling it.
# A function called from its own layer needs a span only for a metric of its
# own or, like maybe_mutate_constants, to mark where generations start.
TARGETS = (
    (evolve, "eval_ordinary", "decode.eval_ordinary"),
    (evolve, "eval_homeotic", "decode.eval_homeotic"),
    (evolve, "flatten", "genome.flatten"),
    (evolve, "rebuild", "genome.rebuild"),
    (evolve, "random_chromosome", "genome.random_chromosome"),
    (evolve, "random_constant_set", "genome.random_constant_set"),
    (evolve, "position_alphabets", "genome.position_alphabets"),
    (evolve, "infer_1d", "fuzzy.infer_1d"),
    (evolve, "infer_2d", "fuzzy.infer_2d"),
    (evolve, "crossover", "evolve.crossover"),
    (evolve, "mutate", "evolve.mutate"),
    (evolve, "select", "evolve.select"),
    (evolve, "diversity", "evolve.diversity"),
    (evolve, "run", "evolve.run"),
    (evolve.Engine, "evaluate", "evolve.evaluate"),
    (evolve.Engine, "build_temp_population", "evolve.build_temp_population"),
    (evolve.Engine, "maybe_mutate_constants", "evolve.maybe_mutate_constants"),
    (evolve.Engine, "run", "evolve.Engine.run"),
    (bench.Problem, "evaluate", "bench.evaluate"),
    (bench, "builtin", "bench.builtin"),
    (cli, "summarize", "cli.summarize"),
    (cli, "write_trace", "cli.write_trace"),
    (cli, "write_summary", "cli.write_summary"),
    (cli, "main", "cli.main"),
)

LAYERS = ("genome", "decode", "fuzzy", "evolve", "bench", "cli")


def _count_offspring(counters, args, result):
    # build_temp_population(self, parents, rates) returns parents + offspring
    counters["offspring"] += len(result) - len(args[1])


def _count_trace_bytes(counters, args, result):
    counters["trace_bytes"] += os.path.getsize(args[0])


# run after the span has closed, so their cost is not charged to the layer
AFTER_CALL = {
    "evolve.build_temp_population": _count_offspring,
    "cli.write_trace": _count_trace_bytes,
}


class Tracer:
    """Span recorder. Use as a context manager around the traced pass."""

    def __init__(self):
        self.names: list[str] = [name for _, _, name in TARGETS]
        self.parent = array("q")
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.counters = {"offspring": 0, "trace_bytes": 0}
        self._stack = [-1]
        self._saved = []

    def _wrap(self, fn, index):
        parent, name, start, end = self.parent, self.name, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns
        after = AFTER_CALL.get(self.names[index])
        counters = self.counters

        @functools.wraps(fn)
        def span(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1])
            name.append(index)
            end.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if after is not None:
                after(counters, args, result)
            return result

        return span

    def __enter__(self):
        for index, (owner, attr, _) in enumerate(TARGETS):
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, index))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def arrays(self):
        return (np.frombuffer(self.parent, dtype=np.int64),
                np.frombuffer(self.name, dtype=np.uint16),
                np.frombuffer(self.start, dtype=np.int64),
                np.frombuffer(self.end, dtype=np.int64))

    def save(self, path):
        parent, name, start, end = self.arrays()
        np.savez(path, parent=parent, name=name, start=start, end=end,
                 names=np.array(self.names))


def span_stats(tracer: Tracer) -> dict:
    """Per span name: calls, inclusive seconds and self seconds; per layer:
    self seconds."""
    parent, name, start, end = tracer.arrays()
    n = len(parent)
    dur = (end - start).astype(np.float64) * 1e-9
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_time = dur - child_time
    k = len(tracer.names)
    calls = np.bincount(name, minlength=k)
    inclusive = np.bincount(name, weights=dur, minlength=k)
    exclusive = np.bincount(name, weights=self_time, minlength=k)
    by_name = {
        nm: {"calls": int(calls[i]), "incl_s": float(inclusive[i]), "self_s": float(exclusive[i])}
        for i, nm in enumerate(tracer.names)
    }
    layers = {layer: 0.0 for layer in LAYERS}
    for nm, st in by_name.items():
        layers[nm.split(".", 1)[0]] += st["self_s"]
    return {"by_name": by_name, "layers": layers}


def children_count(tracer: Tracer, child: str, parent_name: str) -> int:
    """Number of `child` spans whose direct parent is a `parent_name` span."""
    parent, name, _, _ = tracer.arrays()
    c = tracer.names.index(child)
    p = tracer.names.index(parent_name)
    mask = (name == c) & (parent >= 0)
    return int(np.count_nonzero(name[parent[mask]] == p))


def generation_times_ms(tracer: Tracer) -> list[float]:
    """Wall time of each generation of every traced Engine.run.

    A generation is one loop iteration of Engine.run, which calls
    maybe_mutate_constants exactly once; it lasts from that call's start to
    the next one's, and the last one ends with Engine.run itself."""
    parent, name, start, end = tracer.arrays()
    run_idx = tracer.names.index("evolve.Engine.run")
    mmc_idx = tracer.names.index("evolve.maybe_mutate_constants")
    out: list[float] = []
    for rid in np.flatnonzero(name == run_idx):
        marks = start[(name == mmc_idx) & (parent == rid)]
        if len(marks) == 0:
            continue
        bounds = np.append(marks, end[rid])
        out.extend((np.diff(bounds) * 1e-6).tolist())
    return out
