"""Machine-speed reference for timings taken on a shared machine.

Other tenants of a shared machine slow every process on it down, by up to
half, for minutes at a time. To compare runs made at different times the
benchmark divides each timing by the machine's current speed. It measures
that speed with `kernel`, a fixed piece of pure-Python work of the same kind
as the engine's (small frozen dataclasses, tuple slicing and hashing, dict
lookups, a breadth-first expression decode, sorting and random sampling).
The kernel uses nothing from fuzzygep, so no change to the package moves it.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

# kernel() time between engine runs on a quiet 2-core Xeon (CPython 3.11);
# a timing divided by its speed factor is in seconds of that machine
NOMINAL_S = 0.0045

_ARITY = {"+": 2, "-": 2, "*": 2, "/": 2}
_SYMBOLS = ("+", "-", "*", "/", "a", "b", "c", "d")
_LEAVES = {"a": 1.0, "b": 2.0, "c": -0.5, "d": 3.0}


@dataclass(frozen=True)
class _Gene:
    head: tuple
    tail: tuple


def _decode(seq) -> float:
    starts = []
    total = 1
    i = 0
    while i < total:
        starts.append(total)
        total += _ARITY.get(seq[i], 0)
        i += 1
    values = [0.0] * total
    for i in range(total - 1, -1, -1):
        sym = seq[i]
        if sym in _LEAVES:
            values[i] = _LEAVES[sym]
            continue
        a, b = values[starts[i]], values[starts[i] + 1]
        if sym == "+":
            values[i] = a + b
        elif sym == "-":
            values[i] = a - b
        elif sym == "*":
            values[i] = a * b
        else:
            values[i] = a / b if abs(b) > 1e-12 else 1.0
    return values[0]


def kernel() -> int:
    """One fixed unit of work, about 3.6 ms in a tight loop on the reference
    machine and 4.5 ms between engine runs, whose data leave the caches cold."""
    rng = random.Random(12345)
    population = [
        tuple(_Gene(tuple(rng.choices(_SYMBOLS, k=6)), tuple(rng.choices("abcd", k=7)))
              for _ in range(4))
        for _ in range(120)
    ]
    cache = {}
    for chromosome in population:
        flat = [s for gene in chromosome for s in gene.head + gene.tail]
        cut = rng.randrange(len(flat))
        flat = flat[cut:] + flat[:cut]
        child = tuple(_Gene(tuple(flat[i:i + 6]), tuple(flat[i + 6:i + 13]))
                      for i in range(0, len(flat), 13))
        if child not in cache:
            cache[child] = sum(_decode(gene.head + gene.tail) for gene in child)
    ranked = sorted(cache.items(), key=lambda kv: kv[1])
    return len([min(rng.sample(ranked, 5), key=lambda kv: kv[1]) for _ in range(120)])


def sample() -> float:
    """Seconds one kernel() call takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
