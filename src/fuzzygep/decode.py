"""Breadth-first decoding of K-expressions and protected evaluation.

The coding region of a gene is read left to right; position 0 is the root and
every function claims the next unclaimed positions as its children, exactly in
the order the symbols appear.  The scan stops once all open slots are filled,
so a gene usually expresses only a prefix of head+tail.  The gene-level
functions take slices of the chromosome string: a gene's coding region
(head + tail) and, for an ordinary gene, its Dc region.  Arities come from
FUNCTION_ARITIES: a coding slot holds only operators, whose arities it
states, or terminals and gene references, which it does not list.
"""

from __future__ import annotations

import math

from .genome import DC_INDEX, DIGIT_VALUES, FUNCTION_ARITIES, RNC_TERMINAL

MIN_DENOMINATOR = 1e-12
MAX_EXP_ARG = 700.0


def protected_apply(op: str, args) -> float:
    """One protected operator application; never raises on float inputs."""
    if op == "+":
        return args[0] + args[1]
    if op == "-":
        return args[0] - args[1]
    if op == "*":
        return args[0] * args[1]
    if op == "/":
        if abs(args[1]) < MIN_DENOMINATOR:
            return 1.0
        return args[0] / args[1]
    x = args[0]
    if op == "S":
        return math.sin(x) if math.isfinite(x) else float("nan")
    if op == "C":
        return math.cos(x) if math.isfinite(x) else float("nan")
    if op == "Q":
        return math.sqrt(abs(x))
    if op == "E":
        return math.exp(min(x, MAX_EXP_ARG))
    raise ValueError(f"unknown operator {op!r}")


def _child_starts(seq, arity) -> list[int]:
    """First-child index for every expressed position; length = expressed size."""
    starts: list[int] = []
    total = 1
    i = 0
    while i < total:
        starts.append(total)
        total += arity.get(seq[i], 0)
        i += 1
    return starts


def eval_ordinary(coding: str, dc: str, constants: tuple[float, ...]) -> float:
    """Value of one ordinary gene; the k-th expressed '?' reads dc[k]."""
    # a terminal root is the whole expression
    root = coding[0]
    if root == RNC_TERMINAL:
        return constants[DC_INDEX[dc[0]]]
    if root in DIGIT_VALUES:
        return DIGIT_VALUES[root]
    arity = FUNCTION_ARITIES
    starts = _child_starts(coding, arity)
    n = len(starts)
    values = [0.0] * n
    # the reverse pass meets the expressed '?' terminals last to first
    rnc = coding.count(RNC_TERMINAL, 0, n)
    for i in range(n - 1, -1, -1):
        sym = coding[i]
        ar = arity.get(sym, 0)
        if ar == 0:
            if sym == RNC_TERMINAL:
                rnc -= 1
                values[i] = constants[DC_INDEX[dc[rnc]]]
            else:
                values[i] = DIGIT_VALUES[sym]
        else:
            first = starts[i]
            values[i] = protected_apply(sym, values[first:first + ar])
    return values[0]


def eval_homeotic(coding: str, ordinary_values) -> float:
    """Value of one homeotic gene; ordinary_values maps each reference
    character to the value of the ordinary gene it names."""
    root = coding[0]
    if root in ordinary_values:  # a reference root is the whole expression
        return ordinary_values[root]
    arity = FUNCTION_ARITIES
    starts = _child_starts(coding, arity)
    n = len(starts)
    values = [0.0] * n
    for i in range(n - 1, -1, -1):
        sym = coding[i]
        ar = arity.get(sym, 0)
        if ar == 0:
            values[i] = ordinary_values[sym]
        else:
            first = starts[i]
            values[i] = protected_apply(sym, values[first:first + ar])
    return values[0]
