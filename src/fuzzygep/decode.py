"""Breadth-first decoding of K-expressions and protected evaluation.

The coding region of a gene is read left to right; position 0 is the root and
every function claims the next unclaimed positions as its children, exactly in
the order the symbols appear.  The scan stops once all open slots are filled,
so a gene usually expresses only a prefix of head+tail.  Both gene-level
functions take one gene, a slice of the chromosome string; an ordinary gene
holds its Dc region after head and tail, at DC_START.  Arities come from
FUNCTION_ARITIES: a coding slot holds only operators, whose arities it
states, or terminals and gene references, which it does not list.

A homeotic gene's tail holds only references, so its head alone fixes which
positions are expressed and the arity of each: the gene's shape.  Every
shape gets one generated function, and every head the function of its shape.
The function applies each operator to the operands the walk would, so both
give the same bits.  An ordinary gene is still walked: its '?' terminals read
Dc letters in expression order, so its shape alone does not fix its value.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable

from .genome import (
    DC_INDEX,
    DC_START,
    DIGIT_VALUES,
    FUNCTION_ARITIES,
    GENE_REFERENCES,
    HOMEOTIC_HEAD_LEN,
    HOMEOTIC_TAIL_LEN,
    RNC_TERMINAL,
)

MIN_DENOMINATOR = 1e-12
MAX_EXP_ARG = 700.0


def _divide(a: float, b: float) -> float:
    return 1.0 if abs(b) < MIN_DENOMINATOR else a / b


def _sin(x: float) -> float:
    return math.sin(x) if math.isfinite(x) else math.nan


def _cos(x: float) -> float:
    return math.cos(x) if math.isfinite(x) else math.nan


def _sqrt_abs(x: float) -> float:
    return math.sqrt(abs(x))


def _exp(x: float) -> float:
    return math.exp(min(x, MAX_EXP_ARG))


# The protected operators, one per FUNCTION_ARITIES symbol; every decoder
# reads this table, and none raises on float inputs.
OPERATORS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _divide,
    "S": _sin,
    "C": _cos,
    "Q": _sqrt_abs,
    "E": _exp,
}


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


def eval_ordinary(gene: str, constants: tuple[float, ...]) -> float:
    """Value of one ordinary gene; the k-th expressed '?' reads the gene's
    k-th Dc letter, gene[DC_START + k]."""
    # a terminal root is the whole expression
    root = gene[0]
    if root == RNC_TERMINAL:
        return constants[DC_INDEX[gene[DC_START]]]
    if root in DIGIT_VALUES:
        return DIGIT_VALUES[root]
    arity = FUNCTION_ARITIES
    starts = _child_starts(gene, arity)
    n = len(starts)
    values = [0.0] * n
    # the reverse pass meets the expressed '?' terminals last to first; dc
    # is one past the Dc slot of the next one it meets
    dc = DC_START + gene.count(RNC_TERMINAL, 0, n)
    for i in range(n - 1, -1, -1):
        sym = gene[i]
        ar = arity.get(sym, 0)
        if ar == 0:
            if sym == RNC_TERMINAL:
                dc -= 1
                values[i] = constants[DC_INDEX[gene[dc]]]
            else:
                values[i] = DIGIT_VALUES[sym]
        else:
            first = starts[i]
            values[i] = OPERATORS[sym](*values[first:first + ar])
    return values[0]


# Generated homeotic evaluators, built on first use and kept for the process:
# shape -> function, and head -> its shape's function. A shape is the tuple of
# arities of the expressed positions, breadth first. There is at most one
# entry per head over functions and references, 10**4 with all eight
# operators, and far fewer shapes.
_by_shape: dict[tuple[int, ...], Callable] = {}
_by_head: dict[str, Callable] = {}


def _shape(head: str) -> tuple[int, ...]:
    """Shape of every homeotic gene with this head; any tail of references
    gives the same one."""
    gene = head + GENE_REFERENCES[0] * HOMEOTIC_TAIL_LEN
    n = len(_child_starts(gene, FUNCTION_ARITIES))
    return tuple(FUNCTION_ARITIES.get(symbol, 0) for symbol in gene[:n])


def _compile(shape: tuple[int, ...]) -> Callable:
    """`lambda g, v: ...` that evaluates a homeotic gene string g of this
    shape against the reference values v, as dataclasses builds its methods:
    the source holds only positions and the operator table's name, A."""
    first = [1]
    for ar in shape:
        first.append(first[-1] + ar)

    def node(i: int) -> str:
        if shape[i] == 0:
            return f"v[g[{i}]]"
        children = ", ".join(node(j) for j in range(first[i], first[i] + shape[i]))
        return f"A[g[{i}]]({children})"

    return eval(f"lambda g, v: {node(0)}", {"A": OPERATORS})


def eval_homeotic(gene: str, ordinary_values) -> float:
    """Value of one homeotic gene; ordinary_values maps each reference
    character to the value of the ordinary gene it names."""
    root = gene[0]
    if root in ordinary_values:  # a reference root is the whole expression
        return ordinary_values[root]
    head = gene[:HOMEOTIC_HEAD_LEN]
    fn = _by_head.get(head)
    if fn is None:
        shape = _shape(head)
        fn = _by_shape.get(shape)
        if fn is None:
            fn = _by_shape[shape] = _compile(shape)
        _by_head[head] = fn
    return fn(gene, ordinary_values)
