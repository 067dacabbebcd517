"""Breadth-first decoding of K-expressions and protected evaluation.

The coding region of a gene is read left to right; position 0 is the root and
every function claims the next unclaimed positions as its children, exactly in
the order the symbols appear.  The scan stops once all open slots are filled,
so a gene usually expresses only a prefix of head+tail.  Both gene-level
functions take one gene, a slice of the chromosome string; an ordinary gene
holds its Dc region after head and tail, at DC_START.  Arities come from
FUNCTION_ARITIES: a coding slot holds only operators, whose arities it
states, or terminals and gene references, which it does not list.

A tail holds only terminals, so a gene's head alone fixes which positions are
expressed and the arity of each: the gene's shape.  Both kinds of gene are
evaluated by one generated function per shape, which applies each operator
to the operands the K-expression gives it.  The kinds differ only in the
source of a terminal: a homeotic reference reads the value of the gene it
names; an ordinary '?' reads the Dc letter after those of the '?'s expressed
before it, and a digit reads its value.  A homeotic gene finds its function
by its head, an ordinary gene by its head's arity digits, which bound the
functions it can need by 3**6 however many heads a long sweep meets.
"""

from __future__ import annotations

import functools
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
    ORDINARY_HEAD_LEN,
    RNC_TERMINAL,
    TERMINALS,
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


# Generated evaluators, built on first use and kept for the process. _compile
# memoizes one function per shape and terminal template, and each gene kind
# keys its functions by what fixes its shape. A homeotic head is its own key,
# read with no translation: it takes at most 10**4 values, eight operators and
# two references in four slots. An ordinary head takes any of 19**6, and long
# sweeps keep meeting new ones, so it is keyed by its arity digits instead, at
# most 3**6 keys, for one bytes.translate per call.
_by_head: dict[str, Callable] = {}
_by_arity: dict[bytes, Callable] = {}
# each head symbol to its arity as an ASCII digit, 0 for a terminal
_ARITY_DIGITS = bytes.maketrans(
    "".join(TERMINALS + tuple(FUNCTION_ARITIES)).encode(),
    ("0" * len(TERMINALS) + "".join(map(str, FUNCTION_ARITIES.values()))).encode())

# Source of the terminal at expressed position {i}. A homeotic terminal names
# an ordinary gene's value. An ordinary terminal is a digit, or a '?' that
# reads the Dc slot after those of the '?'s before it, all of them expressed.
_HOMEOTIC_TERMINAL = "v[g[{i}]]"
_ORDINARY_TERMINAL = (f"(v[X[g[{DC_START} + g.count({RNC_TERMINAL!r}, 0, {{i}})]]]"
                      f" if g[{{i}}] == {RNC_TERMINAL!r} else D[g[{{i}}]])")


def _shape(coding: str) -> tuple[int, ...]:
    """Arities of the expressed positions of a coding region, breadth first."""
    shape: list[int] = []
    open_slots = 1
    while open_slots:
        arity = FUNCTION_ARITIES.get(coding[len(shape)], 0)
        shape.append(arity)
        open_slots += arity - 1
    return tuple(shape)


@functools.cache
def _compile(shape: tuple[int, ...], terminal: str) -> Callable:
    """`lambda g, v: ...` that evaluates a gene string g of this shape, with
    terminal the source of the terminal at position {i}, as dataclasses
    builds its methods: the source holds only positions and the names of the
    operator, Dc and digit tables, A, X and D."""
    first = [1]
    for ar in shape:
        first.append(first[-1] + ar)

    def node(i: int) -> str:
        if shape[i] == 0:
            return terminal.format(i=i)
        children = ", ".join(node(j) for j in range(first[i], first[i] + shape[i]))
        return f"A[g[{i}]]({children})"

    return eval(f"lambda g, v: {node(0)}", {"A": OPERATORS, "X": DC_INDEX, "D": DIGIT_VALUES})


def eval_ordinary(gene: str, constants: tuple[float, ...]) -> float:
    """Value of one ordinary gene; the k-th expressed '?' reads the gene's
    k-th Dc letter, gene[DC_START + k]."""
    # a terminal root is the whole expression
    root = gene[0]
    if root == RNC_TERMINAL:
        return constants[DC_INDEX[gene[DC_START]]]
    if root in DIGIT_VALUES:
        return DIGIT_VALUES[root]
    key = gene[:ORDINARY_HEAD_LEN].encode().translate(_ARITY_DIGITS)
    fn = _by_arity.get(key)
    if fn is None:  # the tail holds only terminals, so the head fixes the shape
        fn = _by_arity[key] = _compile(_shape(gene[:DC_START]), _ORDINARY_TERMINAL)
    return fn(gene, constants)


def eval_homeotic(gene: str, ordinary_values) -> float:
    """Value of one homeotic gene; ordinary_values maps each reference
    character to the value of the ordinary gene it names."""
    root = gene[0]
    if root in ordinary_values:  # a reference root is the whole expression
        return ordinary_values[root]
    head = gene[:HOMEOTIC_HEAD_LEN]
    fn = _by_head.get(head)
    if fn is None:  # any tail of references gives the same shape
        fn = _by_head[head] = _compile(_shape(head + GENE_REFERENCES[0] * HOMEOTIC_TAIL_LEN),
                                       _HOMEOTIC_TERMINAL)
    return fn(gene, ordinary_values)
