"""Linear genomes for multicellular gene expression programming.

A chromosome is one string with one character per slot.  It holds two kinds
of genes at fixed offsets given by GeneLayout: first the ordinary genes, each
a head, a tail and a Dc region, which decode to one real number each; then
the homeotic genes, each a head and a tail, whose terminals are reference
characters naming ordinary genes.  Each homeotic gene produces one
coordinate of the candidate point.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from functools import cached_property

FUNCTION_ARITIES = {
    "+": 2,
    "-": 2,
    "*": 2,
    "/": 2,
    "S": 1,  # sine
    "C": 1,  # cosine
    "Q": 1,  # square root of |x|
    "E": 1,  # exponential, clamped
}

BASE_OPERATORS = ("+", "-", "*", "/")

# 'a'..'j' stand for the integer literals 0..9.
DIGIT_TERMINALS = tuple(string.ascii_lowercase[:10])
DIGIT_VALUES = {symbol: float(i) for i, symbol in enumerate(DIGIT_TERMINALS)}

RNC_TERMINAL = "?"

# Dc letters, each naming one random numerical constant
N_CONSTANTS = 10


# Terminals of the homeotic genes, one digit per ordinary gene; no SymbolSet
# alphabet holds a digit, so references never meet its symbols.
GENE_REFERENCES = ("0", "1")


class SymbolSet:
    """Alphabets for one problem: functions, terminals, Dc index letters.

    The four arithmetic operators plus the problem's unaries; '?' and the
    digit terminals; the first N_CONSTANTS capitals that are not function
    symbols.  None holds a digit, so gene references never meet them.
    """

    def __init__(self, extra_operators=()):
        self.functions = BASE_OPERATORS + tuple(extra_operators)
        for op in self.functions:
            if op not in FUNCTION_ARITIES:
                raise ValueError(f"unknown operator {op!r}")
        self.arity = {op: FUNCTION_ARITIES[op] for op in self.functions}
        if len(self.arity) != len(self.functions):
            raise ValueError(f"repeated operator in {self.functions!r}")
        self.terminals = (RNC_TERMINAL,) + DIGIT_TERMINALS
        self.dc_alphabet = tuple(c for c in string.ascii_uppercase if c not in self.arity)[:N_CONSTANTS]
        self.dc_index = {sym: i for i, sym in enumerate(self.dc_alphabet)}


@dataclass(frozen=True)
class GeneLayout:
    """Structural sizes shared by every chromosome in a population.

    The shape is the method's: two ordinary genes with head 6 and one
    homeotic gene with head 4 per coordinate.  A tail of h*(amax-1) + 1 slots
    keeps any head expressible; no operator takes more than two arguments,
    so every tail is h + 1 long.
    """

    n_homeotic: int = 1

    n_ordinary = len(GENE_REFERENCES)
    ordinary_head_len = 6
    homeotic_head_len = 4
    ordinary_tail_len = ordinary_head_len + 1
    homeotic_tail_len = homeotic_head_len + 1
    # one Dc slot per possible '?' in the expressed region
    dc_len = ordinary_tail_len
    ordinary_gene_len = ordinary_head_len + ordinary_tail_len + dc_len
    homeotic_gene_len = homeotic_head_len + homeotic_tail_len

    def __post_init__(self):
        if self.n_homeotic < 1:
            raise ValueError("n_homeotic must be positive")

    @cached_property
    def total_len(self) -> int:
        return self.n_ordinary * self.ordinary_gene_len + self.n_homeotic * self.homeotic_gene_len


def random_constant_set(lower: float, upper: float, rng: random.Random) -> tuple[float, ...]:
    """Shared pool of N_CONSTANTS random numerical constants, indexed by Dc letters."""
    if not lower < upper:
        raise ValueError(f"empty constant range [{lower}, {upper})")
    return tuple(rng.uniform(lower, upper) for _ in range(N_CONSTANTS))


def position_alphabets(layout: GeneLayout, symbols: SymbolSet) -> tuple[tuple[str, ...], ...]:
    """Legal symbols for every slot of the chromosome string, in order."""
    refs = GENE_REFERENCES
    functions, terminals = symbols.functions, symbols.terminals
    ordinary_head = functions + terminals
    homeotic_head = functions + refs
    table: list[tuple[str, ...]] = []
    for _ in range(layout.n_ordinary):
        table += [ordinary_head] * layout.ordinary_head_len
        table += [terminals] * layout.ordinary_tail_len
        table += [symbols.dc_alphabet] * layout.dc_len
    for _ in range(layout.n_homeotic):
        table += [homeotic_head] * layout.homeotic_head_len
        table += [refs] * layout.homeotic_tail_len
    return tuple(table)


def random_chromosome(alphabets, rng: random.Random) -> str:
    """Uniform draw per slot from that slot's legal alphabet, given per slot
    as position_alphabets lists them.

    Each slot takes alpha[floor(rng.random() * len(alpha))], which is the
    draw rng.choices makes, so the string equals a region-by-region
    rng.choices draw from an identically seeded generator.
    """
    rand = rng.random
    return "".join([alpha[int(rand() * len(alpha))] for alpha in alphabets])


def flatten(chromosome: str) -> list[str]:
    """The chromosome's slots as a list, for editing in place."""
    return list(chromosome)


def rebuild(flat, layout: GeneLayout) -> str:
    """Inverse of flatten for a given layout."""
    if len(flat) != layout.total_len:
        raise ValueError(f"expected {layout.total_len} symbols, got {len(flat)}")
    return "".join(flat)


def gene_slices(layout: GeneLayout) -> tuple[tuple[tuple[slice, slice], ...], tuple[slice, ...]]:
    """Where the genes sit in a chromosome string: a (coding, dc) slice pair
    per ordinary gene, then the coding slice of each homeotic gene."""
    ordinary = []
    for g in range(layout.n_ordinary):
        start = g * layout.ordinary_gene_len
        dc = start + layout.ordinary_head_len + layout.ordinary_tail_len
        ordinary.append((slice(start, dc), slice(dc, dc + layout.dc_len)))
    base = layout.n_ordinary * layout.ordinary_gene_len
    size = layout.homeotic_gene_len
    homeotic = tuple(slice(base + g * size, base + (g + 1) * size) for g in range(layout.n_homeotic))
    return tuple(ordinary), homeotic

