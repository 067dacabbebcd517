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
from functools import cached_property, lru_cache
from operator import contains

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


def tail_length(head_len: int, max_arity: int) -> int:
    """Tail size that keeps any head expressible: h*(amax-1) + 1."""
    return head_len * (max_arity - 1) + 1


@lru_cache(maxsize=None)
def gene_references(n_ordinary: int) -> tuple[str, ...]:
    """Terminals of the homeotic genes, one character per ordinary gene.

    "0".."9" name the first ten genes, code points from U+0100 upward the
    rest; SymbolSet admits neither, so references never meet another alphabet.
    """
    return tuple(str(i) if i < 10 else chr(0x100 + i - 10) for i in range(n_ordinary))


class SymbolSet:
    """Alphabets for one problem: functions, terminals, Dc index letters."""

    def __init__(self, functions, terminals, dc_alphabet):
        functions = tuple(functions)
        self.functions = tuple(sym for sym, _ in functions)
        self.arity = {sym: ar for sym, ar in functions}
        self.terminals = tuple(terminals)
        self.dc_alphabet = tuple(dc_alphabet)
        if not functions:
            raise ValueError("need at least one function symbol")
        for sym, ar in functions:
            if ar < 1:
                raise ValueError(f"function {sym!r} must take arguments")
        for sym in self.functions + self.terminals + self.dc_alphabet:
            if len(sym) != 1 or not sym.isascii() or sym.isdigit():
                raise ValueError(f"symbol {sym!r} must be one ASCII character other than a digit")
        if RNC_TERMINAL not in self.terminals:
            raise ValueError("terminal set must include '?'")
        f, t, d = set(self.functions), set(self.terminals), set(self.dc_alphabet)
        if f & t or f & d or t & d:
            raise ValueError("function, terminal and Dc alphabets must be disjoint")
        if len(f) != len(self.functions) or len(t) != len(self.terminals) or len(d) != len(self.dc_alphabet):
            raise ValueError("duplicate symbol in alphabet")
        self.max_arity = max(self.arity.values())
        self.dc_index = {sym: i for i, sym in enumerate(self.dc_alphabet)}

    @classmethod
    def create(cls, extra_operators=(), n_constants: int = 10) -> "SymbolSet":
        """Standard alphabets: four arithmetic ops plus per-problem unaries.

        Dc letters are drawn from A..Z skipping any letter that doubles as a
        function symbol, so the three alphabets stay disjoint.
        """
        functions = [(op, FUNCTION_ARITIES[op]) for op in BASE_OPERATORS]
        for op in extra_operators:
            if op not in FUNCTION_ARITIES:
                raise ValueError(f"unknown operator {op!r}")
            functions.append((op, FUNCTION_ARITIES[op]))
        used = {sym for sym, _ in functions}
        capitals = [c for c in string.ascii_uppercase if c not in used]
        if n_constants < 1 or n_constants > len(capitals):
            raise ValueError(f"n_constants must be in 1..{len(capitals)}")
        terminals = (RNC_TERMINAL,) + DIGIT_TERMINALS
        return cls(functions, terminals, capitals[:n_constants])


@dataclass(frozen=True)
class GeneLayout:
    """Structural sizes shared by every chromosome in a population."""

    ordinary_head_len: int = 6
    homeotic_head_len: int = 4
    n_ordinary: int = 2
    n_homeotic: int = 1
    max_arity: int = 2

    def __post_init__(self):
        for name in ("ordinary_head_len", "homeotic_head_len", "n_ordinary", "n_homeotic"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.max_arity < 1:
            raise ValueError("max_arity must be positive")

    @cached_property
    def ordinary_tail_len(self) -> int:
        return tail_length(self.ordinary_head_len, self.max_arity)

    @cached_property
    def homeotic_tail_len(self) -> int:
        return tail_length(self.homeotic_head_len, self.max_arity)

    @cached_property
    def dc_len(self) -> int:
        # one Dc slot per possible '?' in the expressed region
        return self.ordinary_tail_len

    @cached_property
    def ordinary_gene_len(self) -> int:
        return self.ordinary_head_len + self.ordinary_tail_len + self.dc_len

    @cached_property
    def homeotic_gene_len(self) -> int:
        return self.homeotic_head_len + self.homeotic_tail_len

    @cached_property
    def total_len(self) -> int:
        return self.n_ordinary * self.ordinary_gene_len + self.n_homeotic * self.homeotic_gene_len


@dataclass(frozen=True)
class ConstantSet:
    """Shared pool of random numerical constants indexed by Dc letters."""

    values: tuple[float, ...]


def random_constant_set(n: int, lower: float, upper: float, rng: random.Random) -> ConstantSet:
    if not lower < upper:
        raise ValueError(f"empty constant range [{lower}, {upper})")
    return ConstantSet(tuple(rng.uniform(lower, upper) for _ in range(n)))


def position_alphabets(layout: GeneLayout, symbols: SymbolSet) -> tuple[tuple[str, ...], ...]:
    """Legal symbols for every slot of the chromosome string, in order."""
    return _alphabets(layout, symbols.functions, symbols.terminals, symbols.dc_alphabet)


# keyed by value, so a new SymbolSet for every run adds no entry
@lru_cache(maxsize=64)
def _alphabets(layout, functions, terminals, dc_alphabet):
    refs = gene_references(layout.n_ordinary)
    ordinary_head = functions + terminals
    homeotic_head = functions + refs
    table: list[tuple[str, ...]] = []
    for _ in range(layout.n_ordinary):
        table += [ordinary_head] * layout.ordinary_head_len
        table += [terminals] * layout.ordinary_tail_len
        table += [dc_alphabet] * layout.dc_len
    for _ in range(layout.n_homeotic):
        table += [homeotic_head] * layout.homeotic_head_len
        table += [refs] * layout.homeotic_tail_len
    return tuple(table)


@lru_cache(maxsize=64)
def _allowed_sets(layout, functions, terminals, dc_alphabet):
    return tuple(frozenset(alpha) for alpha in _alphabets(layout, functions, terminals, dc_alphabet))


def random_chromosome(layout: GeneLayout, symbols: SymbolSet, rng: random.Random) -> str:
    """Uniform draw per slot from that slot's legal alphabet.

    Each slot takes alpha[floor(rng.random() * len(alpha))], which is the
    draw rng.choices makes, so the string equals a region-by-region
    rng.choices draw from an identically seeded generator.
    """
    rand = rng.random
    return "".join([alpha[int(rand() * len(alpha))] for alpha in position_alphabets(layout, symbols)])


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


def _slot_name(layout: GeneLayout, pos: int) -> str:
    """Gene, region and offset of one slot, e.g. 'ordinary gene 1 dc, position 3'."""
    ordinary_end = layout.n_ordinary * layout.ordinary_gene_len
    if pos < ordinary_end:
        kind = "ordinary"
        gene, offset = divmod(pos, layout.ordinary_gene_len)
        regions = (("head", layout.ordinary_head_len), ("tail", layout.ordinary_tail_len),
                   ("dc", layout.dc_len))
    else:
        kind = "homeotic"
        gene, offset = divmod(pos - ordinary_end, layout.homeotic_gene_len)
        regions = (("head", layout.homeotic_head_len), ("tail", layout.homeotic_tail_len))
    for region, size in regions:
        if offset < size:
            break
        offset -= size
    return f"{kind} gene {gene} {region}, position {offset}"


def validate(chromosome: str, layout: GeneLayout, symbols: SymbolSet) -> list[str]:
    """Structural check; returns human-readable violations, empty when valid."""
    if len(chromosome) != layout.total_len:
        return [f"expected {layout.total_len} symbols, got {len(chromosome)}"]
    allowed = _allowed_sets(layout, symbols.functions, symbols.terminals, symbols.dc_alphabet)
    if all(map(contains, allowed, chromosome)):
        return []
    return [f"{_slot_name(layout, pos)}: symbol {sym!r} not allowed"
            for pos, (sym, ok) in enumerate(zip(chromosome, allowed)) if sym not in ok]
