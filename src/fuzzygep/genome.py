"""Linear genomes for multicellular gene expression programming.

A chromosome is one string with one character per slot.  It holds two kinds
of genes at the fixed offsets gene_slices gives: first the ordinary genes,
each a head, a tail and a Dc region, which decode to one real number each;
then one homeotic gene per coordinate of the candidate point, each a head
and a tail, whose terminals are reference characters naming ordinary genes.
The gene sizes and the terminal, Dc and reference alphabets are module
constants; only the operator set varies by problem, and position_alphabets
is the one place that takes it.
"""

from __future__ import annotations

import random
import string

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

TERMINALS = (RNC_TERMINAL,) + DIGIT_TERMINALS

# Dc letters, each naming one random numerical constant: the first
# N_CONSTANTS capitals that are not operator symbols
N_CONSTANTS = 10
DC_ALPHABET = tuple(c for c in string.ascii_uppercase if c not in FUNCTION_ARITIES)[:N_CONSTANTS]
DC_INDEX = {symbol: i for i, symbol in enumerate(DC_ALPHABET)}

# Terminals of the homeotic genes, one digit per ordinary gene; no other
# alphabet holds a digit, so references never meet the other symbols.
GENE_REFERENCES = ("0", "1")


# The shape is the method's: two ordinary genes with head 6 and one homeotic
# gene with head 4 per coordinate.  A tail of h*(amax-1) + 1 slots keeps any
# head expressible; no operator takes more than two arguments, so every tail
# is h + 1 long.
ORDINARY_HEAD_LEN = 6
HOMEOTIC_HEAD_LEN = 4
ORDINARY_TAIL_LEN = ORDINARY_HEAD_LEN + 1
HOMEOTIC_TAIL_LEN = HOMEOTIC_HEAD_LEN + 1
# one Dc slot per possible '?' in the expressed region, after head and tail
DC_LEN = ORDINARY_TAIL_LEN
DC_START = ORDINARY_HEAD_LEN + ORDINARY_TAIL_LEN
ORDINARY_GENE_LEN = DC_START + DC_LEN
HOMEOTIC_GENE_LEN = HOMEOTIC_HEAD_LEN + HOMEOTIC_TAIL_LEN
# where the ordinary region ends and the first homeotic gene starts
ORDINARY_END = len(GENE_REFERENCES) * ORDINARY_GENE_LEN


def random_constant_set(lower: float, upper: float, rng: random.Random) -> tuple[float, ...]:
    """Shared pool of N_CONSTANTS random numerical constants, indexed by Dc letters."""
    if not lower < upper:
        raise ValueError(f"empty constant range [{lower}, {upper})")
    return tuple(rng.uniform(lower, upper) for _ in range(N_CONSTANTS))


def position_alphabets(n_homeotic: int, extra_operators=()) -> tuple[tuple[str, ...], ...]:
    """Legal symbols for every slot of a chromosome with n_homeotic homeotic
    genes, in order; the functions are the four arithmetic operators and
    extra_operators."""
    if n_homeotic < 1:
        raise ValueError("n_homeotic must be positive")
    functions = BASE_OPERATORS + tuple(extra_operators)
    for op in functions:
        if op not in FUNCTION_ARITIES:
            raise ValueError(f"unknown operator {op!r}")
    if len(set(functions)) != len(functions):
        raise ValueError(f"repeated operator in {functions!r}")
    refs = GENE_REFERENCES
    ordinary = ([functions + TERMINALS] * ORDINARY_HEAD_LEN + [TERMINALS] * ORDINARY_TAIL_LEN
                + [DC_ALPHABET] * DC_LEN)
    homeotic = [functions + refs] * HOMEOTIC_HEAD_LEN + [refs] * HOMEOTIC_TAIL_LEN
    return tuple(ordinary * len(refs) + homeotic * n_homeotic)


def random_chromosome(alphabets, rng: random.Random) -> str:
    """Uniform draw per slot from that slot's legal alphabet, given per slot
    as position_alphabets lists them.

    Each slot takes alpha[floor(rng.random() * len(alpha))], which is the
    draw rng.choices makes, so the string equals a region-by-region
    rng.choices draw from an identically seeded generator.
    """
    rand = rng.random
    return "".join([alpha[int(rand() * len(alpha))] for alpha in alphabets])


def flatten(chromosome: str) -> bytearray:
    """The chromosome's slots as ASCII bytes (every symbol is one), to edit in place."""
    return bytearray(chromosome, "ascii")


def rebuild(flat: bytearray) -> str:
    """Inverse of flatten."""
    return flat.decode("ascii")


def gene_slices(n_homeotic: int) -> tuple[tuple[slice, ...], tuple[slice, ...]]:
    """Where the genes sit in a chromosome string with n_homeotic homeotic
    genes: one slice per ordinary gene, then one per homeotic gene."""
    ordinary = tuple(slice(g * ORDINARY_GENE_LEN, (g + 1) * ORDINARY_GENE_LEN)
                     for g in range(len(GENE_REFERENCES)))
    size = HOMEOTIC_GENE_LEN
    homeotic = tuple(slice(ORDINARY_END + g * size, ORDINARY_END + (g + 1) * size) for g in range(n_homeotic))
    return ordinary, homeotic
