"""Linear genomes for multicellular gene expression programming.

A chromosome is one string with one character per slot.  It holds two kinds
of genes at the fixed offsets gene_slices gives: first the ordinary genes,
each a head, a tail and a Dc region, which decode to one real number each;
then one homeotic gene per coordinate of the candidate point, each a head
and a tail, whose terminals are reference characters naming ordinary genes.
The gene sizes and the terminal, Dc and reference alphabets are module
constants; only the operator set varies by problem, and position_alphabets
is the one place that takes it.

A random chromosome is drawn in one rng.getrandbits call, and each slot
takes the symbol that rng.random() would have picked for it from the same
two 32-bit words.  Most slots are settled by the top byte of the first word
alone, through one bytes.translate table per alphabet; the few whose top
byte straddles a symbol boundary are computed from both words in full.
random_chromosome's docstring gives the word layout and the argument.

position_alphabets builds those tables once per layout and operator set,
with mutate's per-slot table, and hands them out on the Alphabets tuple it
returns; the draws read them from there.
"""

from __future__ import annotations

import functools
import random
import string
import struct

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


class Alphabets(tuple):
    """position_alphabets' per-slot alphabets, carrying the draw tables built
    from them: runs, one (slots, _top_byte_table) pair per run of slots that
    share one alphabet, for random_chromosome, and slot_plans, one _slot_plan
    entry per slot, for mutate.  Its slices and copies are plain tuples."""


@functools.cache
def position_alphabets(n_homeotic: int, extra_operators=()) -> Alphabets:
    """Legal symbols for every slot of a chromosome with n_homeotic homeotic
    genes, in order, with the draw tables for them; the functions are the
    four arithmetic operators and extra_operators.

    Memoized, so every engine of one problem gets the same Alphabets and the
    tables are built once per problem, when its first engine is made.
    """
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
    alphabets = Alphabets(ordinary * len(refs) + homeotic * n_homeotic)
    # the runs: each ordinary gene's head, tail and Dc region, and each
    # offset inside the homeotic genes
    ends = (0, ORDINARY_HEAD_LEN, DC_START, ORDINARY_GENE_LEN)
    runs = [slice(g * ORDINARY_GENE_LEN + start, g * ORDINARY_GENE_LEN + stop)
            for g in range(len(refs)) for start, stop in zip(ends, ends[1:])]
    runs += [slice(ORDINARY_END + j, None, HOMEOTIC_GENE_LEN) for j in range(HOMEOTIC_GENE_LEN)]
    alphabets.runs = tuple((run, _top_byte_table(alphabets[run.start])) for run in runs)
    alphabets.slot_plans = tuple(map(_slot_plan, alphabets))
    return alphabets


# the two 32-bit words of one slot's draw, in the order the generator gave them
_SLOT_WORDS = struct.Struct("<II")


@functools.cache
def _top_byte_table(alpha: tuple[str, ...]) -> bytes:
    """bytes.translate table from the top byte of a slot's first word to the
    symbol of alpha that every draw with that top byte picks, or to 0 where
    draws with that top byte pick different symbols."""
    n = len(alpha)
    symbols = "".join(alpha).encode("ascii")
    table = bytearray(256)
    for t in range(256):
        # the draws with top byte t span [t/256, (t+1)/256 - 2**-53], and
        # int(r * n) is monotone in r, so its ends decide the whole interval
        first = int(t / 256 * n)
        if first == int(((t + 1) / 256 - 2.0 ** -53) * n):
            table[t] = symbols[first]
    return bytes(table)


@functools.cache
def _slot_plan(alphabet: tuple[str, ...]) -> tuple[int, int, tuple]:
    """mutate's draw for a slot: (n, bits, others), n = len(alphabet) - 1,
    its bit length, and others[c], the bytes of the other symbols than the
    one with ASCII code c, or None."""
    n = len(alphabet) - 1
    others = [None] * 128
    for s in alphabet:
        others[ord(s)] = "".join(o for o in alphabet if o != s).encode("ascii")
    return n, n.bit_length(), tuple(others)


def random_chromosome(alphabets, rng: random.Random) -> str:
    """Uniform draw per slot from that slot's legal alphabet, translated
    through the tables alphabets carries; raises ValueError before any draw
    unless alphabets is what position_alphabets returned.

    Slot i takes alpha[int(r * len(alpha))] for the r that the i-th
    rng.random() call would return, which is the draw rng.choices makes, so
    the string and the generator's state afterwards equal those of a
    region-by-region rng.choices draw from an identically seeded generator.
    CPython's random() reads two 32-bit words a and b and returns
    ((a >> 5) * 2**26 + (b >> 6)) / 2**53; one getrandbits(64 * slots) call
    reads the same words in the same order, the first in the lowest bits, so
    slot i's words are bytes 8i..8i+3 and 8i+4..8i+7 of the little-endian
    result, and byte 8i+3 is the top byte of a.  That byte fixes r to within
    1/256, which fixes the symbol unless a symbol boundary k/len(alpha) falls
    inside that interval; such top bytes translate to 0, and every slot that
    holds 0 is computed from both words in full.
    """
    if type(alphabets) is not Alphabets:
        raise ValueError("alphabets do not come from position_alphabets")
    slots = len(alphabets)
    raw = rng.getrandbits(64 * slots).to_bytes(8 * slots, "little")
    top = raw[3::8]
    out = bytearray(slots)
    for run, table in alphabets.runs:
        out[run] = top[run].translate(table)
    i = out.find(0)
    while i >= 0:
        a, b = _SLOT_WORDS.unpack_from(raw, 8 * i)
        alpha = alphabets[i]
        r = ((a >> 5) * 67108864.0 + (b >> 6)) * (1.0 / 9007199254740992.0)
        out[i] = ord(alpha[int(r * len(alpha))])
        i = out.find(0, i + 1)
    return out.decode("ascii")


def flatten(chromosome: str) -> bytearray:
    """The chromosome's slots as ASCII bytes (every symbol is one), to edit in
    place; a non-ASCII symbol raises UnicodeEncodeError, never a wrong byte."""
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
