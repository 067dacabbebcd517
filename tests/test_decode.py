import itertools
import math
import random
import struct

import pytest
from oracles import eval_chromosome, expressed_length, ref_eval_homeotic, ref_eval_ordinary

from fuzzygep import bench, decode
from fuzzygep.decode import OPERATORS, eval_homeotic, eval_ordinary
from fuzzygep.genome import (
    BASE_OPERATORS,
    DC_ALPHABET,
    DC_START,
    DIGIT_TERMINALS,
    FUNCTION_ARITIES,
    GENE_REFERENCES,
    N_CONSTANTS,
    ORDINARY_GENE_LEN,
    gene_slices,
    position_alphabets,
    random_chromosome,
)

CONSTS = (0.1, 0.2, 0.3, 0.87227, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
# two ordinary genes (head 6, tail 7, dc 7), two homeotic genes (head 4, tail 5)
SMALL = 2


def ordinary(gene):
    assert len(gene) == ORDINARY_GENE_LEN
    return eval_ordinary(gene, CONSTS)


def test_single_terminal_root():
    assert expressed_length("aabaaaa") == 1
    assert ordinary("aabaaaaaaaaaa" "AAAAAAA") == 0.0


def test_breadth_first_structure():
    # breadth first, - takes * and a, then * takes b and c: (1*2) - 0;
    # depth first, * would take a and b and - would take c: (0*1) - 2
    assert ordinary("-*abcaaaaaaaa" "AAAAAAA") == 2.0


def test_digit_terminals():
    assert ordinary("+bcaaaaaaaaaa" "AAAAAAA") == 3.0
    assert ordinary("jaaaaaaaaaaaa" "AAAAAAA") == 9.0


def test_rnc_binding_uses_dc_order():
    # F is the fourth Dc letter (A B D F ...), so it names CONSTS[3]
    assert ordinary("*?baaaaaaaaaa" "FAABAAA") == 0.87227


def test_multiple_rnc_terminals():
    # expressed: - ? ?  -> the first '?' reads the first Dc letter, the
    # second the second
    assert expressed_length("-???aaa") == 3
    assert ordinary("-???aaaaaaaaa" "ABDFAAA") == CONSTS[0] - CONSTS[1]


def test_unexpressed_suffix_is_ignored():
    # same expressed prefix, junk after, in the coding and the Dc region
    assert ordinary("+abaaaaaaaaaa" "AAAAAAA") == ordinary("+abjijjjijjij" "BDFGHIJ") == 1.0


def test_expressed_length_worst_case_heads():
    for h in range(1, 9):
        layout_tail = h + 1
        coding = "+" * h + "a" * layout_tail
        assert expressed_length(coding) == 2 * h + 1
        # no '?' is expressed, so no Dc letter is read, and a coding string
        # longer than DC_START (h > 6) still decodes
        gene = coding.ljust(DC_START, "a").ljust(ORDINARY_GENE_LEN, "A")
        assert ordinary(gene) == 0.0


def test_protected_division():
    assert OPERATORS["/"](5.0, 0.0) == 1.0
    assert OPERATORS["/"](5.0, 1e-13) == 1.0
    assert OPERATORS["/"](6.0, 2.0) == 3.0
    assert OPERATORS["/"](1.0, -1e-13) == 1.0
    assert math.isnan(OPERATORS["/"](float("inf"), float("inf")))


def test_protected_unaries():
    assert OPERATORS["Q"](-4.0) == 2.0
    assert math.isnan(OPERATORS["Q"](float("nan")))
    assert OPERATORS["Q"](float("-inf")) == float("inf")
    assert OPERATORS["S"](1.0) == pytest.approx(0.8414709848, abs=1e-10)
    assert math.isnan(OPERATORS["S"](float("inf")))
    assert math.isnan(OPERATORS["C"](float("-inf")))
    assert OPERATORS["E"](710.0) == math.exp(700.0)
    assert OPERATORS["E"](float("-inf")) == 0.0
    assert math.isnan(OPERATORS["E"](float("nan")))
    assert OPERATORS["C"](0.0) == 1.0


def test_exact_ieee_for_ordinary_ops():
    assert OPERATORS["+"](0.1, 0.2) == 0.1 + 0.2
    assert OPERATORS["-"](1.0, 0.3) == 1.0 - 0.3
    assert OPERATORS["*"](1e308, 10.0) == float("inf")


# Single-symbol genes: the root is the whole expression. Every slot after it
# holds an operator, which no terminal or Dc read accepts, so a decoder that
# reads past the root gives another value or raises.
ORDINARY_OPERATORS = "+-*/SCQE+-*/"  # the 12 coding slots after the root
HOMEOTIC_OPERATORS = "+-*/SCQE"  # the 8 coding slots after the root


def test_rnc_root_reads_only_the_first_dc_letter():
    coding = "?" + ORDINARY_OPERATORS
    assert ordinary(coding + "F" + "+-*/SC") == CONSTS[3]
    for later in DC_ALPHABET:
        assert ordinary(coding + "F" + later * 6) == CONSTS[3]


def test_digit_root_is_the_digit():
    for value, digit in enumerate(DIGIT_TERMINALS):
        assert ordinary(digit + ORDINARY_OPERATORS + "+-*/SCQ") == float(value)


def test_reference_root_is_the_referenced_value():
    values = {"0": -0.0, "1": 3.0}
    assert eval_homeotic("1" + HOMEOTIC_OPERATORS, values) == 3.0
    # the referenced float itself, sign of zero included
    assert math.copysign(1.0, eval_homeotic("0" + HOMEOTIC_OPERATORS, values)) == -1.0


def test_homeotic_gene_refs():
    values = {"0": 2.0, "1": 3.0}
    assert eval_homeotic("+010000", values) == 5.0
    assert eval_homeotic("1000000", values) == 3.0  # root only


def test_eval_chromosome_full():
    c = ("+bcaaaaaaaaaa" "AAAAAAA"  # 3
         "*cdaaaaaaaaaa" "AAAAAAA"  # 6
         "+01000000"                # 9
         "100000000")               # 6
    assert eval_chromosome(c, SMALL, CONSTS) == (9.0, 6.0)


def test_homeotic_genes_are_independent():
    genes = "+bcaaaaaaaaaaAAAAAAA*cdaaaaaaaaaaAAAAAAA+01000000"
    a = eval_chromosome(genes + "100000000", SMALL, CONSTS)
    b = eval_chromosome(genes + "000000000", SMALL, CONSTS)
    assert a[0] == b[0]
    assert a[1] != b[1]


def test_exp_clamp_keeps_single_chain_finite():
    # E(E(9)) hits the clamp: exp(min(8103, 700)) = exp(700), large but finite
    assert ordinary("EEjaaa" + "a" * 7 + "A" * 7) == math.exp(700.0)


def test_non_finite_propagation_without_raising():
    # exp(700) * exp(700) overflows to inf
    assert ordinary("*EEEEj" + "j" * 7 + "A" * 7) == math.inf
    # inf - inf propagates as nan, still no exception
    infinite = (math.inf,) + CONSTS[1:]
    assert math.isnan(eval_ordinary("-??" + "a" * 10 + "A" * 7, infinite))
    # and so does the sine of the overflow
    assert math.isnan(ordinary("S*EEEE" + "j" * 7 + "A" * 7))


def _randomize_unexpressed(c, n_homeotic, extra, rng):
    """Rewrite every slot the decoder never reads; value must not move."""
    alphabets = position_alphabets(n_homeotic, extra)
    slots = list(c)

    def scramble(start, stop):
        for pos in range(start, stop):
            slots[pos] = rng.choice(alphabets[pos])

    ordinary, homeotic = gene_slices(n_homeotic)
    for gene in ordinary:
        n_expr = expressed_length(c[gene])
        n_rnc = c[gene][:n_expr].count("?")
        dc = gene.start + DC_START
        scramble(gene.start + n_expr, dc)
        scramble(dc + n_rnc, gene.stop)
    for gene in homeotic:
        scramble(gene.start + expressed_length(c[gene]), gene.stop)
    return "".join(slots)


def test_unexpressed_regions_never_change_value():
    extra = ("S", "Q")
    alphabets = position_alphabets(2, extra)
    rng = random.Random(17)
    for _ in range(100):
        c = random_chromosome(alphabets, rng)
        base = eval_chromosome(c, 2, CONSTS)
        shuffled = _randomize_unexpressed(c, 2, extra, rng)
        again = eval_chromosome(shuffled, 2, CONSTS)
        for u, v in zip(base, again):
            assert u == v or (math.isnan(u) and math.isnan(v))


def _same_float(a, b):
    return (math.isnan(a) and math.isnan(b)) or struct.pack("<d", a) == struct.pack("<d", b)


@pytest.mark.parametrize("extra", sorted({bench.builtin(name).extra_operators
                                          for name in bench.problem_names()}),
                         ids=lambda extra: "".join(extra) or "arithmetic")
def test_gene_values_match_the_level_by_level_reference(extra):
    """Both gene decoders give the bits of a decoder written from the
    K-expression definition, NaN for NaN, on random chromosomes."""
    alphabets = position_alphabets(4, extra)
    ordinary_slices, homeotic_slices = gene_slices(4)
    rng = random.Random(31)
    for _ in range(3000):
        c = random_chromosome(alphabets, rng)
        # a wide range, so that E overflows and the protected paths run
        consts = tuple(rng.uniform(-100.0, 100.0) for _ in range(N_CONSTANTS))
        values = {}
        for ref, where in zip(GENE_REFERENCES, ordinary_slices):
            gene = c[where]
            values[ref] = eval_ordinary(gene, consts)
            # the reference takes head + tail (6 + 7 slots) and Dc apart
            want = ref_eval_ordinary(gene[:13], gene[13:], consts)
            assert _same_float(values[ref], want), (c, ref)
        for where in homeotic_slices:
            want = ref_eval_homeotic(c[where], values)
            assert _same_float(eval_homeotic(c[where], values), want), (c, where)


REGISTRY_OPERATOR_SETS = sorted({bench.builtin(name).extra_operators for name in bench.problem_names()})
# signed zeros, values under the division guard, NaN, infinities and values
# whose products overflow
SPECIAL_VALUES = (0.0, -0.0, 1e-13, -1e-13, math.nan, math.inf, -math.inf, 1e200, -1e200)
SPECIAL_PAIRS = list(itertools.product(SPECIAL_VALUES, repeat=2))
# complementary tails, so every tail slot names each ordinary gene once
TAILS = ("01101", "10010")


def test_every_operator_has_a_protected_function():
    assert set(decode.OPERATORS) == set(FUNCTION_ARITIES)


@pytest.mark.parametrize("extra", REGISTRY_OPERATOR_SETS, ids=lambda extra: "".join(extra) or "arithmetic")
def test_every_head_matches_the_reference_and_the_caches_stay_bounded(extra, monkeypatch):
    """Every head over the functions and references, with special ordinary
    values, decodes to the reference's bits, NaN for NaN; the generated
    evaluators number at most one per head and one per shape."""
    monkeypatch.setattr(decode, "_by_head", {})
    monkeypatch.setattr(decode, "_by_shape", {})
    symbols = BASE_OPERATORS + extra + GENE_REFERENCES
    for k, head in enumerate(itertools.product(symbols, repeat=4)):
        head = "".join(head)
        # three of the 81 ordered pairs per head, all 81 over any 27 heads in a row
        for pair in SPECIAL_PAIRS[3 * k % 81:3 * k % 81 + 3]:
            values = dict(zip(GENE_REFERENCES, pair))
            for tail in TAILS:
                coding = head + tail
                want = ref_eval_homeotic(coding, values)
                assert _same_float(eval_homeotic(coding, values), want), (coding, pair)
    assert len(decode._by_head) <= len(symbols) ** 4
    # the shapes seen: 7 with binary operators only, 42 with S, C, Q and E
    assert len(decode._by_shape) <= (7 if all(FUNCTION_ARITIES[op] == 2 for op in extra) else 42)
