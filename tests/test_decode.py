import math
import random
import struct

import pytest
from oracles import eval_chromosome, expressed_length, ref_eval_homeotic, ref_eval_ordinary

from fuzzygep import bench
from fuzzygep.decode import (
    build_tree,
    eval_homeotic,
    eval_ordinary,
    protected_apply,
)
from fuzzygep.genome import (
    GENE_REFERENCES,
    N_CONSTANTS,
    GeneLayout,
    SymbolSet,
    gene_slices,
    position_alphabets,
    random_chromosome,
)

SYM = SymbolSet()
CONSTS = (0.1, 0.2, 0.3, 0.87227, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
# two ordinary genes (head 6, tail 7, dc 7), two homeotic genes (head 4, tail 5)
SMALL = GeneLayout(n_homeotic=2)


def ordinary(coding, dc):
    return eval_ordinary(coding, dc, SYM, CONSTS)


def test_single_terminal_root():
    assert expressed_length("aabaaaa", SYM) == 1
    tree = build_tree("aabaaaa", SYM)
    assert tree.symbol == "a" and tree.children == ()
    assert ordinary("aabaaaa", "AAAA") == 0.0


def test_breadth_first_structure():
    tree = build_tree("+*abcaa", SYM)
    assert tree.symbol == "+"
    assert tree.children[0].symbol == "*"
    assert tree.children[1].symbol == "a"
    assert [n.symbol for n in tree.children[0].children] == ["b", "c"]
    # (1*2) + 0
    assert ordinary("+*abcaa", "AAAA") == 2.0


def test_digit_terminals():
    assert ordinary("+bcaaaa", "AAAA") == 3.0
    assert ordinary("jaaaaaa", "AAAA") == 9.0


def test_rnc_binding_uses_dc_order():
    assert ordinary("*?baaaa", "DAAB") == 0.87227
    tree = build_tree("*?baaaa", SYM)
    assert tree.children[0].rnc_ordinal == 0
    assert tree.rnc_ordinal is None


def test_multiple_rnc_terminals():
    # expressed: + ? ?  -> dc[0] and dc[1]
    assert expressed_length("+???aaa", SYM) == 3
    v = ordinary("+???aaa", "ABCD")
    assert v == CONSTS[0] + CONSTS[1]


def test_unexpressed_suffix_is_ignored():
    # same expressed prefix, junk after
    assert ordinary("+abaaaa", "AAAA") == ordinary("+abjijj", "AAAA") == 1.0


def test_expressed_length_worst_case_heads():
    for h in range(1, 9):
        layout_tail = h + 1
        coding = "+" * h + "a" * layout_tail
        assert expressed_length(coding, SYM) == 2 * h + 1
        assert ordinary(coding, "A" * layout_tail) == 0.0


def test_protected_division():
    assert protected_apply("/", (5.0, 0.0)) == 1.0
    assert protected_apply("/", (5.0, 1e-13)) == 1.0
    assert protected_apply("/", (6.0, 2.0)) == 3.0
    assert protected_apply("/", (1.0, -1e-13)) == 1.0
    assert math.isnan(protected_apply("/", (float("inf"), float("inf"))))


def test_protected_unaries():
    assert protected_apply("Q", (-4.0,)) == 2.0
    assert math.isnan(protected_apply("Q", (float("nan"),)))
    assert protected_apply("Q", (float("-inf"),)) == float("inf")
    assert protected_apply("S", (1.0,)) == pytest.approx(0.8414709848, abs=1e-10)
    assert math.isnan(protected_apply("S", (float("inf"),)))
    assert math.isnan(protected_apply("C", (float("-inf"),)))
    assert protected_apply("E", (710.0,)) == math.exp(700.0)
    assert protected_apply("E", (float("-inf"),)) == 0.0
    assert math.isnan(protected_apply("E", (float("nan"),)))
    assert protected_apply("C", (0.0,)) == 1.0
    # unknown symbol is a programming error, not a protected case
    with pytest.raises(ValueError):
        protected_apply("@", (1.0, 2.0))


def test_exact_ieee_for_ordinary_ops():
    assert protected_apply("+", (0.1, 0.2)) == 0.1 + 0.2
    assert protected_apply("-", (1.0, 0.3)) == 1.0 - 0.3
    assert protected_apply("*", (1e308, 10.0)) == float("inf")


def test_homeotic_gene_refs():
    values = {"0": 2.0, "1": 3.0}
    assert eval_homeotic("+010000", SYM, values) == 5.0
    assert eval_homeotic("1000000", SYM, values) == 3.0  # root only


def test_eval_chromosome_full():
    c = ("+bcaaaaaaaaaa" "AAAAAAA"  # 3
         "*cdaaaaaaaaaa" "AAAAAAA"  # 6
         "+01000000"                # 9
         "100000000")               # 6
    assert eval_chromosome(c, SMALL, SYM, CONSTS) == (9.0, 6.0)


def test_homeotic_genes_are_independent():
    genes = "+bcaaaaaaaaaaAAAAAAA*cdaaaaaaaaaaAAAAAAA+01000000"
    a = eval_chromosome(genes + "100000000", SMALL, SYM, CONSTS)
    b = eval_chromosome(genes + "000000000", SMALL, SYM, CONSTS)
    assert a[0] == b[0]
    assert a[1] != b[1]


def test_exp_clamp_keeps_single_chain_finite():
    sym = SymbolSet(("E",))
    # E(E(9)) hits the clamp: exp(min(8103, 700)) = exp(700), large but finite
    assert eval_ordinary("EEjaaaa", "AAAA", sym, CONSTS) == math.exp(700.0)


def test_non_finite_propagation_without_raising():
    sym = SymbolSet(("E",))
    # exp(700) * exp(700) overflows to inf
    assert math.isinf(eval_ordinary("*EEEE" + "j" * 6, "A" * 6, sym, CONSTS))
    # inf - inf propagates as nan, still no exception
    assert math.isnan(eval_ordinary("-**EEEEEEEE" + "j" * 12, "A" * 12, sym, CONSTS))


def _randomize_unexpressed(c, layout, sym, rng):
    """Rewrite every slot the decoder never reads; value must not move."""
    alphabets = position_alphabets(layout, sym)
    slots = list(c)

    def scramble(start, stop):
        for pos in range(start, stop):
            slots[pos] = rng.choice(alphabets[pos])

    ordinary, homeotic = gene_slices(layout)
    for coding, dc in ordinary:
        n_expr = expressed_length(c[coding], sym)
        n_rnc = c[coding][:n_expr].count("?")
        scramble(coding.start + n_expr, coding.stop)
        scramble(dc.start + n_rnc, dc.stop)
    for coding in homeotic:
        scramble(coding.start + expressed_length(c[coding], sym), coding.stop)
    return "".join(slots)


def test_unexpressed_regions_never_change_value():
    sym = SymbolSet(("S", "Q"))
    layout = GeneLayout(n_homeotic=2)
    alphabets = position_alphabets(layout, sym)
    rng = random.Random(17)
    for _ in range(100):
        c = random_chromosome(alphabets, rng)
        base = eval_chromosome(c, layout, sym, CONSTS)
        shuffled = _randomize_unexpressed(c, layout, sym, rng)
        again = eval_chromosome(shuffled, layout, sym, CONSTS)
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
    sym = SymbolSet(extra)
    layout = GeneLayout(n_homeotic=4)
    alphabets = position_alphabets(layout, sym)
    ordinary_slices, homeotic_slices = gene_slices(layout)
    rng = random.Random(31)
    for _ in range(3000):
        c = random_chromosome(alphabets, rng)
        # a wide range, so that E overflows and the protected paths run
        consts = tuple(rng.uniform(-100.0, 100.0) for _ in range(N_CONSTANTS))
        values = {}
        for ref, (coding, dc) in zip(GENE_REFERENCES, ordinary_slices):
            values[ref] = eval_ordinary(c[coding], c[dc], sym, consts)
            want = ref_eval_ordinary(c[coding], c[dc], sym.dc_alphabet, consts)
            assert _same_float(values[ref], want), (c, ref)
        for coding in homeotic_slices:
            want = ref_eval_homeotic(c[coding], values)
            assert _same_float(eval_homeotic(c[coding], sym, values), want), (c, coding)
