import dataclasses
import random
import re

import pytest
from oracles import expressed_length, ref_allowed_sets, validate

from fuzzygep import bench
from fuzzygep.evolve import Engine
from fuzzygep.genome import (
    DC_ALPHABET,
    DC_LEN,
    DC_START,
    FUNCTION_ARITIES,
    GENE_REFERENCES,
    HOMEOTIC_GENE_LEN,
    HOMEOTIC_HEAD_LEN,
    HOMEOTIC_TAIL_LEN,
    N_CONSTANTS,
    ORDINARY_END,
    ORDINARY_GENE_LEN,
    ORDINARY_HEAD_LEN,
    ORDINARY_TAIL_LEN,
    TERMINALS,
    flatten,
    gene_slices,
    position_alphabets,
    random_chromosome,
    random_constant_set,
    rebuild,
)

# upper 0.1% chi-square quantiles by degrees of freedom
CHI2_999 = {1: 10.828, 5: 20.515, 9: 27.877, 10: 29.588, 14: 36.123}


def test_tail_length_formula():
    """Tails are h*(amax-1) + 1 slots long, with amax = 2."""
    assert ORDINARY_TAIL_LEN == 6 * (2 - 1) + 1 == 7
    assert HOMEOTIC_TAIL_LEN == 4 * (2 - 1) + 1 == 5


def test_fixed_tails_fit_every_registry_problem():
    """The fixed tails of h + 1 slots hold only while no operator takes more
    than two arguments; a head of binary operators then expresses exactly
    head + tail slots."""
    assert max(FUNCTION_ARITIES.values()) == 2
    for name in bench.problem_names():
        assert set(bench.builtin(name).extra_operators) <= set(FUNCTION_ARITIES), name
    for h, tail, terminal in ((ORDINARY_HEAD_LEN, ORDINARY_TAIL_LEN, "a"),
                              (HOMEOTIC_HEAD_LEN, HOMEOTIC_TAIL_LEN, "0")):
        assert tail == h + 1
        assert expressed_length("+" * h + terminal * tail) == h + tail


def test_layout_derived_sizes():
    assert (ORDINARY_HEAD_LEN, ORDINARY_TAIL_LEN, DC_LEN) == (6, 7, 7)
    assert (HOMEOTIC_HEAD_LEN, HOMEOTIC_TAIL_LEN) == (4, 5)
    assert ORDINARY_GENE_LEN == 20
    assert HOMEOTIC_GENE_LEN == 9
    assert ORDINARY_END == 40
    assert len(position_alphabets(2)) == 2 * 20 + 2 * 9


def test_dimension_zero_is_rejected():
    """Problem is public, so a problem of dimension 0 built by hand must not
    give a chromosome without homeotic genes."""
    with pytest.raises(ValueError, match="n_homeotic must be positive"):
        position_alphabets(0)
    with pytest.raises(ValueError, match="n_homeotic must be positive"):
        Engine(dataclasses.replace(bench.builtin("f1"), dim=0))


def test_dc_alphabet_is_fixed_and_apart_from_every_other_symbol():
    """Dc slots are read only through DC_INDEX, so the letters need only be
    distinct and meet no operator, terminal or gene reference."""
    assert len(DC_ALPHABET) == len(set(DC_ALPHABET)) == N_CONSTANTS == 10
    assert all(len(c) == 1 and c.isascii() and c.isupper() for c in DC_ALPHABET)
    others = set(FUNCTION_ARITIES) | set(TERMINALS) | set(GENE_REFERENCES)
    assert not set(DC_ALPHABET) & others


def test_position_alphabets_rejects_bad_operators():
    """An unknown operator, or one given twice (a base operator again
    counts), is refused, also when an Engine is built for the problem."""
    for extra, message in ((("X",), "unknown operator 'X'"),
                           (("S", "S"), "repeated operator in ('+', '-', '*', '/', 'S', 'S')"),
                           (("+",), "repeated operator in ('+', '-', '*', '/', '+')")):
        message = re.escape(message)
        with pytest.raises(ValueError, match=message):
            position_alphabets(1, extra)
        with pytest.raises(ValueError, match=message):
            Engine(dataclasses.replace(bench.builtin("f1"), extra_operators=extra))


def test_registry_alphabets_are_disjoint_single_ascii_non_digits():
    for name in bench.problem_names():
        alphabets = position_alphabets(1, bench.builtin(name).extra_operators)
        # an ordinary head slot offers the functions and the terminals
        dc = alphabets[ORDINARY_HEAD_LEN + ORDINARY_TAIL_LEN]
        symbols = alphabets[0] + dc
        assert all(len(s) == 1 and s.isascii() and not s.isdigit() for s in symbols), name
        assert len(set(symbols)) == len(symbols), name  # no repeat within or across alphabets
        assert len(dc) == N_CONSTANTS == 10, name
        assert not set(symbols) & set(GENE_REFERENCES), name


def test_gene_references():
    assert GENE_REFERENCES == ("0", "1")
    assert len(gene_slices(1)[0]) == len(GENE_REFERENCES)


@pytest.mark.parametrize("n", [1, 10, 11, 40])
def test_gene_references_are_distinct_single_characters_outside_other_alphabets(n):
    """Every homeotic tail of an n-gene chromosome reads the same two
    references, which no other alphabet holds."""
    alphabets = position_alphabets(n, ("S", "C", "Q", "E"))
    start = ORDINARY_END + HOMEOTIC_HEAD_LEN
    tails = {alphabets[g * HOMEOTIC_GENE_LEN + start + i]
             for g in range(n) for i in range(HOMEOTIC_TAIL_LEN)}
    assert tails == {GENE_REFERENCES}
    assert len(set(GENE_REFERENCES)) == 2 and all(len(r) == 1 for r in GENE_REFERENCES)
    assert not set(GENE_REFERENCES) & (set(FUNCTION_ARITIES) | set(TERMINALS) | set(DC_ALPHABET))


@pytest.mark.parametrize("n_homeotic", [
    pytest.param(1, id="layout0"),
    pytest.param(30, id="layout1"),
    pytest.param(50, id="layout2"),
])
def test_random_chromosome_equals_region_by_region_choices(n_homeotic):
    """The single-pass draw is the rng.choices draw, slot for slot."""
    functions = ("+", "-", "*", "/", "S", "Q")
    refs = GENE_REFERENCES
    ordinary_head = functions + TERMINALS
    homeotic_head = functions + refs
    alphabets = position_alphabets(n_homeotic, ("S", "Q"))
    for seed in range(20):
        twin = random.Random(seed)
        parts = []
        for _ in range(len(GENE_REFERENCES)):
            parts += twin.choices(ordinary_head, k=ORDINARY_HEAD_LEN)
            parts += twin.choices(TERMINALS, k=ORDINARY_TAIL_LEN)
            parts += twin.choices(DC_ALPHABET, k=DC_LEN)
        for _ in range(n_homeotic):
            parts += twin.choices(homeotic_head, k=HOMEOTIC_HEAD_LEN)
            parts += twin.choices(refs, k=HOMEOTIC_TAIL_LEN)
        rng = random.Random(seed)
        assert random_chromosome(alphabets, rng) == "".join(parts)
        assert rng.random() == twin.random()  # same number of draws


def test_random_chromosome_is_valid():
    extra = ("S", "C", "Q", "E")
    alphabets = position_alphabets(3, extra)
    rng = random.Random(5)
    for _ in range(200):
        c = random_chromosome(alphabets, rng)
        assert isinstance(c, str) and len(c) == ORDINARY_END + 3 * HOMEOTIC_GENE_LEN
        assert validate(c, 3, extra) == []


def test_random_chromosome_deterministic():
    alphabets = position_alphabets(1)
    a = random_chromosome(alphabets, random.Random(7))
    b = random_chromosome(alphabets, random.Random(7))
    c = random_chromosome(alphabets, random.Random(8))
    assert a == b
    assert a != c


def test_position_uniformity():
    """Chi-square on every slot of the flat chromosome at the 99.9% level."""
    alphabets = position_alphabets(1)
    rng = random.Random(42)
    n = 20000
    counts = [dict.fromkeys(alpha, 0) for alpha in alphabets]
    for _ in range(n):
        flat = flatten(random_chromosome(alphabets, rng))
        for pos, sym_at in enumerate(flat):
            counts[pos][sym_at] += 1
    for pos, alpha in enumerate(alphabets):
        expected = n / len(alpha)
        chi2 = sum((counts[pos][s] - expected) ** 2 / expected for s in alpha)
        df = len(alpha) - 1
        assert chi2 < CHI2_999[df], f"position {pos}: chi2={chi2:.1f} df={df}"


def test_position_alphabets_structure():
    alphabets = position_alphabets(1)
    assert len(alphabets) == ORDINARY_END + HOMEOTIC_GENE_LEN
    refs = GENE_REFERENCES
    # ordinary gene 0: head, tail, dc
    assert "+" in alphabets[0] and "?" in alphabets[0]
    tail_start = ORDINARY_HEAD_LEN
    assert set(alphabets[tail_start]) == set(TERMINALS)
    dc_start = tail_start + ORDINARY_TAIL_LEN
    assert set(alphabets[dc_start]) == set(DC_ALPHABET)
    # homeotic gene: head admits functions and refs, tail refs only
    hom_start = ORDINARY_END
    assert set(alphabets[hom_start]) == {"+", "-", "*", "/"} | set(refs)
    assert set(alphabets[hom_start + HOMEOTIC_HEAD_LEN]) == set(refs)


@pytest.mark.parametrize("n_homeotic", [1, 2, 30, 50])
def test_position_alphabets_match_the_region_definitions(n_homeotic):
    """Every slot draws from exactly the set its region allows; a validity
    check of drawn genomes cannot see an alphabet that is too narrow."""
    for name in bench.problem_names():
        extra = bench.builtin(name).extra_operators
        alphabets = list(map(set, position_alphabets(n_homeotic, extra)))
        assert alphabets == list(ref_allowed_sets(n_homeotic, extra)), name


@pytest.mark.parametrize("n_homeotic", [1, 30, 50])
def test_every_slot_offers_a_mutation_target(n_homeotic):
    """mutate rewrites a slot to another symbol of its alphabet without
    checking that one exists, so every alphabet needs at least two."""
    for name in bench.problem_names():
        extra = bench.builtin(name).extra_operators
        assert min(map(len, position_alphabets(n_homeotic, extra))) >= 2, name


def test_random_constant_set_bounds_and_length():
    rng = random.Random(1)
    cs = random_constant_set(-5.12, 5.12, rng)
    assert isinstance(cs, tuple) and len(cs) == N_CONSTANTS
    assert all(-5.12 <= v <= 5.12 for v in cs)


def test_random_constant_set_rejects_empty_range():
    rng = random.Random(1)
    with pytest.raises(ValueError):
        random_constant_set(1.0, 1.0, rng)
    with pytest.raises(ValueError):
        random_constant_set(2.0, -2.0, rng)


def test_random_constant_set_mean():
    rng = random.Random(99)
    total = 0.0
    for _ in range(10_000):
        total += sum(random_constant_set(0.0, 1.0, rng))
    assert abs(total / 100_000 - 0.5) < 0.01


def test_flatten_rebuild_roundtrip():
    alphabets = position_alphabets(2, ("S",))
    rng = random.Random(3)
    for _ in range(50):
        c = random_chromosome(alphabets, rng)
        assert flatten(c) == list(c)
        assert rebuild(flatten(c)) == c


def test_gene_slices_tile_the_chromosome():
    """gene_slices, DC_START and position_alphabets read the sizes
    separately, so the slices must tile the alphabet table, and the tail and
    Dc region of each ordinary gene must meet at DC_START."""
    ordinary, homeotic = gene_slices(2)
    assert ordinary == (slice(0, 20), slice(20, 40))
    assert homeotic == (slice(40, 49), slice(49, 58))
    assert DC_START == 13
    for n in (1, 2, 30, 50):
        ordinary, homeotic = gene_slices(n)
        alphabets = position_alphabets(n, ("S", "C"))
        covered = [i for gene in ordinary + homeotic for i in range(gene.start, gene.stop)]
        assert covered == list(range(len(alphabets))), n
        for gene in ordinary:
            tail_and_dc = alphabets[gene][DC_START - ORDINARY_TAIL_LEN:]
            assert tail_and_dc == (TERMINALS,) * ORDINARY_TAIL_LEN + (DC_ALPHABET,) * DC_LEN, n
        assert all(a == GENE_REFERENCES for gene in homeotic
                   for a in alphabets[gene][-HOMEOTIC_TAIL_LEN:]), n


def _valid_chromosome(n_homeotic, seed=0):
    return random_chromosome(position_alphabets(n_homeotic), random.Random(seed))


def test_validate_accepts_valid():
    assert validate(_valid_chromosome(1), 1) == []


def _replace(c: str, pos: int, sym: str) -> str:
    return c[:pos] + sym + c[pos + 1:]


# one homeotic gene: ordinary genes of 6 head + 7 tail + 7 dc slots at 0 and
# 20, then the homeotic gene of 4 head + 5 tail slots at 40


def test_validate_flags_function_in_tail():
    bad = _replace(_valid_chromosome(1), 6, "+")
    issues = validate(bad, 1)
    assert len(issues) == 1
    assert "ordinary gene 0 tail" in issues[0] and "position 0" in issues[0]


def test_validate_flags_bad_dc_symbol():
    bad = _replace(_valid_chromosome(1), 36, "z")
    issues = validate(bad, 1)
    assert len(issues) == 1 and "ordinary gene 1 dc, position 3" in issues[0]


def test_validate_flags_terminal_in_homeotic_head():
    bad = _replace(_valid_chromosome(1), 40, "a")
    issues = validate(bad, 1)
    assert len(issues) == 1 and "homeotic gene 0 head, position 0" in issues[0]


def test_validate_flags_every_bad_slot_by_gene_region_and_offset():
    bad = _replace(_replace(_valid_chromosome(3), 8, "A"), 64, "a")
    assert validate(bad, 3) == [
        "ordinary gene 0 tail, position 2: symbol 'A' not allowed",
        "homeotic gene 2 tail, position 2: symbol 'a' not allowed",
    ]


def test_validate_flags_wrong_lengths_and_counts():
    """Gene counts and region sizes are fixed offsets in the string, so a
    missing gene, a short region or a homeotic Dc region all show up as a
    wrong total length."""
    c = _valid_chromosome(1)
    short = c[:2] + c[3:]  # one head slot of ordinary gene 0 missing
    assert validate(short, 1) == ["expected 49 symbols, got 48"]
    missing = c[20:]  # ordinary gene 0 missing
    assert validate(missing, 1) == ["expected 49 symbols, got 29"]
    with_dc = c + "A"  # a Dc slot after the homeotic gene
    assert validate(with_dc, 1) == ["expected 49 symbols, got 50"]
