import random
from dataclasses import fields

import pytest
from oracles import expressed_length, ref_allowed_sets, validate

from fuzzygep import bench
from fuzzygep.genome import (
    FUNCTION_ARITIES,
    GENE_REFERENCES,
    N_CONSTANTS,
    GeneLayout,
    SymbolSet,
    flatten,
    gene_slices,
    position_alphabets,
    random_chromosome,
    random_constant_set,
    rebuild,
)

# upper 0.1% chi-square quantiles by degrees of freedom
CHI2_999 = {1: 10.828, 5: 20.515, 9: 27.877, 10: 29.588, 14: 36.123}


def small_layout():
    return GeneLayout(n_homeotic=1)


def test_tail_length_formula():
    """Tails are h*(amax-1) + 1 slots long, with amax = 2."""
    assert GeneLayout.ordinary_tail_len == 6 * (2 - 1) + 1 == 7
    assert GeneLayout.homeotic_tail_len == 4 * (2 - 1) + 1 == 5


def test_fixed_tails_fit_every_registry_problem():
    """The fixed tails of h + 1 slots hold only while no operator takes more
    than two arguments; a head of binary operators then expresses exactly
    head + tail slots."""
    assert max(FUNCTION_ARITIES.values()) == 2
    for name in bench.problem_names():
        sym = SymbolSet(bench.builtin(name).extra_operators)
        assert max(sym.arity.values()) == 2, name
        for h, tail, terminal in ((GeneLayout.ordinary_head_len, GeneLayout.ordinary_tail_len, "a"),
                                  (GeneLayout.homeotic_head_len, GeneLayout.homeotic_tail_len, "0")):
            assert tail == h + 1
            assert expressed_length("+" * h + terminal * tail, sym) == h + tail, name


def test_layout_derived_sizes():
    layout = GeneLayout(n_homeotic=2)
    assert layout.ordinary_tail_len == 7
    assert layout.homeotic_tail_len == 5
    assert layout.dc_len == 7
    assert layout.ordinary_gene_len == 20
    assert layout.homeotic_gene_len == 9
    assert layout.total_len == 2 * 20 + 2 * 9
    assert [f.name for f in fields(GeneLayout)] == ["n_homeotic"]


@pytest.mark.parametrize("kwargs", [
    {"ordinary_head_len": 0},
    {"homeotic_head_len": -1},
    {"n_ordinary": 0},
    {"n_homeotic": 0},
    {"max_arity": 0},
])
def test_layout_rejects_bad_sizes(kwargs):
    """n_homeotic must be positive; every other size is fixed, so naming one
    is a TypeError."""
    with pytest.raises(ValueError if "n_homeotic" in kwargs else TypeError):
        GeneLayout(**kwargs)


def test_symbolset_contents():
    sym = SymbolSet()
    assert sym.functions == ("+", "-", "*", "/")
    assert sym.terminals[0] == "?"
    assert set("abcdefghij") <= set(sym.terminals)
    assert sym.dc_alphabet == tuple("ABCDEFGHIJ")
    assert max(sym.arity.values()) == 2
    assert sym.arity["+"] == 2


def test_symbolset_extra_operators():
    sym = SymbolSet(("S", "Q"))
    assert sym.arity["S"] == 1
    assert max(sym.arity.values()) == 2
    with pytest.raises(ValueError):
        SymbolSet(("X",))
    with pytest.raises(ValueError):
        SymbolSet(("S", "S"))
    with pytest.raises(ValueError):
        SymbolSet(("+",))  # already a base operator


def test_dc_alphabet_avoids_operator_letters():
    sym = SymbolSet(("C", "E"))
    assert "C" not in sym.dc_alphabet
    assert "E" not in sym.dc_alphabet
    assert len(sym.dc_alphabet) == 10
    assert sym.dc_alphabet[:3] == ("A", "B", "D")


def test_registry_alphabets_are_disjoint_single_ascii_non_digits():
    for name in bench.problem_names():
        sym = SymbolSet(bench.builtin(name).extra_operators)
        symbols = sym.functions + sym.terminals + sym.dc_alphabet
        assert all(len(s) == 1 and s.isascii() and not s.isdigit() for s in symbols), name
        assert len(set(symbols)) == len(symbols), name  # no repeat within or across alphabets
        assert len(sym.dc_alphabet) == N_CONSTANTS == 10, name
        assert not set(symbols) & set(GENE_REFERENCES), name


def test_gene_references():
    assert GENE_REFERENCES == ("0", "1")
    assert GeneLayout.n_ordinary == len(GENE_REFERENCES)


@pytest.mark.parametrize("n", [1, 10, 11, 40])
def test_gene_references_are_distinct_single_characters_outside_other_alphabets(n):
    """Every homeotic tail of an n-gene layout reads the same two references,
    which no other alphabet holds."""
    sym = SymbolSet(("S", "C", "Q", "E"))
    layout = GeneLayout(n_homeotic=n)
    alphabets = position_alphabets(layout, sym)
    start = layout.n_ordinary * layout.ordinary_gene_len + layout.homeotic_head_len
    tails = {alphabets[g * layout.homeotic_gene_len + start + i]
             for g in range(n) for i in range(layout.homeotic_tail_len)}
    assert tails == {GENE_REFERENCES}
    assert len(set(GENE_REFERENCES)) == 2 and all(len(r) == 1 for r in GENE_REFERENCES)
    assert not set(GENE_REFERENCES) & (set(sym.functions) | set(sym.terminals) | set(sym.dc_alphabet))


@pytest.mark.parametrize("layout", [
    GeneLayout(n_homeotic=1),
    GeneLayout(n_homeotic=30),
    GeneLayout(n_homeotic=50),
])
def test_random_chromosome_equals_region_by_region_choices(layout):
    """The single-pass draw is the rng.choices draw, slot for slot."""
    sym = SymbolSet(("S", "Q"))
    refs = GENE_REFERENCES
    ordinary_head = sym.functions + sym.terminals
    homeotic_head = sym.functions + refs
    for seed in range(20):
        twin = random.Random(seed)
        parts = []
        for _ in range(layout.n_ordinary):
            parts += twin.choices(ordinary_head, k=layout.ordinary_head_len)
            parts += twin.choices(sym.terminals, k=layout.ordinary_tail_len)
            parts += twin.choices(sym.dc_alphabet, k=layout.dc_len)
        for _ in range(layout.n_homeotic):
            parts += twin.choices(homeotic_head, k=layout.homeotic_head_len)
            parts += twin.choices(refs, k=layout.homeotic_tail_len)
        rng = random.Random(seed)
        assert random_chromosome(layout, sym, rng) == "".join(parts)
        assert rng.random() == twin.random()  # same number of draws


def test_random_chromosome_is_valid():
    sym = SymbolSet(("S", "C", "Q", "E"))
    layout = GeneLayout(n_homeotic=3)
    rng = random.Random(5)
    for _ in range(200):
        c = random_chromosome(layout, sym, rng)
        assert isinstance(c, str) and len(c) == layout.total_len
        assert validate(c, layout, sym) == []


def test_random_chromosome_deterministic():
    sym = SymbolSet()
    layout = small_layout()
    a = random_chromosome(layout, sym, random.Random(7))
    b = random_chromosome(layout, sym, random.Random(7))
    c = random_chromosome(layout, sym, random.Random(8))
    assert a == b
    assert a != c


def test_position_uniformity():
    """Chi-square on every slot of the flat chromosome at the 99.9% level."""
    sym = SymbolSet()
    layout = small_layout()
    alphabets = position_alphabets(layout, sym)
    rng = random.Random(42)
    n = 20000
    counts = [dict.fromkeys(alpha, 0) for alpha in alphabets]
    for _ in range(n):
        flat = flatten(random_chromosome(layout, sym, rng))
        for pos, sym_at in enumerate(flat):
            counts[pos][sym_at] += 1
    for pos, alpha in enumerate(alphabets):
        expected = n / len(alpha)
        chi2 = sum((counts[pos][s] - expected) ** 2 / expected for s in alpha)
        df = len(alpha) - 1
        assert chi2 < CHI2_999[df], f"position {pos}: chi2={chi2:.1f} df={df}"


def test_position_alphabets_structure():
    sym = SymbolSet()
    layout = small_layout()
    alphabets = position_alphabets(layout, sym)
    assert len(alphabets) == layout.total_len
    refs = GENE_REFERENCES
    # ordinary gene 0: head, tail, dc
    assert "+" in alphabets[0] and "?" in alphabets[0]
    tail_start = layout.ordinary_head_len
    assert set(alphabets[tail_start]) == set(sym.terminals)
    dc_start = tail_start + layout.ordinary_tail_len
    assert set(alphabets[dc_start]) == set(sym.dc_alphabet)
    # homeotic gene: head admits functions and refs, tail refs only
    hom_start = layout.n_ordinary * layout.ordinary_gene_len
    assert set(alphabets[hom_start]) == set(sym.functions) | set(refs)
    assert set(alphabets[hom_start + layout.homeotic_head_len]) == set(refs)


@pytest.mark.parametrize("n_homeotic", [1, 2, 30, 50])
def test_position_alphabets_match_the_region_definitions(n_homeotic):
    """Every slot draws from exactly the set its region allows; a validity
    check of drawn genomes cannot see an alphabet that is too narrow."""
    layout = GeneLayout(n_homeotic=n_homeotic)
    for name in bench.problem_names():
        sym = SymbolSet(bench.builtin(name).extra_operators)
        alphabets = list(map(set, position_alphabets(layout, sym)))
        assert alphabets == list(ref_allowed_sets(layout, sym)), name


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
    sym = SymbolSet(("S",))
    layout = GeneLayout(n_homeotic=2)
    rng = random.Random(3)
    for _ in range(50):
        c = random_chromosome(layout, sym, rng)
        assert flatten(c) == list(c)
        assert rebuild(flatten(c), layout) == c
    with pytest.raises(ValueError):
        rebuild(flatten(c)[:-1], layout)


def test_gene_slices_tile_the_chromosome():
    layout = GeneLayout(n_homeotic=2)
    ordinary, homeotic = gene_slices(layout)
    assert ordinary == ((slice(0, 13), slice(13, 20)), (slice(20, 33), slice(33, 40)))
    assert homeotic == (slice(40, 49), slice(49, 58))
    covered = [i for coding, dc in ordinary for i in range(coding.start, dc.stop)]
    covered += [i for coding in homeotic for i in range(coding.start, coding.stop)]
    assert covered == list(range(layout.total_len))


def _valid_chromosome(layout, sym, seed=0):
    return random_chromosome(layout, sym, random.Random(seed))


def test_validate_accepts_valid():
    sym = SymbolSet()
    layout = small_layout()
    assert validate(_valid_chromosome(layout, sym), layout, sym) == []


def _replace(c: str, pos: int, sym: str) -> str:
    return c[:pos] + sym + c[pos + 1:]


# small_layout(): ordinary genes of 6 head + 7 tail + 7 dc slots at 0 and 20,
# then one homeotic gene of 4 head + 5 tail slots at 40


def test_validate_flags_function_in_tail():
    sym = SymbolSet()
    layout = small_layout()
    bad = _replace(_valid_chromosome(layout, sym), 6, "+")
    issues = validate(bad, layout, sym)
    assert len(issues) == 1
    assert "ordinary gene 0 tail" in issues[0] and "position 0" in issues[0]


def test_validate_flags_bad_dc_symbol():
    sym = SymbolSet()
    layout = small_layout()
    bad = _replace(_valid_chromosome(layout, sym), 36, "z")
    issues = validate(bad, layout, sym)
    assert len(issues) == 1 and "ordinary gene 1 dc, position 3" in issues[0]


def test_validate_flags_terminal_in_homeotic_head():
    sym = SymbolSet()
    layout = small_layout()
    bad = _replace(_valid_chromosome(layout, sym), 40, "a")
    issues = validate(bad, layout, sym)
    assert len(issues) == 1 and "homeotic gene 0 head, position 0" in issues[0]


def test_validate_flags_every_bad_slot_by_gene_region_and_offset():
    sym = SymbolSet()
    layout = GeneLayout(n_homeotic=3)
    bad = _replace(_replace(_valid_chromosome(layout, sym), 8, "A"), 64, "a")
    assert validate(bad, layout, sym) == [
        "ordinary gene 0 tail, position 2: symbol 'A' not allowed",
        "homeotic gene 2 tail, position 2: symbol 'a' not allowed",
    ]


def test_validate_flags_wrong_lengths_and_counts():
    """Gene counts and region sizes are fixed offsets in the string, so a
    missing gene, a short region or a homeotic Dc region all show up as a
    wrong total length."""
    sym = SymbolSet()
    layout = small_layout()
    c = _valid_chromosome(layout, sym)
    short = c[:2] + c[3:]  # one head slot of ordinary gene 0 missing
    assert validate(short, layout, sym) == ["expected 49 symbols, got 48"]
    missing = c[20:]  # ordinary gene 0 missing
    assert validate(missing, layout, sym) == ["expected 49 symbols, got 29"]
    with_dc = c + "A"  # a Dc slot after the homeotic gene
    assert validate(with_dc, layout, sym) == ["expected 49 symbols, got 50"]
