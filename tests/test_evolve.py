import dataclasses
import math
import random
import struct
from collections import Counter

import oracles
import pytest

from fuzzygep import cli, evolve
from fuzzygep.bench import builtin, problem_names
from fuzzygep.evolve import (
    BASELINE_RATES,
    MUTATIONS_PER_INDIVIDUAL,
    Engine,
    EngineConfig,
    Individual,
    Rates,
    RunResult,
    adapt_rates,
    crossover,
    diversity,
    mutate,
    run,
    select,
)
from fuzzygep.genome import (
    ORDINARY_END,
    position_alphabets,
    random_chromosome,
)

N_HOMEOTIC = 2
ALPHABETS = position_alphabets(N_HOMEOTIC)


def stub(fitness, direction="minimize"):
    return Individual(None, (), fitness, oracles.ref_rank(fitness, direction))


class ScriptedRng:
    """Returns pre-baked values; fails loudly when the script runs dry or
    a draw it has no script for is made."""

    def __init__(self, randranges=()):
        self.randranges = list(randranges)

    def randrange(self, n):
        return self.randranges.pop(0)


# --- diversity ---

def test_diversity_minimize():
    reading = diversity([stub(2.0), stub(6.0)], "minimize")
    assert reading.d == 0.5
    assert reading.f_ave == 4.0


def test_diversity_maximize():
    reading = diversity([stub(9.0), stub(10.0), stub(8.0)], "maximize")
    assert reading.d == 0.9


def test_diversity_converged_population():
    assert diversity([stub(3.3)] * 4, "minimize").d == 1.0
    assert diversity([stub(0.0)] * 4, "minimize").d == 1.0  # num == den == 0


def test_diversity_zero_mean():
    # mean 0 with distinct values: ratio undefined -> 0
    assert diversity([stub(-1.0), stub(1.0)], "minimize").d == 0.0


def test_diversity_negative_ratio_clamped():
    assert diversity([stub(-2.0), stub(6.0)], "minimize").d == 0.0
    assert diversity([stub(4.0), stub(-8.0)], "maximize").d == 0.0


def test_diversity_ratio_above_one_clamped():
    # maximize with negative best: ratio > 1 must clamp
    assert diversity([stub(-10.0), stub(-2.0)], "maximize").d == 1.0


def test_diversity_ignores_non_finite():
    pop = [stub(2.0), stub(6.0), stub(float("nan")), stub(float("inf"))]
    reading = diversity(pop, "minimize")
    assert reading.d == 0.5 and reading.f_ave == 4.0


def test_means_add_left_to_right():
    """Means add one float at a time from the left, on every CPython; the
    compensated `sum()` of 3.12 and later gives 1/3 here, not 0.0."""
    values = [1e16, 1.0, -1e16]
    mean = oracles.ref_sum(values) / len(values)
    assert diversity([stub(v) for v in values], "minimize").f_ave == mean == 0.0
    results = [RunResult(i, stub(v), 0, 1, [], ()) for i, v in enumerate(values)]
    summary = cli.summarize(builtin("f1"), cli.ExperimentConfig("f1"), results)
    assert summary.mean_best == mean
    assert summary.variance == oracles.ref_sum((v - mean) ** 2 for v in values) / len(values)


def test_diversity_all_non_finite():
    reading = diversity([stub(float("nan")), stub(float("inf"))], "minimize")
    assert reading.d == 0.5
    assert math.isnan(reading.f_ave)


# --- adapt_rates ---

def test_fixed_branch_is_exact():
    cfg = EngineConfig()
    assert adapt_rates(0.5, 100, cfg) == Rates(0.4, 0.1, 0.0)
    assert adapt_rates(0.59, 500, cfg) == Rates(0.4, 0.1, 0.0)


def test_fuzzy_branch_at_m_peaks():
    cfg = EngineConfig()
    rates = adapt_rates(0.8, 750, cfg)
    assert rates.p_c == pytest.approx(0.2, abs=1e-9)
    assert rates.p_m == pytest.approx(0.15, abs=1e-9)
    assert rates.r_c == pytest.approx(0.25, abs=1e-9)


def test_constant_rate_gated_in_first_half():
    cfg = EngineConfig()
    assert adapt_rates(0.8, 500, cfg).r_c == 0.0
    assert adapt_rates(0.8, 501, cfg).r_c > 0.0


def test_constant_rate_uses_clamped_diversity():
    cfg = EngineConfig()
    low_d = adapt_rates(0.3, 800, cfg)
    assert low_d.p_c == 0.4 and low_d.p_m == 0.1
    assert low_d.r_c == adapt_rates(0.6, 800, cfg).r_c


def test_iteration_universe_follows_max_gen():
    """The constant rate's iteration universe is the second half of cfg's run."""
    short = EngineConfig(max_gen=200)
    # generation 150 of 200 and 750 of 1000 both sit on the M anchor
    assert adapt_rates(0.8, 150, short) == adapt_rates(0.8, 750, EngineConfig())
    assert adapt_rates(0.8, 100, short).r_c == 0.0


def test_baseline_rates_fixed_everywhere():
    cfg = EngineConfig(mode="baseline")
    for gen, d in ((0, 0.3), (400, 0.95), (900, 0.61)):
        assert adapt_rates(d, gen, cfg) == Rates(*BASELINE_RATES)


# --- engine config ---

@pytest.mark.parametrize("kwargs", [
    {"pop_size": 1},
    {"max_gen": 0},
    {"mode": "turbo"},
    {"termination_tol": -0.5},
    {"termination_tol": float("nan")},
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        EngineConfig(**kwargs)


def test_config_derived_counts():
    assert EngineConfig(pop_size=100).elite_count == 1
    assert EngineConfig(pop_size=350).elite_count == 4
    assert EngineConfig(pop_size=2).elite_count == 1
    cfg = EngineConfig()
    assert cfg.tournament_size(500) == 5
    assert cfg.tournament_size(10) == 2


# --- crossover ---

def test_crossover_never_fires_at_zero_rate(monkeypatch):
    """The pipelines draw the p_c coin, so at p_c = 0 crossover is never
    called, even with every genome mutating."""
    def never(*args):
        raise AssertionError("crossover called at p_c = 0")

    monkeypatch.setattr(evolve, "crossover", never)
    eng = make_engine(max_gen=10)
    parents = seeded_population(eng, 10)
    temp = eng.build_temp_population(parents, Rates(0.0, 1.0, 0.0))
    assert len(temp) == 50


def test_crossover_cut_zero_swaps_parents():
    rng = random.Random(1)
    a = random_chromosome(ALPHABETS, rng)
    b = random_chromosome(ALPHABETS, rng)
    scripted = ScriptedRng(randranges=[0])  # it has no random(), so no coin
    assert crossover(a, b, scripted) == (b, a)


def test_crossover_exchanges_suffixes():
    rng = random.Random(2)
    a = random_chromosome(ALPHABETS, rng)
    b = random_chromosome(ALPHABETS, rng)
    cut = 13
    scripted = ScriptedRng(randranges=[cut])
    child_a, child_b = crossover(a, b, scripted)
    assert child_a == a[:cut] + b[cut:]
    assert child_b == b[:cut] + a[cut:]


def test_crossover_offspring_always_valid():
    rng = random.Random(3)
    for _ in range(1000):
        a = random_chromosome(ALPHABETS, rng)
        b = random_chromosome(ALPHABETS, rng)
        for child in crossover(a, b, rng):
            assert oracles.validate(child, N_HOMEOTIC) == []


# --- mutate ---

def test_mutate_never_fires_at_zero_rate(monkeypatch):
    """The pipelines draw the p_m coin, so at p_m = 0 mutate is never
    called, even with every pair crossing."""
    def never(*args):
        raise AssertionError("mutate called at p_m = 0")

    monkeypatch.setattr(evolve, "mutate", never)
    eng = make_engine(max_gen=10)
    parents = seeded_population(eng, 10)
    temp = eng.build_temp_population(parents, Rates(1.0, 0.0, 0.0))
    assert len(temp) == 50


def test_mutate_changes_k_distinct_positions():
    rng = random.Random(5)
    for _ in range(200):
        c = random_chromosome(ALPHABETS, rng)
        m = mutate(c, ALPHABETS, rng)
        diff = sum(1 for x, y in zip(c, m) if x != y)
        assert diff == 2  # every slot alphabet has >= 2 symbols, so both stick


def test_mutate_respects_position_alphabets():
    rng = random.Random(6)
    for _ in range(1000):
        c = random_chromosome(ALPHABETS, rng)
        m = mutate(c, ALPHABETS, rng)
        assert oracles.validate(m, N_HOMEOTIC) == []


# --- selection ---

def test_select_keeps_elites_and_size():
    rng = random.Random(7)
    cfg = EngineConfig(pop_size=10)
    temp = [stub(float(i)) for i in range(50)]
    out = select(temp, cfg, rng)
    assert len(out) == 10
    assert out[0].fitness == 0.0
    assert min(ind.fitness for ind in out) == 0.0


def test_select_direction_aware():
    rng = random.Random(8)
    cfg = EngineConfig(pop_size=5)
    temp = [stub(float(i), "maximize") for i in range(40)]
    out = select(temp, cfg, rng)
    assert out[0].fitness == 39.0


def test_select_degenerate_tournament_returns_global_best():
    """At pop size 2 a temp of 2 gives one elite and one tournament of 2."""
    rng = random.Random(9)
    cfg = EngineConfig(pop_size=2)
    temp = [stub(1.0), stub(0.0)]
    assert cfg.tournament_size(len(temp)) == len(temp)
    out = select(temp, cfg, rng)
    assert [ind.fitness for ind in out] == [0.0, 0.0]


def test_select_finite_beats_non_finite():
    cfg = EngineConfig(pop_size=2)
    temp = [stub(float("nan")), stub(5.0)]
    out = select(temp, cfg, random.Random(10))
    assert out[0].fitness == 5.0   # elite
    assert out[1].fitness == 5.0   # tournament: finite wins over nan


def test_select_requires_enough_candidates():
    with pytest.raises(ValueError):
        select([stub(1.0)], EngineConfig(pop_size=10), random.Random(0))


@pytest.mark.parametrize("direction", ["minimize", "maximize"])
def test_select_puts_the_best_of_temp_first(direction):
    """Engine.run reads its best candidate off population[0]: it must be
    the member min(temp, key=...) returns, the first of equal keys."""
    rng = random.Random(len(direction))
    values = [-0.0, 0.0, float("nan"), float("inf"), float("-inf")]
    key = oracles._ref_sort_key(direction)
    for pop_size in (2, 10, 100, 250):
        cfg = EngineConfig(pop_size=pop_size)
        for _ in range(20):
            # few distinct values, so ties are common
            pool = values + [float(rng.randrange(-3, 4)) for _ in range(rng.randrange(1, 6))]
            temp = [stub(rng.choice(pool), direction) for _ in range(5 * pop_size)]
            assert select(temp, cfg, rng)[0] is min(temp, key=key)


# --- draws inlined from random.shuffle and random.randrange ---

@pytest.mark.parametrize("n", [0, 1, 2, 3, 99, 100, 101, 500])
def test_shuffle_matches_random_shuffle(n):
    """Draw for draw, at lengths around powers of two, where the rejection
    loop's bit count steps."""
    ours, twin = random.Random(n), random.Random(n)
    x, y = list(range(n)), list(range(n))
    for _ in range(100):
        evolve._shuffle(ours, x)
        twin.shuffle(y)
        assert x == y
    assert ours.getstate() == twin.getstate()


@pytest.mark.parametrize("temp_size", [10, 15, 20, 21, 22, 25, 30, 500, 1000])
@pytest.mark.parametrize("direction", ["minimize", "maximize"])
@pytest.mark.parametrize("tournament_size", [None, 6, 20])
def test_select_matches_stdlib_reference(temp_size, direction, tournament_size):
    """The same members, by identity, as the rng.randrange version picks;
    ties, signed zeros and non-finite fitnesses keep their draw-order
    tie-break.

    The pop size is temp_size // 5. Temps of 10 to 30 are the pop sizes 2
    to 6, where repeats are frequent; at 10 a tournament of 2 is a fifth of
    temp. A temp of 1000 is a pop size of 200, the smallest with two elites,
    whose order is that of the reference's stable sort. A tournament size
    of 6 or 20 is what a temp of 600 or 2000 members gives, so those cases
    use such a temp.
    """
    cfg = EngineConfig(pop_size=temp_size // 5)
    if tournament_size is not None:
        temp_size = 100 * tournament_size
    size = cfg.tournament_size(temp_size)
    assert tournament_size in (None, size)
    rng = random.Random(temp_size)
    values = [float(v) for v in range(temp_size // 8)]
    values += [-0.0, float("nan"), float("inf"), float("-inf")]
    temp = [stub(rng.choice(values), direction) for _ in range(temp_size)]
    for seed in range(10):
        ours, twin = random.Random(seed), random.Random(seed)
        got = select(temp, cfg, ours)
        want = oracles.ref_select(temp, cfg.pop_size, cfg.elite_count, size, direction, twin)
        assert len(got) == len(want)
        assert all(a is b for a, b in zip(got, want))
        assert ours.getstate() == twin.getstate()


@pytest.mark.parametrize("n_homeotic, operators", [
    pytest.param(1, (), id="layout0"),  # 49 slots
    pytest.param(N_HOMEOTIC, (), id="layout1"),  # 58 slots
    pytest.param(30, (), id="layout2"),  # 310 slots
    # the longest head alphabets, where the old symbol is first, last or between
    pytest.param(3, ("S", "C", "Q", "E"), id="unary"),
] + [pytest.param(N_HOMEOTIC, operators, id="".join(operators) or "base")
     for operators in sorted({builtin(name).extra_operators for name in problem_names()})])
def test_mutate_matches_stdlib_reference(n_homeotic, operators):
    """The p_m coin that build_temp_population draws, then mutate, consume
    and return what the reference's coin and mutation do: sites by
    oracles.ref_distinct, each new symbol by rng.randrange(n) over the n
    others. Every n = len(alphabet) - 1 a slot has is drawn, and so each bit
    count of mutate's inlined symbol draw."""
    alphabets = position_alphabets(n_homeotic, operators)
    genomes = random.Random(2)
    ours, twin = random.Random(2), random.Random(2)
    drawn = set()
    for _ in range(300):
        c = random_chromosome(alphabets, genomes)
        m = c if ours.random() >= 0.5 else mutate(c, alphabets, ours)
        assert m == oracles.ref_mutate(c, 0.5, MUTATIONS_PER_INDIVIDUAL, alphabets, twin)
        drawn |= {len(alphabets[pos]) - 1 for pos, (a, b) in enumerate(zip(c, m)) if a != b}
    assert ours.getstate() == twin.getstate()
    assert drawn == {len(alphabet) - 1 for alphabet in alphabets}


# --- engine pieces ---

def make_engine(name="f1", **cfg_kwargs):
    cfg = EngineConfig(**cfg_kwargs)
    return Engine(builtin(name), cfg, seed=123)


def seeded_population(engine, n):
    rng = random.Random(99)
    engine.constants = engine.constants or _fresh_constants(engine, rng)
    return [engine.evaluate(random_chromosome(engine.alphabets, rng))
            for _ in range(n)]


def _fresh_constants(engine, rng):
    from fuzzygep.genome import random_constant_set
    return random_constant_set(engine.problem.lower, engine.problem.upper, rng)


def test_engine_layout_matches_problem():
    eng = make_engine("f9")
    assert len(eng.ordinary_slices) == 2
    assert len(eng.homeotic_slices) == 30
    assert len(eng.alphabets) == 2 * (6 + 7 + 7) + 30 * (4 + 5)
    assert len(eng.alphabets[6 + 7]) == 10  # the first Dc slot offers ten constant letters


def test_temp_population_is_parents_plus_four_batches():
    eng = make_engine(max_gen=10)
    parents = seeded_population(eng, 10)
    from fuzzygep.evolve import Rates
    temp = eng.build_temp_population(parents, Rates(0.5, 0.3, 0.0))
    assert len(temp) == 50
    assert temp[:10] == parents
    for ind in temp:
        assert oracles.validate(ind.chromosome, eng.problem.dim, eng.problem.extra_operators) == []


def test_temp_population_zero_rates_gives_clones(monkeypatch):
    """The pipelines draw the coins, so at zero rates neither operator is
    called and every offspring is a parent's clone."""
    calls = Counter()

    def counted(name):
        def count(*args):
            calls[name] += 1
        return count

    monkeypatch.setattr(evolve, "crossover", counted("crossover"))
    monkeypatch.setattr(evolve, "mutate", counted("mutate"))
    eng = make_engine(max_gen=10)
    parents = seeded_population(eng, 11)  # odd: each crossing leaves one unpaired
    temp = eng.build_temp_population(parents, Rates(0.0, 0.0, 0.0))
    assert calls == Counter()
    counts = Counter(ind.chromosome for ind in temp)
    assert counts == Counter({ind.chromosome: 5 for ind in parents})
    by_chromosome = {ind.chromosome: ind.fitness for ind in parents}
    for ind in temp:
        assert ind.fitness == by_chromosome[ind.chromosome]


def test_constant_mutation_first_half_noop():
    eng = make_engine(max_gen=10)
    pop = seeded_population(eng, 5)
    before = eng.constants
    out, reset = eng.maybe_mutate_constants(5, 1.0, pop)
    assert out is pop and not reset and eng.constants is before


def test_constant_mutation_zero_rate_noop():
    eng = make_engine(max_gen=10)
    pop = seeded_population(eng, 5)
    out, reset = eng.maybe_mutate_constants(8, 0.0, pop)
    assert out is pop and not reset


def test_constant_mutation_reset_reevaluates(monkeypatch):
    eng = make_engine(max_gen=10)
    rng = random.Random(31)
    eng.constants = _fresh_constants(eng, rng)
    # one chromosome whose genes express '?', one with digits only; each
    # ordinary gene is 6 head + 7 tail + 7 dc slots, each homeotic 4 + 5
    homeotic = "0000" + "0" * 5 + "1000" + "1" * 5
    with_rnc = "?" + "a" * 12 + "A" * 7 + "?" + "a" * 12 + "B" * 7 + homeotic
    digits_only = "c" + "a" * 12 + "A" * 7 + "d" + "a" * 12 + "A" * 7 + homeotic
    pop = [eng.evaluate(with_rnc), eng.evaluate(digits_only)]
    old_constants = eng.constants
    out, reset = eng.maybe_mutate_constants(8, 1.0, pop)
    assert reset
    assert eng.constants is not old_constants
    assert out[0].point == (eng.constants[0], eng.constants[1])
    assert out[1].fitness == pop[1].fitness
    assert out[1].point == (2.0, 3.0)
    assert out[0].fitness == eng.problem.evaluate(out[0].point)
    # a population that repeats a chromosome, once in a member of its own:
    # the next reset evaluates each distinct chromosome once, in first-seen
    # order, and the members that hold it share the one result
    repeated = [out[0], out[1], out[1], eng.evaluate(with_rnc), out[0]]
    evaluated = []
    real = Engine.evaluate

    def counted(self, chromosome):
        evaluated.append(chromosome)
        return real(self, chromosome)

    monkeypatch.setattr(Engine, "evaluate", counted)
    again, reset = eng.maybe_mutate_constants(8, 1.0, repeated)
    monkeypatch.undo()
    assert reset
    assert evaluated == [with_rnc, digits_only]
    assert again[0] is again[3] is again[4]
    assert again[1] is again[2] is not again[0]
    for ind in again:
        assert repr(ind) == repr(eng.evaluate(ind.chromosome))
    assert again[0].point == (eng.constants[0], eng.constants[1])


@pytest.mark.parametrize("direction", ["minimize", "maximize"])
def test_evaluate_ranks_as_the_reference_sort_key(direction):
    """Individual.rank, which select and Engine.run compare, orders the
    signed zeros, the infinities and NaN as the reference key does, and has
    the bits of the reference rule."""
    fitnesses = [float("-inf"), -0.0, 0.0, 2.5, float("inf"), float("nan")]
    # the chromosome whose two homeotic genes read its first ordinary gene,
    # the digit k, decodes to (k, k); the objective returns fitnesses[k]
    problem = dataclasses.replace(builtin("f1"), direction=direction,
                                  func=lambda x: fitnesses[int(x[0])])
    eng = Engine(problem, seed=5)
    eng.constants = (1.0,) * 10
    rest = "a" * 12 + "A" * 7 + "b" + "a" * 12 + "A" * 7 + "0" * 9 * 2
    # each fitness twice, in an order that puts equal ranks apart
    order = [5, 1, 3, 0, 2, 4, 2, 5, 0, 1, 4, 3]
    temp = [eng.evaluate("abcdef"[k] + rest) for k in order]
    assert [ind.point for ind in temp] == [(float(k), float(k)) for k in order]
    for ind, k in zip(temp, order):
        assert repr(ind.fitness) == repr(fitnesses[k])
        assert repr(ind.rank) == repr(oracles.ref_rank(ind.fitness, direction))
    key = oracles._ref_sort_key(direction)
    got = sorted(temp, key=lambda ind: ind.rank)
    assert all(a is b for a, b in zip(got, sorted(temp, key=key)))


def test_evaluate_penalizes_objective_blowups():
    eng = make_engine("f5", max_gen=10)
    rng = random.Random(77)
    eng.constants = _fresh_constants(eng, rng)
    # homeotic output -exp(700): far outside the box, exp(-0.001*x) overflows
    c = "Ej" + "a" * 11 + "A" * 7 + "EEj" + "a" * 10 + "A" * 7 + "-010" + "0" * 5
    # the second evaluation takes the NaN from the fitness memo
    for _ in range(2):
        ind = eng.evaluate(c)
        assert math.isfinite(ind.point[0]) and ind.point[0] < -1e300
        assert math.isnan(ind.fitness)
    assert len(eng._fitnesses) == 1


def test_sphere_zero_chromosome_has_zero_fitness():
    eng = make_engine("f1", max_gen=10)
    rng = random.Random(13)
    eng.constants = _fresh_constants(eng, rng)
    zero = ("a" * 13 + "A" * 7) * 2 + "0" * 9 + "1" * 9
    ind = eng.evaluate(zero)
    assert ind.point == (0.0, 0.0)
    assert ind.fitness == 0.0


@pytest.mark.parametrize("name, dim", [
    ("f9", 30),
    ("f12", 10),  # S, C, Q and E
    ("f8", 2),  # few homeotic genes, so more of the work is in ordinary genes
])
def test_evaluate_matches_reference_decode_bit_for_bit(name, dim, monkeypatch):
    """Memoized coordinates and fitnesses carry the bits the uncached decode
    and objective compute, also once the constants are redrawn."""
    eng = Engine(builtin(name, dim), seed=3)
    rng = random.Random(17)
    parents = [random_chromosome(eng.alphabets, rng) for _ in range(40)]
    # offspring keep most genes of a parent, so most coordinates come from the memo
    chromosomes = parents + [mutate(c, eng.alphabets, rng) for c in parents]
    chromosomes += [crossover(a, b, rng)[0] for a, b in zip(parents, parents[1:])]
    real = evolve.eval_homeotic
    calls = Counter()

    def counted(*args):
        calls["eval_homeotic"] += 1
        return real(*args)

    monkeypatch.setattr(evolve, "eval_homeotic", counted)
    pack = struct.Struct(f"<{dim}d").pack
    for _ in range(2):
        eng.constants = _fresh_constants(eng, rng)
        for c in chromosomes:
            want = oracles.eval_chromosome(c, eng.problem.dim, eng.constants)
            ind = eng.evaluate(c)
            assert pack(*ind.point) == pack(*want)
            assert struct.pack("<d", ind.fitness) == struct.pack("<d", eng.problem.evaluate(want))
    assert calls["eval_homeotic"] < 2 * len(chromosomes) * dim


def test_coordinate_memo_keeps_signed_zeros_apart():
    """0.0 == -0.0, so a float-tuple memo key would hand the second
    chromosome the first one's +0.0 coordinates, and its fitness too: the
    objective here returns the first coordinate, sign of zero included."""
    eng = Engine(dataclasses.replace(builtin("f1"), func=lambda x: x[0]), seed=123)
    eng.constants = (-3.0, 2.0) + (1.0,) * 8
    # first ordinary gene a*?: 0 * constant A = -0.0, 0 * constant B = +0.0;
    # the second is 1; both homeotic genes read the first ordinary gene
    second_and_homeotic = "b" + "a" * 12 + "A" * 7 + "0" * 9 * 2
    positive = "*a?" + "a" * 10 + "B" * 7 + second_and_homeotic
    negative = "*a?" + "a" * 10 + "A" * 7 + second_and_homeotic
    for chromosome, sign in ((positive, 1.0), (negative, -1.0)):
        ind = eng.evaluate(chromosome)
        assert [math.copysign(1.0, x) for x in ind.point] == [sign, sign]
        assert math.copysign(1.0, ind.fitness) == sign
    pack = struct.Struct("<2d").pack
    assert list(eng._fitnesses) == [pack(0.0, 0.0), pack(-0.0, -0.0)]


def test_memos_follow_the_constant_set(monkeypatch):
    """Assigning eng.constants directly, as the tests above do, decodes the
    ordinary genes afresh. Coordinates are keyed on the ordinary values, so
    regions with equal values share them, under any constant set. A fitness
    depends on the point alone, so the fitness memo keeps the points of
    every constant set."""
    eng = make_engine("f1", max_gen=10)
    first = (-3.0,) + (1.0,) * 9
    second = (4.5,) + (1.0,) * 9
    # first ordinary gene +a?: 0 + constant A; the second is 1, and its slot
    # after the head is not expressed; both homeotic genes read the first
    tail = "a" * 11 + "A" * 7 + "0" * 9 * 2
    c1 = "+a?" + "a" * 10 + "A" * 7 + "ba" + tail
    c2 = "+a?" + "a" * 10 + "A" * 7 + "bc" + tail
    end = 2 * (6 + 7 + 7)
    real = evolve.eval_homeotic
    calls = []

    def counted(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(evolve, "eval_homeotic", counted)
    pack = struct.Struct("<2d").pack
    fitnesses = {}
    # the two homeotic genes are equal, so a new pair of ordinary values
    # costs one decode; -3.0's coordinate is still stored when first returns
    for constants, x, decoded in ((first, -3.0, 1), (second, 4.5, 1), (first, -3.0, 0)):
        eng.constants = constants
        calls.clear()
        for c in (c1, c2):
            point = eng.evaluate(c).point
            assert point == (x, x)
            assert pack(*point) == pack(*oracles.eval_chromosome(c, eng.problem.dim, constants))
        # c2 differs from c1 only in an unexpressed slot: it decodes nothing
        assert len(calls) == decoded
        # the gene memo holds only this constant set's entries
        gene = end // 2
        assert eng._genes == {c1[:gene]: x, c1[gene:end]: 1.0, c2[gene:end]: 1.0}
        # the fitness memo keeps the points of every set seen so far, bit for bit
        fitnesses[pack(x, x)] = struct.pack("<d", eng.problem.evaluate((x, x)))
        assert {k: struct.pack("<d", f) for k, f in eng._fitnesses.items()} == fitnesses
    assert len(fitnesses) == 2


def test_evaluate_decodes_each_ordinary_gene_whole(monkeypatch):
    """eval_ordinary gets the string that keys the gene memo, the whole
    20-slot ordinary gene (head 6, tail 7, Dc 7), and the engine's constants."""
    eng = make_engine("f9")
    rng = random.Random(8)
    eng.constants = _fresh_constants(eng, rng)
    real = evolve.eval_ordinary
    calls = []

    def recorded(gene, constants):
        assert constants is eng.constants
        calls.append(gene)
        return real(gene, constants)

    monkeypatch.setattr(evolve, "eval_ordinary", recorded)
    chromosomes = [random_chromosome(eng.alphabets, rng) for _ in range(20)]
    for c in chromosomes:
        eng.evaluate(c)
    assert calls == [gene for c in chromosomes for gene in (c[0:20], c[20:40])]
    # the very objects the memo holds as keys, in the order it stored them
    assert len(eng._genes) == len(calls)
    assert all(key is gene for key, gene in zip(eng._genes, calls))
    assert all(eng._genes[gene] == real(gene, eng.constants)
               or math.isnan(eng._genes[gene]) for gene in calls)


def test_memos_stay_bounded():
    """Each memo holds at most what its limit of evaluations can add: two
    genes, dim coordinates and one fitness each; a memo is checked before
    an evaluation, which may add one evaluation's worth past the limit."""
    eng = Engine(builtin("f9", 10), EngineConfig(pop_size=2), seed=1)
    limit = evolve.MEMO_TEMP_POPULATIONS * 5 * 2
    dim = eng.problem.dim
    rng = random.Random(5)
    eng.constants = _fresh_constants(eng, rng)
    pack = struct.Struct("<10d").pack

    def check(chromosome):
        want = oracles.eval_chromosome(chromosome, dim, eng.constants)
        assert pack(*eng.evaluate(chromosome).point) == pack(*want)
        assert len(eng._genes) <= 2 * limit
        assert sum(len(c) for c, _ in eng._coordinates.values()) <= (limit + 1) * dim
        assert len(eng._fitnesses) <= limit

    for _ in range(3 * limit):
        check(random_chromosome(eng.alphabets, rng))
    # one ordinary region for all: every coordinate lands in one entry
    region = random_chromosome(eng.alphabets, rng)[:ORDINARY_END]
    for _ in range(3 * limit):
        check(region + random_chromosome(eng.alphabets, rng)[ORDINARY_END:])


# --- full runs ---

def test_run_is_deterministic():
    pr = builtin("f3")
    cfg = EngineConfig(pop_size=20, max_gen=5, termination_tol=None)
    a = run(pr, cfg, seed=9)
    b = run(pr, cfg, seed=9)
    assert a.trace == b.trace
    assert a.best.fitness == b.best.fitness
    assert a.best.point == b.best.point


def test_run_seeds_differ():
    pr = builtin("f3")
    cfg = EngineConfig(pop_size=20, max_gen=5, termination_tol=None)
    a = run(pr, cfg, seed=9)
    c = run(pr, cfg, seed=10)
    assert a.trace != c.trace


def test_run_trace_structure():
    pr = builtin("f4")
    cfg = EngineConfig(pop_size=20, max_gen=8, termination_tol=None)
    res = run(pr, cfg, seed=2)
    assert res.generations == 8
    assert len(res.trace) == 9
    assert [row.generation for row in res.trace] == list(range(9))
    fits = [row.best_fitness for row in res.trace]
    for a, b in zip(fits, fits[1:]):
        assert b <= a
    assert res.trace[0].constant_reset is False
    assert res.trace[0].r_c == 0.0


def test_run_stops_at_known_optimum():
    pr = builtin("f1")
    cfg = EngineConfig(pop_size=100, max_gen=1000)
    res = run(pr, cfg, seed=1)
    assert res.best.fitness == 0.0
    assert res.generations < 1000
    assert len(res.trace) == res.generations + 1


def test_run_termination_disabled():
    pr = builtin("f1")
    cfg = EngineConfig(pop_size=10, max_gen=6, termination_tol=None)
    res = run(pr, cfg, seed=1)
    assert res.generations == 6


def test_first_best_gen_matches_trace():
    pr = builtin("f8")
    cfg = EngineConfig(pop_size=30, max_gen=40, termination_tol=None)
    res = run(pr, cfg, seed=4)
    final = res.best.fitness
    first = next(row.generation for row in res.trace if row.best_fitness == final)
    assert res.first_best_gen == first


def _ref_run_cases():
    """Every problem in both modes, at pops 2 and 4, where a tournament
    spans a fifth of a temp of 10 or 20 and repeated draws are frequent, and
    at one pop from 20 to 30; early stopping is on in half of the runs of
    each pop and each mode. The scalable problems run at D5, which keeps the
    unmemoized reference to a few seconds over the grid."""
    for i, (name, mode) in enumerate((name, mode) for name in problem_names()
                                     for mode in ("adaptive", "baseline")):
        for j, pop in enumerate((2, 4, 20 + i % 11)):
            stop = (i + j) % 2 == 0
            yield pytest.param(name, mode, pop, stop, 3 * i + j,
                               id=f"{name}-{mode}-pop{pop}-{'stop' if stop else 'full'}")


@pytest.mark.parametrize("name, mode, pop, stop, seed", _ref_run_cases())
def test_run_matches_the_reference_engine(name, mode, pop, stop, seed):
    """200 generations, so that the second half draws constant resets; the
    trace rows, the best and its constants agree to the last bit of their
    reprs."""
    problem = builtin(name)
    if problem.dim > 5:
        problem = builtin(name, 5)
    cfg = EngineConfig(pop_size=pop, max_gen=200, mode=mode,
                       termination_tol=1e-12 if stop else None)
    got = run(problem, cfg, seed)
    want = oracles.ref_run(problem, cfg, seed)
    assert repr(got.trace) == repr(want.trace)
    assert repr(got.best) == repr(want.best)
    assert repr(got.best_constants) == repr(want.best_constants)
    assert got.first_best_gen == want.first_best_gen
    assert got.generations == want.generations


def test_best_decodes_again_under_its_constants():
    """The reported best's chromosome decodes to its point, bit for bit,
    under best_constants, and the objective gives its fitness, even in runs
    whose constants were reset after the best appeared."""
    stale = 0
    for name, dim in (("f6", None), ("f7", None), ("f9", 10), ("f12", 10)):
        problem = builtin(name, dim)
        pack = struct.Struct(f"<{problem.dim}d").pack
        for seed in range(3):
            engine = Engine(problem, EngineConfig(pop_size=20, max_gen=100), seed)
            res = engine.run()
            best = res.best
            point = oracles.eval_chromosome(best.chromosome, problem.dim, res.best_constants)
            assert pack(*point) == pack(*best.point), (name, seed)
            assert struct.pack("<d", problem.evaluate(point)) == struct.pack("<d", best.fitness)
            final = oracles.eval_chromosome(best.chromosome, problem.dim, engine.constants)
            stale += pack(*final) != pack(*best.point)
    # runs where the final constants would decode the best elsewhere
    assert stale > 0
