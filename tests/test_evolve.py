import math
import random
import struct
from collections import Counter

import oracles
import pytest

from fuzzygep import cli, evolve
from fuzzygep.bench import builtin
from fuzzygep.evolve import (
    BASELINE_RATES,
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
    GeneLayout,
    SymbolSet,
    position_alphabets,
    random_chromosome,
)

SYM = SymbolSet()
LAYOUT = GeneLayout(n_homeotic=2)
ALPHABETS = position_alphabets(LAYOUT, SYM)


def stub(fitness):
    return Individual(None, (), fitness)


class ScriptedRng:
    """Returns pre-baked values; fails loudly when the script runs dry."""

    def __init__(self, randoms=(), randranges=(), samples=()):
        self.randoms = list(randoms)
        self.randranges = list(randranges)
        self.samples = list(samples)

    def random(self):
        return self.randoms.pop(0)

    def randrange(self, n):
        return self.randranges.pop(0)

    def sample(self, population, k):
        return self.samples.pop(0)


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
    results = [RunResult(i, stub(v), 0, 1, []) for i, v in enumerate(values)]
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

def test_crossover_never_fires_at_zero_rate():
    rng = random.Random(0)
    a = random_chromosome(ALPHABETS, rng)
    b = random_chromosome(ALPHABETS, rng)
    assert crossover(a, b, 0.0, rng) == (a, b)


def test_crossover_cut_zero_swaps_parents():
    rng = random.Random(1)
    a = random_chromosome(ALPHABETS, rng)
    b = random_chromosome(ALPHABETS, rng)
    scripted = ScriptedRng(randoms=[0.0], randranges=[0])
    assert crossover(a, b, 1.0, scripted) == (b, a)


def test_crossover_exchanges_suffixes():
    rng = random.Random(2)
    a = random_chromosome(ALPHABETS, rng)
    b = random_chromosome(ALPHABETS, rng)
    cut = 13
    scripted = ScriptedRng(randoms=[0.0], randranges=[cut])
    child_a, child_b = crossover(a, b, 1.0, scripted)
    assert child_a == a[:cut] + b[cut:]
    assert child_b == b[:cut] + a[cut:]


def test_crossover_offspring_always_valid():
    rng = random.Random(3)
    for _ in range(1000):
        a = random_chromosome(ALPHABETS, rng)
        b = random_chromosome(ALPHABETS, rng)
        for child in crossover(a, b, 1.0, rng):
            assert oracles.validate(child, LAYOUT, SYM) == []


# --- mutate ---

def test_mutate_never_fires_at_zero_rate():
    rng = random.Random(4)
    c = random_chromosome(ALPHABETS, rng)
    assert mutate(c, 0.0, 2, LAYOUT, ALPHABETS, rng) == c


def test_mutate_changes_k_distinct_positions():
    rng = random.Random(5)
    for _ in range(200):
        c = random_chromosome(ALPHABETS, rng)
        m = mutate(c, 1.0, 2, LAYOUT, ALPHABETS, rng)
        diff = sum(1 for x, y in zip(c, m) if x != y)
        assert diff == 2  # every slot alphabet has >= 2 symbols, so both stick


def test_mutate_respects_position_alphabets():
    rng = random.Random(6)
    for _ in range(1000):
        c = random_chromosome(ALPHABETS, rng)
        m = mutate(c, 1.0, 2, LAYOUT, ALPHABETS, rng)
        assert oracles.validate(m, LAYOUT, SYM) == []


# --- selection ---

def test_select_keeps_elites_and_size():
    rng = random.Random(7)
    cfg = EngineConfig(pop_size=10)
    temp = [stub(float(i)) for i in range(50)]
    out = select(temp, cfg, "minimize", rng)
    assert len(out) == 10
    assert out[0].fitness == 0.0
    assert min(ind.fitness for ind in out) == 0.0


def test_select_direction_aware():
    rng = random.Random(8)
    cfg = EngineConfig(pop_size=5)
    temp = [stub(float(i)) for i in range(40)]
    out = select(temp, cfg, "maximize", rng)
    assert out[0].fitness == 39.0


def test_select_degenerate_tournament_returns_global_best():
    """At pop size 2 a temp of 2 gives one elite and one tournament of 2."""
    rng = random.Random(9)
    cfg = EngineConfig(pop_size=2)
    temp = [stub(1.0), stub(0.0)]
    assert cfg.tournament_size(len(temp)) == len(temp)
    out = select(temp, cfg, "minimize", rng)
    assert [ind.fitness for ind in out] == [0.0, 0.0]


def test_select_finite_beats_non_finite():
    cfg = EngineConfig(pop_size=2)
    temp = [stub(float("nan")), stub(5.0)]
    scripted = ScriptedRng(samples=[[0, 1]])
    out = select(temp, cfg, "minimize", scripted)
    assert out[0].fitness == 5.0   # elite
    assert out[1].fitness == 5.0   # tournament: finite wins over nan


def test_select_requires_enough_candidates():
    with pytest.raises(ValueError):
        select([stub(1.0)], EngineConfig(pop_size=10), "minimize", random.Random(0))


# --- draws inlined from random.sample ---

@pytest.mark.parametrize("n", [2, 21, 22, 37, 38, 500])
@pytest.mark.parametrize("k", [1, 2, 5, 6])
def test_sample_indices_matches_random_sample(n, k):
    """Draw for draw on both of random.sample's paths: the pool for n up to
    21 (85 once k > 5), the set above; k > n raises as sample does."""
    ours, twin = random.Random(100 * n + k), random.Random(100 * n + k)
    if k > n:
        with pytest.raises(ValueError):
            evolve._sample_indices(ours, n, k)
        with pytest.raises(ValueError):
            twin.sample(range(n), k)
    else:
        for _ in range(300):
            assert evolve._sample_indices(ours, n, k) == twin.sample(range(n), k)
    assert ours.getstate() == twin.getstate()


@pytest.mark.parametrize("temp_size", [20, 500])
@pytest.mark.parametrize("direction", ["minimize", "maximize"])
@pytest.mark.parametrize("tournament_size", [None, 6, 20])
def test_select_matches_stdlib_reference(temp_size, direction, tournament_size):
    """The same members, by identity, as the rng.sample version picks; ties,
    signed zeros and non-finite fitnesses keep their draw-order tie-break.

    The pop size is temp_size // 5. A tournament size of 6 or 20 is what a
    temp of 600 or 2000 members gives, so those cases use such a temp.
    """
    cfg = EngineConfig(pop_size=temp_size // 5)
    if tournament_size is not None:
        temp_size = 100 * tournament_size
    size = cfg.tournament_size(temp_size)
    assert tournament_size in (None, size)
    rng = random.Random(temp_size)
    values = [float(v) for v in range(temp_size // 8)]
    values += [-0.0, float("nan"), float("inf"), float("-inf")]
    temp = [stub(rng.choice(values)) for _ in range(temp_size)]
    for seed in range(10):
        ours, twin = random.Random(seed), random.Random(seed)
        got = select(temp, cfg, direction, ours)
        want = oracles.ref_select(temp, cfg.pop_size, cfg.elite_count, size, direction, twin)
        assert len(got) == len(want)
        assert all(a is b for a, b in zip(got, want))
        assert ours.getstate() == twin.getstate()


@pytest.mark.parametrize("layout", [
    GeneLayout(n_homeotic=1),  # 49 slots
    LAYOUT,  # 58 slots
    GeneLayout(n_homeotic=30),  # 310 slots
])
@pytest.mark.parametrize("k", [1, 2, 6, 10])
def test_mutate_matches_stdlib_reference(layout, k):
    alphabets = position_alphabets(layout, SYM)
    genomes = random.Random(k)
    ours, twin = random.Random(k), random.Random(k)
    for _ in range(300):
        c = random_chromosome(alphabets, genomes)
        assert (mutate(c, 0.5, k, layout, alphabets, ours)
                == oracles.ref_mutate(c, 0.5, k, alphabets, twin))
    assert ours.getstate() == twin.getstate()


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
    assert eng.layout.n_homeotic == 30
    assert eng.layout.n_ordinary == 2
    assert eng.layout.ordinary_head_len == 6
    assert eng.layout.homeotic_head_len == 4
    assert len(eng.symbols.dc_alphabet) == 10


def test_temp_population_is_parents_plus_four_batches():
    eng = make_engine(max_gen=10)
    parents = seeded_population(eng, 10)
    from fuzzygep.evolve import Rates
    temp = eng.build_temp_population(parents, Rates(0.5, 0.3, 0.0))
    assert len(temp) == 50
    assert temp[:10] == parents
    for ind in temp:
        assert oracles.validate(ind.chromosome, eng.layout, eng.symbols) == []


def test_temp_population_zero_rates_gives_clones():
    eng = make_engine(max_gen=10)
    parents = seeded_population(eng, 10)
    from fuzzygep.evolve import Rates
    temp = eng.build_temp_population(parents, Rates(0.0, 0.0, 0.0))
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


def test_constant_mutation_reset_reevaluates():
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


def test_evaluate_penalizes_objective_blowups():
    eng = make_engine("f5", max_gen=10)
    rng = random.Random(77)
    eng.constants = _fresh_constants(eng, rng)
    # homeotic output -exp(700): far outside the box, exp(-0.001*x) overflows
    c = "Ej" + "a" * 11 + "A" * 7 + "EEj" + "a" * 10 + "A" * 7 + "-010" + "0" * 5
    ind = eng.evaluate(c)
    assert math.isfinite(ind.point[0]) and ind.point[0] < -1e300
    assert math.isnan(ind.fitness)


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
])
def test_evaluate_matches_reference_decode_bit_for_bit(name, dim, monkeypatch):
    """Memoized coordinates carry the bits the uncached decode computes,
    also once the constants are redrawn."""
    eng = Engine(builtin(name, dim), seed=3)
    rng = random.Random(17)
    parents = [random_chromosome(eng.alphabets, rng) for _ in range(40)]
    # offspring keep most genes of a parent, so most coordinates come from the memo
    chromosomes = parents + [mutate(c, 1.0, 2, eng.layout, eng.alphabets, rng) for c in parents]
    chromosomes += [crossover(a, b, 1.0, rng)[0] for a, b in zip(parents, parents[1:])]
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
            want = oracles.eval_chromosome(c, eng.layout, eng.symbols, eng.constants)
            assert pack(*eng.evaluate(c).point) == pack(*want)
    assert calls["eval_homeotic"] < 2 * len(chromosomes) * dim


def test_coordinate_memo_keeps_signed_zeros_apart():
    """0.0 == -0.0, so a float-tuple memo key would hand the second
    chromosome the first one's +0.0 coordinates."""
    eng = make_engine("f1", max_gen=10)
    eng.constants = (-3.0, 2.0) + (1.0,) * 8
    # first ordinary gene a*?: 0 * constant A = -0.0, 0 * constant B = +0.0;
    # the second is 1; both homeotic genes read the first ordinary gene
    second_and_homeotic = "b" + "a" * 12 + "A" * 7 + "0" * 9 * 2
    positive = "*a?" + "a" * 10 + "B" * 7 + second_and_homeotic
    negative = "*a?" + "a" * 10 + "A" * 7 + second_and_homeotic
    assert [math.copysign(1.0, x) for x in eng.evaluate(positive).point] == [1.0, 1.0]
    assert [math.copysign(1.0, x) for x in eng.evaluate(negative).point] == [-1.0, -1.0]


def test_region_memo_follows_the_constant_set():
    """Assigning eng.constants directly, as the tests above do, decodes the
    ordinary genes afresh; regions with the same ordinary values share the
    _coordinates pair."""
    eng = make_engine("f1", max_gen=10)
    first = (-3.0,) + (1.0,) * 9
    second = (4.5,) + (1.0,) * 9
    # first ordinary gene +a?: 0 + constant A; the second is 1, and its slot
    # after the head is not expressed; both homeotic genes read the first
    tail = "a" * 11 + "A" * 7 + "0" * 9 * 2
    c1 = "+a?" + "a" * 10 + "A" * 7 + "ba" + tail
    c2 = "+a?" + "a" * 10 + "A" * 7 + "bc" + tail
    end = eng.layout.n_ordinary * eng.layout.ordinary_gene_len
    pack = struct.Struct("<2d").pack
    for constants, x in ((first, -3.0), (second, 4.5), (first, -3.0)):
        eng.constants = constants
        for c in (c1, c2):
            point = eng.evaluate(c).point
            assert point == (x, x)
            assert pack(*point) == pack(*oracles.eval_chromosome(c, eng.layout, eng.symbols, constants))
        shared = eng._coordinates[pack(x, 1.0)]
        assert eng._regions[c1[:end]] is shared
        assert eng._regions[c2[:end]] is shared


def test_region_memo_stays_bounded():
    eng = Engine(builtin("f9", 10), EngineConfig(pop_size=2), seed=1)
    limit = evolve.REGION_MEMO_TEMP_POPULATIONS * 5 * 2
    rng = random.Random(5)
    eng.constants = _fresh_constants(eng, rng)
    pack = struct.Struct("<10d").pack
    for _ in range(3 * limit):
        c = random_chromosome(eng.alphabets, rng)
        want = oracles.eval_chromosome(c, eng.layout, eng.symbols, eng.constants)
        assert pack(*eng.evaluate(c).point) == pack(*want)
        assert len(eng._regions) <= limit


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
