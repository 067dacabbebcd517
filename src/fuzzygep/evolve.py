"""Generational engine with diversity-driven fuzzy rate control.

Each generation reads population diversity, adapts the crossover, mutation
and constant-mutation rates, builds a temporary population from four operator
pipelines (crossover only, mutation only, and both orders of the two), then
fills the next generation by elitism plus tournaments over parents and all
offspring.
"""

from __future__ import annotations

import math
import random
import struct
from dataclasses import dataclass

from .bench import Problem, reached_optimum
from .decode import eval_homeotic, eval_ordinary
from .fuzzy import (
    CONSTANT_MUTATION_RULES,
    CROSSOVER_RULES,
    MUTATION_RULES,
    Universe,
    infer_1d,
    infer_2d,
)
from .genome import (
    GENE_REFERENCES,
    GeneLayout,
    SymbolSet,
    flatten,
    gene_slices,
    position_alphabets,
    random_chromosome,
    random_constant_set,
    rebuild,
)

# rates used while diversity sits below the fuzzy band
FIXED_CROSSOVER_RATE = 0.4
FIXED_MUTATION_RATE = 0.1
FUZZY_DIVERSITY_FLOOR = 0.6

# fixed-rate reference mode: crossover, mutation, constant mutation
BASELINE_RATES = (0.3, 0.2, 0.01)

# distinct slots each mutant rewrites
MUTATIONS_PER_INDIVIDUAL = 2

DIVERSITY_UNIVERSE = Universe(FUZZY_DIVERSITY_FLOOR, 1.0)
CROSSOVER_UNIVERSE = Universe(0.1, 0.3)
MUTATION_UNIVERSE = Universe(0.05, 0.25)
CONSTANT_UNIVERSE = Universe(0.0, 0.5)

# Engine.evaluate's region memo starts over after this many 5N temp populations
REGION_MEMO_TEMP_POPULATIONS = 10


@dataclass(frozen=True)
class Individual:
    chromosome: str
    point: tuple[float, ...]
    fitness: float


@dataclass(frozen=True)
class Rates:
    p_c: float
    p_m: float
    r_c: float


@dataclass(frozen=True)
class DiversityReading:
    d: float
    f_ave: float


@dataclass
class EngineConfig:
    pop_size: int = 100
    max_gen: int = 1000
    mode: str = "adaptive"
    termination_tol: float | None = 1e-12  # None keeps every run at max_gen

    def __post_init__(self):
        if self.pop_size < 2:
            raise ValueError("pop_size must be at least 2")
        if self.max_gen < 1:
            raise ValueError("max_gen must be positive")
        if self.mode not in ("adaptive", "baseline"):
            raise ValueError(f"mode must be adaptive or baseline, not {self.mode!r}")
        if self.termination_tol is not None and not self.termination_tol >= 0.0:
            raise ValueError("termination_tol must be non-negative")

    @property
    def elite_count(self) -> int:
        return max(1, round(0.01 * self.pop_size))

    def tournament_size(self, temp_size: int) -> int:
        return max(2, round(0.01 * temp_size))


@dataclass(frozen=True)
class TraceRow:
    generation: int
    best_fitness: float
    avg_fitness: float
    diversity_d: float
    p_c: float
    p_m: float
    r_c: float
    constant_reset: bool


@dataclass
class RunResult:
    seed: int
    best: Individual
    first_best_gen: int
    generations: int
    trace: list[TraceRow]


def plain_sum(values) -> float:
    """Left-to-right float sum. From CPython 3.12 on, `sum()` compensates
    float rounding, which would make the output bytes depend on the version."""
    total = 0.0
    for v in values:
        total += v
    return total


def diversity(population, direction: str) -> DiversityReading:
    """Best-to-average fitness ratio oriented so 1.0 means converged."""
    fits = [ind.fitness for ind in population if math.isfinite(ind.fitness)]
    if not fits:
        return DiversityReading(0.5, float("nan"))
    f_ave = plain_sum(fits) / len(fits)
    if direction == "minimize":
        num, den = min(fits), f_ave
    else:
        num, den = f_ave, max(fits)
    if num == den:
        d = 1.0
    elif den == 0.0:
        d = 0.0
    else:
        d = min(1.0, max(0.0, num / den))
    return DiversityReading(d, f_ave)


def adapt_rates(d: float, gen: int, cfg: EngineConfig) -> Rates:
    if cfg.mode == "baseline":
        return Rates(*BASELINE_RATES)
    if d < FUZZY_DIVERSITY_FLOOR:
        p_c = FIXED_CROSSOVER_RATE
        p_m = FIXED_MUTATION_RATE
    else:
        p_c = infer_1d(CROSSOVER_RULES, DIVERSITY_UNIVERSE, CROSSOVER_UNIVERSE, d)
        p_m = infer_1d(MUTATION_RULES, DIVERSITY_UNIVERSE, MUTATION_UNIVERSE, d)
    if gen <= cfg.max_gen / 2.0:
        r_c = 0.0
    else:
        # the iteration universe is the second half of the run; fuzzify clamps
        # a diversity below the fuzzy band up to its floor
        iteration = Universe(cfg.max_gen / 2.0, float(cfg.max_gen))
        r_c = infer_2d(CONSTANT_MUTATION_RULES, iteration, DIVERSITY_UNIVERSE,
                       CONSTANT_UNIVERSE, float(gen), d)
    return Rates(p_c, p_m, r_c)


def crossover(a: str, b: str, p_c: float, rng: random.Random) -> tuple[str, str]:
    """One-point crossover of two chromosome strings with probability p_c."""
    if rng.random() >= p_c:
        return a, b
    cut = rng.randrange(len(a))
    return a[:cut] + b[cut:], b[:cut] + a[cut:]


def _sample_indices(rng: random.Random, n: int, k: int) -> list[int]:
    """`rng.sample(range(n), k)`, draw for draw, for a `random.Random`.

    CPython 3.10 to 3.13 pick k of n with the same draws: by tracking a pool
    list when n is at most its set size, and otherwise by rejection against
    a set of picks, drawing `getrandbits(n.bit_length())` until the value is
    below n and new. The second path is inlined here, without the range or
    the per-draw calls; the first, and any invalid k, go to `rng.sample`
    unchanged, so the result matches draw for draw on all four versions.
    """
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    if n <= setsize or not 0 <= k <= n:
        return rng.sample(range(n), k)
    getrandbits = rng.getrandbits
    bits = n.bit_length()
    picked = {}  # keeps draw order; a repeat adds nothing, so another is drawn
    while len(picked) < k:
        j = getrandbits(bits)
        if j < n:
            picked[j] = None
    return list(picked)


def mutate(chromosome: str, p_m: float, k: int, layout: GeneLayout,
           alphabets, rng: random.Random) -> str:
    """With probability p_m, rewrite k distinct positions to new legal symbols."""
    if rng.random() >= p_m:
        return chromosome
    flat = flatten(chromosome)
    for pos in _sample_indices(rng, len(flat), min(k, len(flat))):
        others = [s for s in alphabets[pos] if s != flat[pos]]
        if others:
            flat[pos] = others[rng.randrange(len(others))]
    return rebuild(flat, layout)


def _sort_key(direction: str):
    """Ascending key, best first; NaN and infinities rank after every finite value."""
    sign = 1.0 if direction == "minimize" else -1.0

    def key(ind: Individual) -> float:
        f = ind.fitness
        return sign * f if math.isfinite(f) else math.inf

    return key


def select(temp, cfg: EngineConfig, direction: str, rng: random.Random):
    """Elites verbatim, remainder by tournaments over temp.

    Each tournament samples its contenders without internal repeats, so a
    tournament spanning all of temp returns the global best; across
    tournaments every member of temp stays available.
    """
    if len(temp) < cfg.pop_size:
        raise ValueError("temp population smaller than pop_size")
    elite = cfg.elite_count
    size = cfg.tournament_size(len(temp))
    keys = list(map(_sort_key(direction), temp))
    rank = keys.__getitem__
    # a stable sort of positions by key orders temp as sorted(temp, key=...) does
    chosen = [temp[i] for i in sorted(range(len(temp)), key=rank)[:elite]]
    for _ in range(cfg.pop_size - elite):
        # min keeps the first of equal keys in draw order, as a strict < scan does
        chosen.append(temp[min(_sample_indices(rng, len(temp), size), key=rank)])
    return chosen


class Engine:
    """One seeded optimization run over a benchmark problem."""

    def __init__(self, problem: Problem, cfg: EngineConfig | None = None, seed: int = 0):
        self.problem = problem
        self.cfg = cfg if cfg is not None else EngineConfig()
        self.seed = seed
        self.rng = random.Random(seed)
        self.symbols = SymbolSet(problem.extra_operators)
        self.layout = GeneLayout(n_homeotic=problem.dim)
        self.alphabets = position_alphabets(self.layout, self.symbols)
        # (coding slice, dc slice) per ordinary gene; coding slice per homeotic gene
        self.ordinary_slices, self.homeotic_slices = gene_slices(self.layout)
        self.constants = None
        # A homeotic gene's coordinate depends only on its coding string and
        # the ordinary-gene values, so it is computed once per pair: packed
        # ordinary values -> ({homeotic coding string: coordinate},
        # {reference: ordinary value}). The key is the values' bytes, not a
        # float tuple, so that 0.0 and -0.0 stay apart and a NaN value still
        # finds its entry.
        self._pack_ordinary = struct.Struct("<2d").pack
        self._coordinates: dict[bytes, tuple[dict[str, float], dict[str, float]]] = {}
        # The ordinary values depend only on the ordinary region and the
        # constants, so a second memo maps the region string to its
        # _coordinates pair. It is emptied when self.constants becomes another
        # object (a reset, or a caller assigning it), and when it holds
        # REGION_MEMO_TEMP_POPULATIONS temp populations' worth of regions:
        # reuse comes from recent ancestors, and without the limit a run would
        # keep every region it saw before its first constant reset.
        self._ordinary_end = self.ordinary_slices[-1][1].stop
        self._regions: dict[str, tuple[dict[str, float], dict[str, float]]] = {}
        self._regions_constants = None
        self._regions_limit = REGION_MEMO_TEMP_POPULATIONS * 5 * self.cfg.pop_size

    def evaluate(self, chromosome: str) -> Individual:
        if self.constants is not self._regions_constants or len(self._regions) >= self._regions_limit:
            self._regions = {}
            self._regions_constants = self.constants
        region = chromosome[:self._ordinary_end]
        entry = self._regions.get(region)
        if entry is None:
            symbols, constants = self.symbols, self.constants
            values = [eval_ordinary(chromosome[coding], chromosome[dc], symbols, constants)
                      for coding, dc in self.ordinary_slices]
            key = self._pack_ordinary(*values)
            entry = self._coordinates.get(key)
            if entry is None:
                entry = self._coordinates[key] = ({}, dict(zip(GENE_REFERENCES, values)))
            self._regions[region] = entry
        coordinates, ordinary = entry
        point = []
        for coding in self.homeotic_slices:
            gene = chromosome[coding]
            x = coordinates.get(gene)
            if x is None:
                x = coordinates[gene] = eval_homeotic(gene, self.symbols, ordinary)
            point.append(x)
        point = tuple(point)
        return Individual(chromosome, point, self._fitness(point))

    def _fitness(self, point) -> float:
        for v in point:
            if not math.isfinite(v):
                return float("nan")
        try:
            # decoded points may sit far outside the box; treat blow-ups as unfit
            return self.problem.evaluate(point)
        except (OverflowError, ValueError):
            return float("nan")

    def build_temp_population(self, parents, rates: Rates):
        """Parents plus four same-size offspring batches, duplicates shared."""
        rng = self.rng
        cache = {ind.chromosome: ind for ind in parents}

        def materialize(chromosome):
            ind = cache.get(chromosome)
            if ind is None:
                ind = self.evaluate(chromosome)
                cache[chromosome] = ind
            return ind

        def crossed(genomes):
            pool = list(genomes)
            rng.shuffle(pool)
            out = []
            for a, b in zip(pool[0::2], pool[1::2]):
                out += crossover(a, b, rates.p_c, rng)
            # an odd count leaves the last genome unpaired
            return out + pool[len(out):]

        def mutated(genomes):
            return [mutate(g, rates.p_m, MUTATIONS_PER_INDIVIDUAL, self.layout, self.alphabets, rng)
                    for g in genomes]

        genomes = [ind.chromosome for ind in parents]
        offspring = []
        offspring += crossed(genomes)
        offspring += mutated(genomes)
        offspring += mutated(crossed(genomes))
        offspring += crossed(mutated(genomes))
        return list(parents) + [materialize(c) for c in offspring]

    def maybe_mutate_constants(self, gen: int, r_c: float, population):
        """Second-half coin flip; on success the whole constant pool is redrawn."""
        if gen <= self.cfg.max_gen / 2.0:
            return population, False
        if self.rng.random() >= r_c:
            return population, False
        self.constants = random_constant_set(self.problem.lower, self.problem.upper, self.rng)
        return [self.evaluate(ind.chromosome) for ind in population], True

    def run(self) -> RunResult:
        cfg = self.cfg
        direction = self.problem.direction
        key = _sort_key(direction)
        self.constants = random_constant_set(self.problem.lower, self.problem.upper, self.rng)
        population = [
            self.evaluate(random_chromosome(self.alphabets, self.rng))
            for _ in range(cfg.pop_size)
        ]
        best = min(population, key=key)
        first_best_gen = 0
        generations = 0
        reading = diversity(population, direction)
        rates = adapt_rates(reading.d, 0, cfg)
        trace = [TraceRow(0, best.fitness, reading.f_ave, reading.d,
                          rates.p_c, rates.p_m, rates.r_c, False)]
        for gen in range(1, cfg.max_gen + 1):
            if reached_optimum(self.problem, cfg.termination_tol, best.fitness):
                break
            rates = adapt_rates(reading.d, gen, cfg)
            population, reset = self.maybe_mutate_constants(gen, rates.r_c, population)
            temp = self.build_temp_population(population, rates)
            population = select(temp, cfg, direction, self.rng)
            candidate = min(population, key=key)
            if key(candidate) < key(best):
                best, first_best_gen = candidate, gen
            generations = gen
            # the rates were read from the parents; the next generation reads
            # the selected population, whose mean fitness this row reports
            selected = diversity(population, direction)
            trace.append(TraceRow(gen, best.fitness, selected.f_ave, reading.d,
                                  rates.p_c, rates.p_m, rates.r_c, reset))
            reading = selected
        return RunResult(self.seed, best, first_best_gen, generations, trace)


def run(problem: Problem, cfg: EngineConfig | None = None, seed: int = 0) -> RunResult:
    return Engine(problem, cfg, seed).run()
