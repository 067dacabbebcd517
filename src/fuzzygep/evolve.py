"""Generational engine with diversity-driven fuzzy rate control.

Each generation reads population diversity, adapts the crossover, mutation
and constant-mutation rates, builds a temporary population from four operator
pipelines (crossover only, mutation only, and both orders of the two), then
fills the next generation by elitism plus tournaments over parents and all
offspring.
"""

from __future__ import annotations

import heapq
import math
import operator
import random
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

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
    HOMEOTIC_GENE_LEN,
    ORDINARY_END,
    Alphabets,
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

# each of Engine.evaluate's memos starts over once it holds what this many
# 5N temp populations' evaluations can add
MEMO_TEMP_POPULATIONS = 10


# slotted and unfrozen: one is built per evaluation, and nothing hashes or
# changes one after it is built
@dataclass(slots=True)
class Individual:
    chromosome: str
    point: tuple[float, ...]
    fitness: float
    # ascending, best first: sign * fitness, with sign -1.0 for a maximized
    # problem; NaN and infinities rank inf, after every finite value
    rank: float
    # the packed ordinary-gene values the point was decoded under; b"" for
    # one built by hand, which matches no chromosome
    key: bytes = field(default=b"", compare=False, repr=False)


class Rates(NamedTuple):
    p_c: float
    p_m: float
    r_c: float


class DiversityReading(NamedTuple):
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


# one trace CSV row after the run index, its values in column order
class TraceRow(NamedTuple):
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
    best_constants: tuple[float, ...]  # the pool best was evaluated under


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
        # fuzzify clamps a diversity below the fuzzy band up to its floor
        r_c = infer_2d(CONSTANT_MUTATION_RULES, Universe(cfg.max_gen / 2.0, float(cfg.max_gen)),
                       DIVERSITY_UNIVERSE, CONSTANT_UNIVERSE, float(gen), d)
    return Rates(p_c, p_m, r_c)


def crossover(a: str, b: str, rng: random.Random, made: dict) -> tuple[str, str]:
    """One-point crossover of two chromosome strings; the caller draws the
    p_c coin. made maps each child to its record (head input, tail input,
    cut, ()): the child is the head's slots before the cut and the tail's
    from it on."""
    cut = rng.randrange(len(a))
    children = a[:cut] + b[cut:], b[:cut] + a[cut:]
    made[children[0]] = (a, b, cut, ())
    made[children[1]] = (b, a, cut, ())
    return children


def _shuffle(rng: random.Random, x: list) -> None:
    """`rng.shuffle(x)`, draw for draw, for a `random.Random`.

    CPython 3.10 to 3.13 shuffle by Fisher-Yates from the end, picking each
    swap partner below n = i + 1 as `_randbelow_with_getrandbits` does:
    drawing `getrandbits(n.bit_length())` until the value is below n. Inlined
    here without the per-element method call.
    """
    getrandbits = rng.getrandbits
    for i in reversed(range(1, len(x))):
        n = i + 1
        bits = n.bit_length()
        j = getrandbits(bits)
        while j >= n:
            j = getrandbits(bits)
        x[i], x[j] = x[j], x[i]


def mutate(chromosome: str, alphabets, rng: random.Random, made: dict) -> str:
    """Rewrite MUTATIONS_PER_INDIVIDUAL distinct positions to new legal
    symbols, each drawn through the slot's entry of alphabets.slot_plans,
    the table position_alphabets built; the caller draws the p_m coin. made
    maps the child to its record (chromosome, chromosome, 0, sites), sites
    being the rewritten positions in draw order. ValueError: other alphabets
    (before any draw), or a drawn slot holding a symbol its alphabet lacks;
    UnicodeEncodeError: a non-ASCII chromosome."""
    if type(alphabets) is not Alphabets:
        raise ValueError("alphabets do not come from position_alphabets")
    plan = alphabets.slot_plans
    flat = flatten(chromosome)
    slots = len(flat)
    getrandbits = rng.getrandbits
    # Each site is rng.randrange(slots) drawn until it is new, the set path of
    # rng.sample: getrandbits(slots.bit_length()) until below slots and new.
    bits = slots.bit_length()
    # in draw order; a repeat adds nothing, so another is drawn. A tuple, as
    # made keeps it: small tuples come from a free list, a dict would not.
    sites = ()
    while len(sites) < MUTATIONS_PER_INDIVIDUAL:
        j = getrandbits(bits)
        if j < slots and j not in sites:
            sites += (j,)
    for pos in sites:
        # every slot's alphabet holds at least two symbols; r indexes the
        # n others of the old symbol, in alphabet order. The draw is
        # rng.randrange(n)'s, as _shuffle inlines it.
        n, bits, others = plan[pos]
        r = getrandbits(bits)
        while r >= n:
            r = getrandbits(bits)
        try:
            flat[pos] = others[flat[pos]][r]
        except TypeError:  # others holds None for a symbol outside the alphabet
            raise ValueError(f"{chr(flat[pos])!r} is not a symbol of slot {pos}") from None
    child = rebuild(flat)
    made[child] = (chromosome, chromosome, 0, sites)
    return child


_by_rank = operator.attrgetter("rank")


def select(temp, cfg: EngineConfig, rng: random.Random):
    """Elites verbatim, remainder by tournaments over temp, by rank.

    Each tournament samples its contenders without internal repeats, so a
    tournament spanning all of temp returns the global best; across
    tournaments every member of temp stays available.
    """
    n = len(temp)
    if n < cfg.pop_size:
        raise ValueError("temp population smaller than pop_size")
    elite = cfg.elite_count
    size = cfg.tournament_size(n)
    # nsmallest equals sorted(temp, key=...)[:elite], a stable sort, so the
    # elites come first in the order sorted gives them
    chosen = heapq.nsmallest(elite, temp, key=_by_rank)
    # Each contender is rng.randrange(n) drawn until it is new, the set path
    # of rng.sample: getrandbits(n.bit_length()) until the value is below n
    # and new. As 2 <= size <= n, a tournament always fills. The first
    # contender is the best so far, then size - 1 rivals; the strict < keeps
    # the first of equal ranks in draw order. A list of picks would scan in
    # O(size) per draw, which loses at large temps.
    getrandbits = rng.getrandbits
    bits = n.bit_length()
    rivals = range(size - 1)
    for _ in range(cfg.pop_size - elite):
        j = getrandbits(bits)
        while j >= n:
            j = getrandbits(bits)
        picked = {j}
        best = temp[j]
        best_rank = best.rank
        for _ in rivals:
            j = getrandbits(bits)
            while j >= n or j in picked:
                j = getrandbits(bits)
            picked.add(j)
            contender = temp[j]
            if contender.rank < best_rank:
                best = contender
                best_rank = best.rank
        chosen.append(best)
    return chosen


class Engine:
    """One seeded optimization run over a benchmark problem."""

    def __init__(self, problem: Problem, cfg: EngineConfig | None = None, seed: int = 0):
        self.problem = problem
        self.cfg = cfg if cfg is not None else EngineConfig()
        self.seed = seed
        self.rng = random.Random(seed)
        self.alphabets = position_alphabets(problem.dim, problem.extra_operators)
        self.ordinary_slices, self.homeotic_slices = gene_slices(problem.dim)
        self.constants = None
        # One memo per decode stage, each limited to what this many
        # evaluations can add: reuse comes from recent ancestors, and without
        # a limit a long run would keep everything it ever decoded.
        evaluations = MEMO_TEMP_POPULATIONS * 5 * self.cfg.pop_size
        # _genes maps an ordinary gene's string (head, tail and Dc) to its value,
        # which depends on the constants too: it also starts over when
        # self.constants becomes another object (a reset, or a caller's).
        self._genes: dict[str, float] = {}
        self._genes_constants = None
        self._genes_limit = len(GENE_REFERENCES) * evaluations
        # A homeotic gene's coordinate depends only on its string and
        # the ordinary-gene values, so it is computed once per pair: packed
        # ordinary values -> ({homeotic gene string: coordinate},
        # {reference: ordinary value}). The key is the values' bytes, not a
        # float tuple, so that 0.0 and -0.0 stay apart and a NaN value still
        # finds its entry. No constant enters it, so it outlives constant
        # resets; its limit counts the coordinates stored, dim per evaluation.
        self._pack_ordinary = struct.Struct(f"<{len(GENE_REFERENCES)}d").pack
        self._coordinates: dict[bytes, tuple[dict[str, float], dict[str, float]]] = {}
        self._coordinates_stored = 0
        self._coordinates_limit = problem.dim * evaluations
        # Many chromosomes decode to the same point, and the objective
        # depends only on the point's bits: _fitnesses maps a packed point
        # (signed zeros apart, as above) to its fitness, NaN for an unfit
        # one. It outlives constant resets too.
        self._pack_point = struct.Struct(f"<{problem.dim}d").pack
        self._fitnesses: dict[bytes, float] = {}
        self._fitnesses_limit = evaluations
        self._sign = 1.0 if problem.direction == "minimize" else -1.0

    def evaluate(self, chromosome: str, head: Individual | None = None,
                 tail: Individual | None = None, cut: int = 0, sites=()) -> Individual:
        """Decode and score the chromosome through the memos.

        A record (head, tail, cut, sites), as mutate and crossover write one,
        says the chromosome is head's slots before cut and tail's from cut
        on, with the slots in sites rewritten; head and tail here are those
        inputs' Individuals, None for one not at hand. A coordinate depends
        only on its homeotic gene and the ordinary-gene values, so genes
        [0, h) take the head's coordinates, [h, t) are looked up and [t, dim)
        take the tail's, h and t being the genes before and from the cut (one
        it splits is neither's); h is 0 unless head.key is the chromosome's,
        t is dim unless tail.key is. Sites' genes are looked up again. If all
        homeotic genes are the tail's, so are the point, fitness and rank."""
        if (self.constants is not self._genes_constants
                or len(self._genes) >= self._genes_limit):
            self._genes = {}
            self._genes_constants = self.constants
        genes = self._genes
        values = []
        for where in self.ordinary_slices:
            gene = chromosome[where]
            value = genes.get(gene)
            if value is None:
                value = genes[gene] = eval_ordinary(gene, self.constants)
            values.append(value)
        key = self._pack_ordinary(*values)
        # genes [0, h) are the head's, [h, t) looked up, [t, dim) the tail's
        slices = self.homeotic_slices
        h = t = 0
        if cut > ORDINARY_END:  # a cut inside a gene leaves it to neither input
            h, inside = divmod(cut - ORDINARY_END, HOMEOTIC_GENE_LEN)
            t = h + 1 if inside else h
            if head is None or head.key != key:
                h = 0
        if tail is None or tail.key != key:
            t = len(slices)
        elif not t:
            for site in sites:
                if site >= ORDINARY_END:
                    break
            else:  # every homeotic gene is the tail's
                return Individual(chromosome, tail.point, tail.fitness, tail.rank, key)
        # the shortcut above stores nothing, so these memos are checked after it
        if self._coordinates_stored >= self._coordinates_limit:
            self._coordinates = {}
            self._coordinates_stored = 0
        if len(self._fitnesses) >= self._fitnesses_limit:
            self._fitnesses = {}
        entry = self._coordinates.get(key)
        if entry is None:
            entry = self._coordinates[key] = ({}, dict(zip(GENE_REFERENCES, values)))
        coordinates, ordinary = entry
        point = list(head.point[:h]) if h else []
        for where in slices[h:t]:
            gene = chromosome[where]
            x = coordinates.get(gene)
            if x is None:
                x = coordinates[gene] = eval_homeotic(gene, ordinary)
                self._coordinates_stored += 1
            point.append(x)
        if t < len(slices):
            point += tail.point[t:]
        for site in sites:  # a second site in one gene finds it stored
            if site >= ORDINARY_END:
                g = (site - ORDINARY_END) // HOMEOTIC_GENE_LEN
                gene = chromosome[slices[g]]
                x = coordinates.get(gene)
                if x is None:
                    x = coordinates[gene] = eval_homeotic(gene, ordinary)
                    self._coordinates_stored += 1
                point[g] = x
        point = tuple(point)
        fitness_key = self._pack_point(*point)
        fitness = self._fitnesses.get(fitness_key)
        if fitness is None:
            fitness = self._fitnesses[fitness_key] = self._fitness(point)
        rank = self._sign * fitness if math.isfinite(fitness) else math.inf
        return Individual(chromosome, point, fitness, rank, key)

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
        """Parents plus four same-size offspring batches, duplicates shared.

        The pipelines draw each operator's coin, a pair crossing with
        probability p_c and a genome mutating with probability p_m, and
        call the operator only when it fires. They call crossover and mutate
        through this module's globals, where perfbench/tracer.py wraps them.
        Each distinct offspring no parent holds is evaluated once, in temp
        order, from the record of the operator that built it and the inputs
        the offspring cache holds by then, None for one it lacks (see
        evaluate).
        """
        rng = self.rng
        rand = rng.random
        p_c, p_m = rates.p_c, rates.p_m
        alphabets = self.alphabets
        made = {}  # child -> its inputs, filled by mutate and crossover

        def crossed(genomes):
            pool = list(genomes)
            _shuffle(rng, pool)
            # pairs 0-1, 2-3, ...; an odd count leaves the last genome unpaired
            for i in range(1, len(pool), 2):
                if rand() < p_c:
                    pool[i - 1], pool[i] = crossover(pool[i - 1], pool[i], rng, made)
            return pool

        def mutated(genomes):
            return [g if rand() >= p_m else mutate(g, alphabets, rng, made)
                    for g in genomes]

        genomes = [ind.chromosome for ind in parents]
        offspring = []
        offspring += crossed(genomes)
        offspring += mutated(genomes)
        offspring += mutated(crossed(genomes))
        offspring += crossed(mutated(genomes))
        cache = {ind.chromosome: ind for ind in parents}
        temp = list(parents)
        for chromosome in offspring:
            ind = cache.get(chromosome)
            if ind is None:
                head, tail, cut, sites = made[chromosome]
                ind = cache[chromosome] = self.evaluate(
                    chromosome, cache.get(head), cache.get(tail), cut, sites)
            temp.append(ind)
        return temp

    def maybe_mutate_constants(self, gen: int, r_c: float, population):
        """Second-half coin flip; on success the whole constant pool is
        redrawn, and each distinct chromosome of the population is evaluated
        once, in first-seen order, from a member that holds it as its own
        input, for every member that holds it."""
        if gen <= self.cfg.max_gen / 2.0:
            return population, False
        if self.rng.random() >= r_c:
            return population, False
        self.constants = random_constant_set(self.problem.lower, self.problem.upper, self.rng)
        evaluated = {c: self.evaluate(c, ind, ind)
                     for c, ind in {ind.chromosome: ind for ind in population}.items()}
        return [evaluated[ind.chromosome] for ind in population], True

    def run(self) -> RunResult:
        cfg = self.cfg
        direction = self.problem.direction
        self.constants = random_constant_set(self.problem.lower, self.problem.upper, self.rng)
        population = [
            self.evaluate(random_chromosome(self.alphabets, self.rng))
            for _ in range(cfg.pop_size)
        ]
        best = min(population, key=_by_rank)
        best_constants = self.constants
        first_best_gen = 0
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
            population = select(temp, cfg, self.rng)
            # select puts the best of temp first
            candidate = population[0]
            if candidate.rank < best.rank:
                best, best_constants, first_best_gen = candidate, self.constants, gen
            # the rates were read from the parents; the next generation reads
            # the selected population, whose mean fitness this row reports
            selected = diversity(population, direction)
            trace.append(TraceRow(gen, best.fitness, selected.f_ave, reading.d,
                                  rates.p_c, rates.p_m, rates.r_c, reset))
            reading = selected
        return RunResult(self.seed, best, first_best_gen, len(trace) - 1, trace, best_constants)


def run(problem: Problem, cfg: EngineConfig | None = None, seed: int = 0) -> RunResult:
    return Engine(problem, cfg, seed).run()
