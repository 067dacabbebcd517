"""Independent reference implementations used only by the tests.

Everything here is written from the underlying definitions, not from the
package source: a brute-force Mamdani pipeline over dense sample grids, a
level-by-level K-expression decoder, a second copy of each benchmark
objective, and numeric argmax refinement for the two maximization problems. The exceptions are copies of package code
that a faster version replaced or that the package no longer needs:
`ref_select` and `ref_mutate`, `ref_defuzzify`, `ref_label_membership` and
`eval_chromosome` (see their docstrings), and `ref_run`, which builds a
whole run from them.
"""

import math
import random
from functools import lru_cache
from operator import contains

import numpy as np

from fuzzygep.bench import reached_optimum
from fuzzygep.decode import OPERATORS, eval_homeotic, eval_ordinary
from fuzzygep.evolve import Individual, RunResult, TraceRow, adapt_rates, diversity
from fuzzygep.genome import GENE_REFERENCES, gene_slices, position_alphabets, random_constant_set

LABELS = ("XL", "ML", "M", "MH", "XH")

REF_CROSSOVER_RULES = {"XL": "XH", "ML": "MH", "M": "M", "MH": "ML", "XH": "XL"}
REF_MUTATION_RULES = {"XL": "XL", "ML": "ML", "M": "M", "MH": "MH", "XH": "XH"}
REF_CONSTANT_RULES = {}
for _r, _row in zip(LABELS, (("XL", "XL", "ML", "ML", "M"),
                             ("XL", "ML", "ML", "M", "MH"),
                             ("ML", "ML", "M", "MH", "MH"),
                             ("ML", "M", "MH", "MH", "XH"),
                             ("M", "M", "MH", "XH", "XH"))):
    for _c, _out in zip(LABELS, _row):
        REF_CONSTANT_RULES[(_r, _c)] = _out


def _breaks(lo: float, hi: float):
    return [lo + k * (hi - lo) / 4.0 for k in range(5)]


def _label_interp_points(label, lo, hi):
    p = _breaks(lo, hi)
    i = LABELS.index(label)
    if i == 0:
        return p[:2], [1.0, 0.0]
    if i == 4:
        return p[3:], [0.0, 1.0]
    return p[i - 1:i + 2], [0.0, 1.0, 0.0]


def ref_membership(label, x, lo, hi):
    x = min(max(x, lo), hi)
    xp, fp = _label_interp_points(label, lo, hi)
    return float(np.interp(x, xp, fp))


@lru_cache(maxsize=None)
def _output_grids(lo, hi, samples):
    ys = np.linspace(lo, hi, samples)
    grids = {}
    for label in LABELS:
        xp, fp = _label_interp_points(label, lo, hi)
        grids[label] = np.interp(ys, xp, fp)
    return ys, grids


def _centroid(ys, agg, lo, hi):
    total = float(agg.sum())
    if total == 0.0:
        return 0.5 * (lo + hi)
    return float((ys * agg).sum() / total)


def ref_infer_1d(rules, in_universe, out_universe, x, samples=100_000):
    lo, hi = out_universe
    ys, grids = _output_grids(lo, hi, samples)
    agg = np.zeros(len(ys))
    for label in LABELS:
        strength = ref_membership(label, x, *in_universe)
        if strength > 0.0:
            np.maximum(agg, np.minimum(strength, grids[rules[label]]), out=agg)
    return _centroid(ys, agg, lo, hi)


def ref_infer_2d(rules, universe_a, universe_b, out_universe, a, b, samples=100_000):
    lo, hi = out_universe
    ys, grids = _output_grids(lo, hi, samples)
    agg = np.zeros(len(ys))
    for label_a in LABELS:
        sa = ref_membership(label_a, a, *universe_a)
        if sa == 0.0:
            continue
        for label_b in LABELS:
            sb = ref_membership(label_b, b, *universe_b)
            strength = min(sa, sb)
            if strength > 0.0:
                np.maximum(agg, np.minimum(strength, grids[rules[(label_a, label_b)]]), out=agg)
    return _centroid(ys, agg, lo, hi)


def ref_label_membership(universe, label, x):
    """Membership of x in one label of a `Universe`, one label per call.

    A copy of the per-label membership function that the one-pass
    `Universe.fuzzify` replaced, kept so that `fuzzify` can be checked
    against it bit for bit.
    """
    i = LABELS.index(label)
    p = universe.breakpoints
    x = universe.clamp(x)
    if i == 0:
        if x <= p[0]:
            return 1.0
        if x >= p[1]:
            return 0.0
        return (p[1] - x) / (p[1] - p[0])
    if i == 4:
        if x >= p[4]:
            return 1.0
        if x <= p[3]:
            return 0.0
        return (x - p[3]) / (p[4] - p[3])
    left, peak, right = p[i - 1], p[i], p[i + 1]
    if x <= left or x >= right:
        return 0.0
    if x <= peak:
        return (x - left) / (peak - left)
    return (right - x) / (right - peak)


@lru_cache(maxsize=32)
def _grid_1001(universe):
    xs = np.linspace(universe.lower, universe.upper, 1001)
    return xs, np.array([universe.fuzzify(x) for x in xs]).T


def ref_defuzzify(strengths, universe):
    """Centroid of the max of the clipped output labels on 1001 points;
    `strengths` holds five, in label order.

    A copy of the numpy defuzzifier that the closed form in `fuzzy.centroid`
    replaced, kept so that the closed form can be checked against the grid
    sums it stands for.
    """
    xs, grids = _grid_1001(universe)
    aggregate = np.zeros(1001)
    for grid, strength in zip(grids, strengths):
        if strength > 0.0:
            np.maximum(aggregate, np.minimum(strength, grid), out=aggregate)
    return _centroid(xs, aggregate, universe.lower, universe.upper)


# --- second implementations of the benchmark objectives ---

TWO_PI = 2.0 * math.pi


def ref_f1(x):
    return sum(v * v for v in x)


def ref_f2(x):
    return 100.0 * (x[0] * x[0] - x[1]) * (x[0] * x[0] - x[1]) + (1.0 - x[0]) * (1.0 - x[0])


def ref_f3(x):
    s = x[0] * x[0] + x[1] * x[1]
    return 0.5 + (math.sin(math.sqrt(s)) * math.sin(math.sqrt(s)) - 0.5) / ((1.0 + 0.001 * s) * (1.0 + 0.001 * s))


def ref_f4(x):
    s = x[0] * x[0] + x[1] * x[1]
    return math.pow(s, 0.25) * (math.sin(50.0 * math.pow(s, 0.1)) * math.sin(50.0 * math.pow(s, 0.1)) + 1.0)


def ref_f5(x):
    return math.exp(-0.001 * x[0]) * (math.cos(0.8 * x[0]) * math.cos(0.8 * x[0]))


def ref_f6(x):
    u = math.sin(4.0 * x[0])
    v = math.sin(2.0 * x[1])
    return -x[0] * u - 1.1 * x[1] * v


def ref_f7(x):
    return x[0] * math.sin(10.0 * math.pi * x[0]) + 1.0


def ref_f8(x):
    x1, x2 = x[0], x[1]
    u = x1 + x2 + 1.0
    v = 2.0 * x1 - 3.0 * x2
    return (1.0 + u * u * (19.0 - 14.0 * x1 + 3.0 * x1 * x1 - 14.0 * x2 + 6.0 * x1 * x2 + 3.0 * x2 * x2)) \
        * (30.0 + v * v * (18.0 - 32.0 * x1 + 12.0 * x1 * x1 + 48.0 * x2 - 36.0 * x1 * x2 + 27.0 * x2 * x2))


def ref_f9(x):
    return sum((i + 1) * v * v for i, v in enumerate(x))


def ref_f10(x):
    return sum(abs(v) for v in x) + math.prod(abs(v) for v in x)


def ref_f11(x):
    return sum(abs(v * math.sin(v) + 0.1 * v) for v in x)


def ref_f12(x):
    n = len(x)
    mean_sq = sum(v * v for v in x) / n
    mean_cos = sum(math.cos(TWO_PI * v) for v in x) / n
    return -20.0 * math.exp(-0.2 * math.sqrt(mean_sq)) - math.exp(mean_cos) + 20.0 + math.exp(1.0)


REF_BENCH = {
    "f1": ref_f1,
    "f2": ref_f2,
    "f3": ref_f3,
    "f4": ref_f4,
    "f5": ref_f5,
    "f6": ref_f6,
    "f7": ref_f7,
    "f8": ref_f8,
    "f9": ref_f9,
    "f10": ref_f10,
    "f11": ref_f11,
    "f12": ref_f12,
}


def refined_max_1d(f, lo, hi):
    """Global max of a smooth 1-d function: dense grid, then bounded search."""
    from scipy.optimize import minimize_scalar

    xs = np.linspace(lo, hi, 20001)
    ys = np.array([f(x) for x in xs])
    k = int(ys.argmax())
    left = xs[max(0, k - 1)]
    right = xs[min(len(xs) - 1, k + 1)]
    res = minimize_scalar(lambda t: -f(t), bounds=(left, right), method="bounded",
                          options={"xatol": 1e-13})
    return float(-res.fun)


def ref_rank(fitness, direction):
    """`Individual.rank` by its definition: lower is better, so a maximized
    fitness is negated, and NaN and the infinities come after every finite
    fitness."""
    if not math.isfinite(fitness):
        return math.inf
    return fitness if direction == "minimize" else -fitness


def _ref_sort_key(direction):
    sign = 1.0 if direction == "minimize" else -1.0

    def key(ind):
        f = ind.fitness
        if not math.isfinite(f):
            return (1, 0.0)
        return (0, sign * f)

    return key


def ref_select(temp, pop_size, elite, size, direction, rng):
    """Elites by a stable sort, then pop_size - elite tournaments of `size`
    contenders drawn by rng.sample; the first best contender in draw order wins."""
    key = _ref_sort_key(direction)
    chosen = list(sorted(temp, key=key)[:elite])
    indices = range(len(temp))
    for _ in range(pop_size - elite):
        best = None
        best_key = None
        for idx in rng.sample(indices, size):
            contender = temp[idx]
            ck = key(contender)
            if best is None or ck < best_key:
                best = contender
                best_key = ck
        chosen.append(best)
    return chosen


def ref_mutate(chromosome, p_m, k, alphabets, rng):
    """With probability p_m, k distinct positions drawn by rng.sample, each
    rewritten to a uniformly drawn other symbol of its slot's alphabet."""
    if rng.random() >= p_m:
        return chromosome
    flat = list(chromosome)
    for pos in rng.sample(range(len(flat)), min(k, len(flat))):
        others = [s for s in alphabets[pos] if s != flat[pos]]
        if others:
            flat[pos] = others[rng.randrange(len(others))]
    return "".join(flat)


def eval_chromosome(chromosome: str, n_homeotic: int, constants: tuple[float, ...]) -> tuple[float, ...]:
    """Candidate point: one coordinate per homeotic gene.

    This is the uncached reference decode: `Engine.evaluate` memoizes
    coordinates and is tested to return the same bits as this function.
    """
    ordinary, homeotic = gene_slices(n_homeotic)
    ordinary_values = {
        ref: eval_ordinary(chromosome[coding], chromosome[dc], constants)
        for ref, (coding, dc) in zip(GENE_REFERENCES, ordinary)
    }
    return tuple(eval_homeotic(chromosome[coding], ordinary_values) for coding in homeotic)


REF_MUTATED_SLOTS = 2  # distinct slots each mutant rewrites


def ref_run(problem, cfg, seed):
    """`evolve.Engine.run` without its speed code: every draw is the stdlib
    call it stands for (`rng.choices` per slot, `rng.shuffle`, `rng.randrange`
    for the cut, `ref_mutate` with its coin inside, `ref_select`), and every
    individual is decoded by `eval_chromosome`, with no memo and no
    offspring cache. The rate controllers, `diversity`, the constant draw,
    the alphabets, the objective and the stopping rule `reached_optimum` are
    the package's, with checks of their own."""
    rng = random.Random(seed)
    alphabets = position_alphabets(problem.dim, problem.extra_operators)
    key = _ref_sort_key(problem.direction)

    def evaluate(chromosome, constants):
        point = eval_chromosome(chromosome, problem.dim, constants)
        fitness = float("nan")
        if all(math.isfinite(x) for x in point):
            try:
                fitness = problem.evaluate(point)
            except (OverflowError, ValueError):
                pass
        return Individual(chromosome, point, fitness, ref_rank(fitness, problem.direction))

    def crossed(genomes, p_c):
        pool = list(genomes)
        rng.shuffle(pool)
        out = []
        for a, b in zip(pool[0::2], pool[1::2]):
            if rng.random() < p_c:
                cut = rng.randrange(len(a))
                a, b = a[:cut] + b[cut:], b[:cut] + a[cut:]
            out += [a, b]
        return out + pool[len(out):]

    def mutated(genomes, p_m):
        return [ref_mutate(g, p_m, REF_MUTATED_SLOTS, alphabets, rng) for g in genomes]

    constants = random_constant_set(problem.lower, problem.upper, rng)
    population = [evaluate("".join(rng.choices(alphabet)[0] for alphabet in alphabets),
                           constants)
                  for _ in range(cfg.pop_size)]
    best = min(population, key=key)
    first_best_gen = generations = 0
    reading = diversity(population, problem.direction)
    rates = adapt_rates(reading.d, 0, cfg)
    trace = [TraceRow(0, best.fitness, reading.f_ave, reading.d, rates.p_c, rates.p_m,
                      rates.r_c, False)]
    for gen in range(1, cfg.max_gen + 1):
        if reached_optimum(problem, cfg.termination_tol, best.fitness):
            break
        rates = adapt_rates(reading.d, gen, cfg)
        reset = gen > cfg.max_gen / 2.0 and rng.random() < rates.r_c
        if reset:
            constants = random_constant_set(problem.lower, problem.upper, rng)
            population = [evaluate(ind.chromosome, constants) for ind in population]
        genomes = [ind.chromosome for ind in population]
        offspring = (crossed(genomes, rates.p_c) + mutated(genomes, rates.p_m)
                     + mutated(crossed(genomes, rates.p_c), rates.p_m)
                     + crossed(mutated(genomes, rates.p_m), rates.p_c))
        temp = population + [evaluate(c, constants) for c in offspring]
        population = ref_select(temp, cfg.pop_size, cfg.elite_count,
                                cfg.tournament_size(len(temp)), problem.direction, rng)
        candidate = min(population, key=key)
        if key(candidate) < key(best):
            best, first_best_gen = candidate, gen
        generations = gen
        selected = diversity(population, problem.direction)
        trace.append(TraceRow(gen, best.fitness, selected.f_ave, reading.d, rates.p_c,
                              rates.p_m, rates.r_c, reset))
        reading = selected
    return RunResult(seed, best, first_best_gen, generations, trace)


# --- K-expressions, from the definition ---

REF_ARITY = {"+": 2, "-": 2, "*": 2, "/": 2, "S": 1, "C": 1, "Q": 1, "E": 1}
REF_DIGITS = "abcdefghij"
# the ten constant letters: A to L without the operator letters C and E
REF_DC = "ABDFGHIJKL"


def ref_kexpression(coding, terminal_value):
    """Value of the K-expression `coding`: its expression tree is built level
    by level and then evaluated recursively.

    The first symbol is the root. Each next level takes, in reading order,
    as many of the following symbols as the functions on the level above
    take arguments; the tree ends at a level of terminals only.
    `terminal_value(i)` is the value of the terminal at position i. Only
    the protected operators, `decode.OPERATORS`, which have unit tests of
    their own, come from the package.
    """
    children = {}
    level, end = [0], 1
    while level:
        below = []
        for i in level:
            n = REF_ARITY.get(coding[i], 0)
            children[i] = range(end, end + n)
            below += children[i]
            end += n
        level = below

    def value(i):
        if children[i]:
            return OPERATORS[coding[i]](*[value(j) for j in children[i]])
        return terminal_value(i)

    return value(0)


def ref_eval_ordinary(coding, dc, constants):
    """An ordinary gene: a digit terminal stands for 0..9, and the k-th '?'
    in reading order takes the constant that dc[k] names."""
    def terminal(i):
        if coding[i] == "?":
            return constants[REF_DC.index(dc[coding.count("?", 0, i)])]
        return float(REF_DIGITS.index(coding[i]))

    return ref_kexpression(coding, terminal)


def ref_eval_homeotic(coding, ordinary_values):
    """A homeotic gene: each terminal is the value of the ordinary gene it names."""
    return ref_kexpression(coding, lambda i: ordinary_values[coding[i]])


# --- structure of a chromosome, from the region definitions ---

@lru_cache(maxsize=None)
def _ref_slots(n_homeotic, extra_operators=()):
    """Name and allowed set of every slot, in order.

    The sizes are the method's, written here rather than read from the
    package: two ordinary genes, each a head of 6, a tail of 7 and a Dc
    region of 7, then n_homeotic homeotic genes, each a head of 4 and a tail
    of 5. Ordinary heads take functions and terminals, ordinary tails
    terminals only, and Dc regions the constant letters. A homeotic gene
    takes gene references where an ordinary gene takes terminals. The
    functions are the four arithmetic operators and extra_operators.
    """
    refs = frozenset(GENE_REFERENCES)
    functions = frozenset("+-*/") | frozenset(extra_operators)
    terminals = frozenset("?" + REF_DIGITS)
    ordinary = (("head", 6, functions | terminals),
                ("tail", 7, terminals),
                ("dc", 7, frozenset(REF_DC)))
    homeotic = (("head", 4, functions | refs),
                ("tail", 5, refs))
    names, allowed = [], []
    for kind, n_genes, regions in (("ordinary", 2, ordinary),
                                   ("homeotic", n_homeotic, homeotic)):
        for gene in range(n_genes):
            for region, size, symbols in regions:
                names += [f"{kind} gene {gene} {region}, position {i}" for i in range(size)]
                allowed += [symbols] * size
    return tuple(names), tuple(allowed)


def ref_allowed_sets(n_homeotic: int, extra_operators=()) -> tuple[frozenset, ...]:
    """The set of legal symbols at every slot of the chromosome string."""
    return _ref_slots(n_homeotic, tuple(extra_operators))[1]


def validate(chromosome: str, n_homeotic: int, extra_operators=()) -> list[str]:
    """Structural check; returns human-readable violations, empty when valid."""
    names, allowed = _ref_slots(n_homeotic, tuple(extra_operators))
    if len(chromosome) != len(allowed):
        return [f"expected {len(allowed)} symbols, got {len(chromosome)}"]
    if all(map(contains, allowed, chromosome)):
        return []
    return [f"{name}: symbol {sym!r} not allowed"
            for name, sym, ok in zip(names, chromosome, allowed) if sym not in ok]


def expressed_length(coding: str) -> int:
    """Length of the expressed prefix of a K-expression: reading left to
    right, each function opens as many argument slots as its arity, and the
    expression ends when every open slot is filled."""
    length, open_slots = 0, 1
    while open_slots:
        open_slots += REF_ARITY.get(coding[length], 0) - 1
        length += 1
    return length


def ref_sum(values):
    """Float sum, one addition at a time from the left."""
    total = 0.0
    for v in values:
        total = total + v
    return total
