"""Shipping checks, one verdict line each (run with -s to see them).

Stochastic checks pin 20 seeds starting at SEED_BASE; deterministic checks
pin their inputs outright.  Every test prints `[PASS]`/`[FAIL]` with the
measured numbers before asserting, so a red run still reports how far off it
was.
"""

import math
import random
import time

from oracles import (
    REF_BENCH,
    REF_CONSTANT_RULES,
    REF_CROSSOVER_RULES,
    REF_MUTATION_RULES,
    ref_infer_1d,
    ref_infer_2d,
    validate,
)

from fuzzygep import bench, cli, evolve
from fuzzygep.evolve import (
    CONSTANT_UNIVERSE,
    CROSSOVER_UNIVERSE,
    DIVERSITY_UNIVERSE,
    MUTATION_UNIVERSE,
    EngineConfig,
    Rates,
    adapt_rates,
    crossover,
    mutate,
)
from fuzzygep.fuzzy import (
    CONSTANT_MUTATION_RULES,
    CROSSOVER_RULES,
    LABELS,
    MUTATION_RULES,
    Universe,
    infer_1d,
    infer_2d,
)
from fuzzygep.genome import position_alphabets, random_chromosome

SEED_BASE = 100
SEEDS = range(SEED_BASE, SEED_BASE + 20)
# controller-vs-oracle agreement band (A02); A03 also uses it as the depth
# below which a dip may come from the oracle's sampling rather than the method
ORACLE_TOL = 1e-3


def _verdict(ok: bool, label: str, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}", flush=True)
    return ok


def _sweep(name, dim, cfg):
    problem = bench.builtin(name, dim)
    return problem, [evolve.run(problem, cfg, seed=s) for s in SEEDS]


def test_bulk_generated_and_operated_genomes_all_validate():
    rng = random.Random(0)
    alphabets = position_alphabets(2)
    t0 = time.perf_counter()
    chroms = [random_chromosome(alphabets, rng) for _ in range(100_000)]
    invalid = sum(validate(c, 2) != [] for c in chroms)
    for i in range(10_000):
        a, b = crossover(chroms[2 * i], chroms[2 * i + 1], rng, {})
        invalid += (validate(a, 2) != []) + (validate(b, 2) != [])
    for i in range(10_000):
        invalid += validate(mutate(chroms[i], alphabets, rng, {}), 2) != []
    elapsed = time.perf_counter() - t0
    ok = invalid == 0 and elapsed < 5.0
    assert _verdict(ok, "A01 bulk validity",
                    f"1e5 genomes + 2e4 crossover children + 1e4 mutants: "
                    f"{invalid} of 1.3e5 invalid in {elapsed:.2f}s (budget 5s)")


def test_controllers_match_bruteforce_mamdani_oracle():
    cfg = EngineConfig()  # max_gen 1000, so the constant rate runs on generations 500..1000
    rng = random.Random(1)
    # the budget is the package's; the brute-force oracle is timed apart
    clock = time.perf_counter
    package_s = oracle_s = 0.0
    worst = 0.0
    for _ in range(1000):
        d = rng.uniform(0.6, 1.0)
        gen = rng.uniform(500.0, 1000.0)
        t0 = clock()
        rates = adapt_rates(d, gen, cfg)
        t1 = clock()
        package_s += t1 - t0
        worst = max(
            worst,
            abs(rates.p_c - ref_infer_1d(REF_CROSSOVER_RULES, (0.6, 1.0), (0.1, 0.3), d)),
            abs(rates.p_m - ref_infer_1d(REF_MUTATION_RULES, (0.6, 1.0), (0.05, 0.25), d)),
            abs(rates.r_c - ref_infer_2d(REF_CONSTANT_RULES, (500.0, 1000.0), (0.6, 1.0),
                                         (0.0, 0.5), gen, d)),
        )
        oracle_s += clock() - t1
    ok = worst <= ORACLE_TOL and package_s < 10.0
    assert _verdict(ok, "A02 fuzzy oracle",
                    f"1000 inputs/controller, worst |diff|={worst:.2e} "
                    f"(tol {ORACLE_TOL:g}); adapt_rates {package_s:.2f}s (budget 10s), "
                    f"oracle {oracle_s:.2f}s")


def _lines(surface):
    """Rows, then columns, of a 2D grid of values."""
    return surface + [list(col) for col in zip(*surface)]


def _drops(surface):
    """Fall from each point to the next along every row and column; > 0 is a dip."""
    return [a - b for line in _lines(surface) for a, b in zip(line, line[1:])]


def test_rate_surfaces_are_monotone():
    """The monotonicity that Mamdani inference (min implication, max
    aggregation, centroid defuzzification) promises for these rule tables.

    1. The 1D tables are bijections, so adjacent inputs never share an output
       label: crossover never rises and mutation never falls on a 401-point
       diversity grid.
    2. At the 5x5 rule anchors (iteration breakpoints x diversity
       breakpoints) exactly one rule fires at full strength, so the constant
       rate is that rule's output centroid.  Along every row and column the
       value must stay exactly equal where CONSTANT_MUTATION_RULES repeats a
       label and rise strictly where the label rises; a falling label fails.
    3. Between the anchors the method promises no monotonicity.  A monotone
       5x5 table must repeat labels in adjacent cells; under max aggregation
       such a label's strength sags and recovers mid-transition (XL at
       d=0.62 goes 0.6 -> 0.5 -> 0.6 as g goes 550 -> 562.5 -> 575), so the
       centroid bulges by a few 1e-3 (Van Broekhoven & De Baets, IEEE TFS
       17(5), 2009).  On the 41x41 grid every step where the controller or
       the brute-force oracle dips by more than ORACLE_TOL must be a dip of
       the other too, so the dips are the method's.  Both dip counts are
       printed so the bulges stay visible.
    """
    # adapt_rates holds the constant rate at 0 up to generation 500, the
    # first iteration anchor, so the surfaces come from the inferences directly
    iteration = Universe(500.0, 1000.0)

    def constant_rate(g, d):
        return infer_2d(CONSTANT_MUTATION_RULES, iteration, DIVERSITY_UNIVERSE,
                        CONSTANT_UNIVERSE, g, d)

    ds = [0.6 + 0.4 * i / 400 for i in range(401)]
    cross = [infer_1d(CROSSOVER_RULES, DIVERSITY_UNIVERSE, CROSSOVER_UNIVERSE, d) for d in ds]
    mut = [infer_1d(MUTATION_RULES, DIVERSITY_UNIVERSE, MUTATION_UNIVERSE, d) for d in ds]
    v_cross = sum(b > a for a, b in zip(cross, cross[1:]))
    v_mut = sum(b < a for a, b in zip(mut, mut[1:]))

    rank = {label: i for i, label in enumerate(LABELS)}
    anchors = [[(rank[CONSTANT_MUTATION_RULES[(la, lb)]], constant_rate(g, d))
                for lb, d in zip(LABELS, DIVERSITY_UNIVERSE.breakpoints)]
               for la, g in zip(LABELS, iteration.breakpoints)]
    v_anchor = sum(not ((ra == rb and va == vb) or (ra < rb and va < vb))
                   for line in _lines(anchors)
                   for (ra, va), (rb, vb) in zip(line, line[1:]))

    gens = [500.0 + 500.0 * i / 40 for i in range(41)]
    d41 = [0.6 + 0.4 * j / 40 for j in range(41)]
    ctrl = _drops([[constant_rate(g, d) for d in d41] for g in gens])
    ref = _drops([[ref_infer_2d(REF_CONSTANT_RULES, (500.0, 1000.0), (0.6, 1.0),
                                (0.0, 0.5), g, d) for d in d41] for g in gens])
    unmatched = sum((c > ORACLE_TOL and r <= 0.0) or (r > ORACLE_TOL and c <= 0.0)
                    for c, r in zip(ctrl, ref))
    ctrl_dips = [c for c in ctrl if c > 0.0]
    ref_dips = [r for r in ref if r > 0.0]

    ok = v_cross == 0 and v_mut == 0 and v_anchor == 0 and unmatched == 0
    assert _verdict(ok, "A03 monotone rules",
                    f"crossover {v_cross} / mutation {v_mut} violations on 401-pt "
                    f"grid; {v_anchor} of 40 rule-anchor steps off the table; "
                    f"41x41 constant surface dips: controller {len(ctrl_dips)} "
                    f"(max {max(ctrl_dips, default=0.0):.2e}), oracle {len(ref_dips)} "
                    f"(max {max(ref_dips, default=0.0):.2e}), {unmatched} deeper "
                    f"than {ORACLE_TOL:g} unmatched")


def test_low_diversity_branch_returns_fixed_rates_exactly():
    cfg = EngineConfig()
    expected = Rates(0.4, 0.1, 0.0)
    ok = all(adapt_rates(0.59, gen, cfg) == expected
             for gen in (0, 1, 250, 500))
    assert _verdict(ok, "A04 fixed branch",
                    "adapt_rates(d=0.59, first half) == (0.4, 0.1, 0.0) exactly")


def test_benchmarks_match_independent_reimplementation():
    spots = [
        abs(bench.builtin("f1", 2).evaluate((0.0, 0.0))),
        abs(bench.builtin("f2").evaluate((1.0, 1.0))),
        abs(bench.builtin("f8").evaluate((0.0, -1.0)) - 3.0),
        abs(bench.builtin("f12", 50).evaluate((0.0,) * 50) - 4.44e-16),
    ]
    spot_ok = (spots[0] == 0.0 and spots[1] == 0.0
               and spots[2] <= 1e-12 and spots[3] <= 1e-18)
    mismatches = 0
    for name in bench.problem_names():
        problem = bench.builtin(name)
        ref = REF_BENCH[name]
        rng = random.Random(hash(name) & 0xFFFF)
        for _ in range(10_000):
            point = [rng.uniform(problem.lower, problem.upper)
                     for _ in range(problem.dim)]
            if problem.evaluate(point) != ref(point):
                mismatches += 1
    ok = spot_ok and mismatches == 0
    assert _verdict(ok, "A05 benchmarks",
                    f"pinned values ok={spot_ok}, 1e4 points x 12 functions, "
                    f"{mismatches} mismatches vs second implementation")


def test_sphere_runs_converge_fast():
    t0 = time.perf_counter()
    _, results = _sweep("f1", 2, EngineConfig())
    elapsed = time.perf_counter() - t0
    hits = sum(abs(r.best.fitness) <= 1e-10 for r in results)
    mean_gen = sum(r.first_best_gen for r in results) / len(results)
    ok = hits >= 19 and mean_gen <= 50.0 and elapsed <= 120.0
    assert _verdict(ok, "A06 f1",
                    f"{hits}/20 runs at |f|<=1e-10, mean first-best gen "
                    f"{mean_gen:.2f} (cap 50) in {elapsed:.1f}s")


def test_rosenbrock_runs_converge():
    _, results = _sweep("f2", None, EngineConfig())
    hits = sum(abs(r.best.fitness) <= 1e-6 for r in results)
    ok = hits >= 18
    assert _verdict(ok, "A07 f2", f"{hits}/20 runs at |f|<=1e-6 (need 18)")


def test_goldstein_price_runs_converge():
    _, results = _sweep("f8", None, EngineConfig())
    winners = [r for r in results if r.best.fitness <= 3.0 + 1e-6]
    mean_gen = (sum(r.first_best_gen for r in winners) / len(winners)
                if winners else float("inf"))
    ok = len(winners) >= 16 and mean_gen <= 200.0
    assert _verdict(ok, "A08 f8",
                    f"{len(winners)}/20 runs at f<=3+1e-6 (need 16), mean "
                    f"first-best gen {mean_gen:.1f} among winners (cap 200)")


def test_rippled_line_peak_is_found():
    _, results = _sweep("f7", None, EngineConfig(max_gen=100))
    best = max(r.best.fitness for r in results)
    ok = best >= 2.8499
    assert _verdict(ok, "A09 f7", f"max best over 20 runs = {best:.6g} (need >= 2.8499)")


def test_high_dim_weighted_sphere_converges():
    t0 = time.perf_counter()
    _, results = _sweep("f9", 30, EngineConfig())
    elapsed = time.perf_counter() - t0
    hits = sum(abs(r.best.fitness) <= 1e-10 for r in results)
    ok = hits >= 14 and elapsed <= 600.0
    assert _verdict(ok, "A10 f9 D30",
                    f"{hits}/20 runs at |f|<=1e-10 (need 14) in {elapsed:.1f}s")


def test_adaptive_rates_no_worse_than_fixed_rates():
    problem = bench.builtin("f8")
    curves = {}
    for mode in ("adaptive", "baseline"):
        cfg = EngineConfig(max_gen=200, mode=mode)
        results = [evolve.run(problem, cfg, seed=s) for s in SEEDS]
        curves[mode] = [
            sum(r.trace[min(g, len(r.trace) - 1)].best_fitness for r in results) / 20
            for g in (0, 50, 100, 150, 200)
        ]
    a, b = curves["adaptive"][-1], curves["baseline"][-1]
    ok = a <= b
    fmt = lambda xs: "[" + ", ".join(f"{x:.4f}" for x in xs) + "]"
    assert _verdict(ok, "A11 adaptive vs fixed",
                    f"mean best by gen [0,50,100,150,200]: adaptive "
                    f"{fmt(curves['adaptive'])} vs baseline {fmt(curves['baseline'])}; "
                    f"at 200: {a:.4f} <= {b:.4f}")


def test_cli_is_deterministic(tmp_path):
    blobs = []
    for sub in ("first", "second"):
        d = tmp_path / sub
        d.mkdir()
        rc = cli.main([
            "run", "--problem", "f3", "--seed", "42",
            "--runs", "2", "--generations", "30",
            "--trace", str(d / "trace.csv"), "--summary", str(d / "summary.csv"),
        ])
        assert rc == 0
        blobs.append(((d / "trace.csv").read_bytes(),
                      (d / "summary.csv").read_bytes()))
    ok = blobs[0] == blobs[1]
    assert _verdict(ok, "A12 determinism",
                    "two identical f3 seed-42 invocations produced "
                    f"byte-identical CSVs: {ok}")


def test_engine_trace_invariants_hold(monkeypatch):
    sizes = []
    build = evolve.Engine.build_temp_population

    def recording(self, parents, rates):
        temp = build(self, parents, rates)
        sizes.append(len(temp))
        return temp

    monkeypatch.setattr(evolve.Engine, "build_temp_population", recording)
    problem = bench.builtin("f4")
    cfg = EngineConfig(max_gen=200, termination_tol=None)
    result = evolve.run(problem, cfg, seed=SEED_BASE)
    rows = result.trace
    eps = 1e-9
    temp_ok = sizes == [5 * cfg.pop_size] * 200
    bests = [r.best_fitness for r in rows]
    monotone_ok = all(b <= a for a, b in zip(bests, bests[1:]))
    gate_ok = all(r.r_c == 0.0 for r in rows if r.generation <= 100)
    range_ok = all(
        (r.p_c == 0.4 or 0.1 - eps <= r.p_c <= 0.3 + eps)
        and 0.05 - eps <= r.p_m <= 0.25 + eps
        and -eps <= r.r_c <= 0.5 + eps
        and 0.0 <= r.diversity_d <= 1.0
        for r in rows
    )
    ok = temp_ok and monotone_ok and gate_ok and range_ok
    assert _verdict(ok, "A13 engine invariants",
                    f"200-gen f4 run: temp 5N={temp_ok}, best monotone={monotone_ok}, "
                    f"r_c gated={gate_ok}, rates in range={range_ok}")
