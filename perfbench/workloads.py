"""The benchmark's workloads, their correctness checks and their timings.

Every workload is one process with no threads. Its inputs are the engine
seeds, derived from the workload seed; the package receives only those.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
import statistics
import struct
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field

import calibrate
from fuzzygep import bench, cli, evolve

TOLERANCE = 1e-6  # success tolerance, the cli default
PASSES = 4  # every workload runs its seed list this many times

# the original method, so checks made inside a traced pass open no span
_evaluate = bench.Problem.evaluate


@dataclass
class Tally:
    """What a measured section did. Its passes repeat the same seeds.

    Before each run the machine's speed is sampled (calibrate.sample), and
    each pass's timings are divided by that pass's speed factor, so runs made
    while other tenants slow the machine down compare with runs made while
    it is quiet. The median over passes then keeps one disturbed pass from
    moving the result."""

    attempted: int = 0
    failed: int = 0
    checked: int = 0  # runs that finished and passed every per-run check
    runs: dict = field(default_factory=dict)  # (problem, seed) -> (generations, success, off box)
    pass_wall_s: list = field(default_factory=list)  # excluding speed samples
    pass_run_s: list = field(default_factory=list)  # time inside Engine.run
    pass_speed: list = field(default_factory=list)  # speed samples, per pass
    digests: list = field(default_factory=list)
    # off in the traced pass, where suite-sweep's samples would land in a cli span
    sample_speed: bool = True

    def fail(self, message: str):
        self.failed += 1
        print(f"check failed: {message}", file=sys.stderr)

    def timed(self, run):
        """Sample the machine's speed, then call run() and time it."""
        if self.sample_speed:
            self.pass_speed[-1].append(calibrate.sample())
        t0 = time.perf_counter()
        try:
            return run()
        finally:
            self.pass_run_s[-1] += time.perf_counter() - t0

    @contextlib.contextmanager
    def pass_timer(self):
        self.pass_run_s.append(0.0)
        self.pass_speed.append([])
        start = time.perf_counter()
        try:
            yield
        finally:
            self.pass_wall_s.append(time.perf_counter() - start - sum(self.pass_speed[-1]))

    def speed_factors(self) -> list:
        """Per pass: how much slower than the reference machine this one ran."""
        return [statistics.fmean(s) / calibrate.NOMINAL_S if s else 1.0 for s in self.pass_speed]

    def gens_per_s(self, raw: bool = False) -> float:
        """Generations of one pass over the median Engine.run time of a pass."""
        gens = sum(g for g, _, _ in self.runs.values())
        factors = [1.0] * len(self.pass_run_s) if raw else self.speed_factors()
        seconds = statistics.median(t / f for t, f in zip(self.pass_run_s, factors))
        return gens / seconds if seconds else 0.0

    def wall_s(self, raw: bool = False) -> float:
        factors = [1.0] * len(self.pass_wall_s) if raw else self.speed_factors()
        return statistics.median(t / f for t, f in zip(self.pass_wall_s, factors))

    def share(self, column: int) -> float:
        return sum(r[column] for r in self.runs.values()) / len(self.runs) if self.runs else 0.0


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _rank(direction: str, fitness: float):
    """Order key of the engine: finite before non-finite, better first."""
    if not math.isfinite(fitness):
        return (1, 0.0)
    return (0, fitness if direction == "minimize" else -fitness)


def run_errors(problem: bench.Problem, result) -> list[str]:
    """Per-run checks; an empty list means the run is correct."""
    errors = []
    best = result.best
    try:
        again = _evaluate(problem, best.point)
    except (OverflowError, ValueError):
        again = float("nan")
    if (math.isfinite(again) or math.isfinite(best.fitness)) and _bits(again) != _bits(best.fitness):
        errors.append(f"evaluate(best.point) = {again!r} but best.fitness = {best.fitness!r}")
    if len(result.trace) != result.generations + 1:
        errors.append(f"{len(result.trace)} trace rows for {result.generations} generations")
    for prev, row in zip(result.trace, result.trace[1:]):
        if _rank(problem.direction, row.best_fitness) > _rank(problem.direction, prev.best_fitness):
            errors.append(f"best fitness worsened at generation {row.generation}")
            break
    return errors


def off_box(problem: bench.Problem, point) -> bool:
    return not all(problem.lower <= x <= problem.upper for x in point)


def record(tally: Tally, problem: bench.Problem, result, label: str):
    errors = run_errors(problem, result)
    for error in errors:
        tally.fail(f"{label} {problem.name} seed {result.seed}: {error}")
    if errors:
        return
    tally.checked += 1
    tally.runs[problem.name, result.seed] = (
        result.generations,
        cli.succeeded(problem, TOLERANCE, result.best.fitness),
        off_box(problem, result.best.point),
    )


def digest_files(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


@dataclass(frozen=True)
class EngineWorkload:
    """Engine.run on one problem, fixed generations, no early stop."""

    name: str
    problem: str
    dim: int
    generations: int
    runs_per_second: float  # distinct runs per second of --seconds; each runs once a pass
    reference_runs: int  # engine seeds 1..reference_runs open every seed list
    pop_size: int = 100

    def engine_seeds(self, seed: int, seconds: float) -> list[int]:
        """Fixed reference seeds, then seeds drawn from the workload seed."""
        drawn = max(1, round(seconds * self.runs_per_second) - self.reference_runs)
        base = random.Random(f"{self.name}/{seed}").randrange(1_000_000, 2**31)
        return list(range(1, self.reference_runs + 1)) + [base + i for i in range(drawn)]

    def success_rate(self, tally: Tally) -> float:
        """Share of the reference runs that reached the optimum, so that it
        does not move with the workload seed, only with behaviour."""
        refs = [tally.runs[self.problem, s] for s in range(1, self.reference_runs + 1)
                if (self.problem, s) in tally.runs]
        return sum(r[1] for r in refs) / self.reference_runs

    def setup_argv(self, seeds) -> list[str]:
        return ["run", "--problem", self.problem, "--dim", str(self.dim),
                "--pop-size", str(self.pop_size), "--generations", str(self.generations),
                "--seed", str(seeds[0])]

    def _config(self):
        return evolve.EngineConfig(pop_size=self.pop_size, max_gen=self.generations,
                                   termination_tol=None)

    def run_pass(self, seeds, out_dir: str, tally: Tally, label: str):
        """One pass over the seeds, then the CSVs as `fuzzygep run` writes them."""
        out_dir = tempfile.mkdtemp(dir=out_dir)
        with tally.pass_timer():
            problem = bench.builtin(self.problem, self.dim)
            cfg = self._config()
            results = []
            for seed in seeds:
                tally.attempted += 1
                try:
                    engine = evolve.Engine(problem, cfg, seed)
                    result = tally.timed(engine.run)
                except Exception:
                    traceback.print_exc()
                    tally.fail(f"{label} {self.problem} seed {seed} raised")
                    continue
                record(tally, problem, result, label)
                results.append(result)
            exp = cli.ExperimentConfig(
                problem=self.problem, dim=self.dim, pop_size=self.pop_size,
                generations=self.generations, runs=len(seeds), seed=seeds[0],
                tolerance=TOLERANCE, termination_tolerance=None,
                trace_path=os.path.join(out_dir, "trace.csv"),
                summary_path=os.path.join(out_dir, "summary.csv"))
            cli.write_trace(exp.trace_path, [r.trace for r in results])
            cli.write_summary(exp.summary_path, [cli.summarize(problem, exp, results)])
        tally.digests.append(digest_files([exp.trace_path, exp.summary_path]))


@dataclass(frozen=True)
class SuiteWorkload:
    """`fuzzygep bench` over all twelve problems, short multi-run settings."""

    name: str
    generations: int
    pop_size: int
    seconds_per_run: float  # --runs is --seconds over this, at least 1

    def engine_seeds(self, seed: int, seconds: float) -> list[int]:
        runs = max(1, round(seconds / self.seconds_per_run))
        base = random.Random(f"{self.name}/{seed}").randrange(1, 2**31)
        return [base + i for i in range(runs)]

    def argv(self, seeds, out_dir: str) -> list[str]:
        return ["bench", "--out-dir", out_dir, "--runs", str(len(seeds)),
                "--generations", str(self.generations), "--pop-size", str(self.pop_size),
                "--seed", str(seeds[0])]

    def setup_argv(self, seeds) -> list[str]:
        return self.argv(seeds, "unused")

    def success_rate(self, tally: Tally) -> float:
        return tally.share(1)

    def run_pass(self, seeds, out_dir: str, tally: Tally, label: str):
        out_dir = tempfile.mkdtemp(dir=out_dir)
        expected = len(seeds) * len(bench.problem_names())
        tally.attempted += expected
        checked_before, failed_before = tally.checked, tally.failed
        inner = evolve.run  # cli calls evolve.run through the module

        def probe(problem, cfg=None, seed=0):
            result = tally.timed(lambda: inner(problem, cfg, seed))
            record(tally, problem, result, label)
            return result

        evolve.run = probe
        try:
            with tally.pass_timer(), contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(self.argv(seeds, out_dir))
        except Exception:
            traceback.print_exc()
            code = -1
        finally:
            evolve.run = inner
        files = [os.path.join(out_dir, f"{name}_trace.csv") for name in bench.problem_names()]
        files.append(os.path.join(out_dir, "summary.csv"))
        missing = [f for f in files if not os.path.exists(f)]
        ok_runs = tally.checked - checked_before
        if code != 0 or missing:
            # the pass's files are not what the user asked for: no run counts
            ok_runs = 0
        if ok_runs != expected:
            tally.failed = failed_before + expected - ok_runs
            print(f"check failed: {label} pass exited {code}, {ok_runs}/{expected} runs ok, "
                  f"missing {missing}", file=sys.stderr)
            return
        tally.digests.append(digest_files(files))


WORKLOADS = {
    w.name: w
    for w in (
        EngineWorkload("f9-d30", "f9", 30, generations=40, runs_per_second=0.19, reference_runs=3),
        EngineWorkload("f8-d2", "f8", 2, generations=100, runs_per_second=0.31, reference_runs=5),
        SuiteWorkload("suite-sweep", generations=10, pop_size=50, seconds_per_run=5.0),
    )
}
