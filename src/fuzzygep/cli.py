"""Command-line experiment harness.

Two subcommands: `run` executes repeated seeded runs of one benchmark, `bench`
sweeps the whole suite.  Both write a trace CSV (one row per generation per
run) and a summary CSV (one row per problem).  Identical invocations produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from operator import attrgetter

from . import bench, evolve


def _columns(row_type):
    """A dataclass's fields as a CSV header, and a getter of their values."""
    names = [f.name for f in fields(row_type)]
    return ",".join(names), attrgetter(*names)


_TRACE_COLUMNS, _trace_values = _columns(evolve.TraceRow)
TRACE_HEADER = "run," + _TRACE_COLUMNS


class ConfigError(Exception):
    pass


@dataclass
class ExperimentConfig:
    problem: str
    dim: int | None = None
    pop_size: int = evolve.EngineConfig.pop_size
    generations: int = evolve.EngineConfig.max_gen
    runs: int = 50
    seed: int = 0
    mode: str = evolve.EngineConfig.mode
    tolerance: float = 1e-6
    termination_tolerance: float | None = evolve.EngineConfig.termination_tol
    trace_path: str = "trace.csv"
    summary_path: str = "summary.csv"

    def engine_config(self) -> evolve.EngineConfig:
        """The settings of each run; EngineConfig checks them."""
        return evolve.EngineConfig(pop_size=self.pop_size, max_gen=self.generations,
                                   mode=self.mode, termination_tol=self.termination_tolerance)


@dataclass
class Summary:
    problem: str
    dim: int
    mode: str
    runs: int
    best: float
    mean_best: float
    variance: float
    success_rate: float
    mean_gens_to_best: float


SUMMARY_HEADER, _summary_values = _columns(Summary)


def _parse_termination(value: str):
    if value.lower() == "none":
        return None
    return float(value)


# argparse names the type in its error: "invalid float|none value: 'tight'"
_parse_termination.__name__ = "float|none"


# every key is also a flag; --help and argparse errors list them in this order
_CONFIG_COERCERS = {
    "problem": str,
    "dim": int,
    "trace": str,
    "summary": str,
    "pop_size": int,
    "generations": int,
    "runs": int,
    "seed": int,
    "mode": str,
    "tolerance": float,
    "termination_tolerance": _parse_termination,
}

# keys that choose one problem and its files, which bench sets per problem
_RUN_ONLY_KEYS = ("problem", "dim", "trace", "summary")


def parse_config_file(path: str) -> dict:
    """key = value lines; '#' starts a comment; errors carry file:line."""
    try:
        # utf-8-sig: a byte-order mark, as some editors write, is not part of the first key
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    data: dict = {}
    line_of: dict[str, int] = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key = key.strip()
        value = value.strip()
        coerce = _CONFIG_COERCERS.get(key)
        if coerce is None:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in line_of:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r} "
                              f"(first set on line {line_of[key]})")
        line_of[key] = lineno
        try:
            data[key] = coerce(value)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad value {value!r} for {key}") from None
    return data


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    """Every config key is also a flag (pop_size is --pop-size), absent from
    the namespace unless given: "--termination-tolerance none" still wins."""
    parser = _Parser(prog="fuzzygep", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="repeated seeded runs of one problem")
    bench_p = sub.add_parser("bench", help="run the whole 12-problem suite")
    bench_p.add_argument("--out-dir", default="results")
    for key, coerce in _CONFIG_COERCERS.items():
        for p in (run_p,) if key in _RUN_ONLY_KEYS else (run_p, bench_p):
            p.add_argument("--" + key.replace("_", "-"), type=coerce, default=argparse.SUPPRESS)
    for p in (run_p, bench_p):
        p.add_argument("--config", default=None)
    return parser


# config keys named after something other than their ExperimentConfig field
_FIELD_OF_KEY = {"trace": "trace_path", "summary": "summary_path"}


def _experiment(args, data: dict, **fixed) -> ExperimentConfig:
    """The one place an ExperimentConfig is built and checked.

    For each config key, a flag wins over the config file, which wins over
    the ExperimentConfig default; `fixed` fields win over all three.
    """
    flags = {key: value for key, value in vars(args).items() if key in _CONFIG_COERCERS}
    values = {_FIELD_OF_KEY.get(key, key): value for key, value in {**data, **flags}.items()}
    values.update(fixed)
    if values.get("problem") is None:
        raise ConfigError("no problem selected; pass --problem or set it in the config file")
    cfg = ExperimentConfig(**values)
    validate_experiment(cfg)
    if args.config is not None:  # emptying an output file must not erase the config
        for path in (cfg.trace_path, cfg.summary_path):
            if os.path.realpath(path) == os.path.realpath(args.config):
                raise ConfigError(f"an output file is the config file: {path}")
    return cfg


def experiment_from_args(args) -> ExperimentConfig:
    """The experiment of `fuzzygep run`."""
    return _experiment(args, parse_config_file(args.config) if args.config else {})


def bench_experiments(args, out_dir: str) -> list[ExperimentConfig]:
    """One experiment per problem for `fuzzygep bench`; a config file may
    not name a problem, a dimension or output files, which bench chooses."""
    data = parse_config_file(args.config) if args.config else {}
    for key in _RUN_ONLY_KEYS:
        if key in data:
            raise ConfigError(f"{args.config}:{key}: bench runs every problem at its default "
                              f"dimension into --out-dir; remove this key")
    return [
        _experiment(args, data, problem=name,
                    trace_path=os.path.join(out_dir, f"{name}_trace.csv"),
                    summary_path=os.path.join(out_dir, "summary.csv"))
        for name in bench.problem_names()
    ]


def validate_experiment(cfg: ExperimentConfig):
    """Checks of what EngineConfig does not name (generations is its max_gen), then its own."""
    if cfg.runs < 1:
        raise ConfigError("runs must be at least 1")
    if cfg.generations < 1:
        raise ConfigError("generations must be at least 1")
    if cfg.seed < 0:  # random.Random(-s) draws as random.Random(s), so runs would repeat
        raise ConfigError("seed must be non-negative")
    if not cfg.tolerance >= 0.0:  # NaN fails too
        raise ConfigError("tolerance must be non-negative")
    if os.path.realpath(cfg.trace_path) == os.path.realpath(cfg.summary_path):
        raise ConfigError(f"--trace and --summary name the same file: {cfg.summary_path}")
    try:
        cfg.engine_config()
        bench.builtin(cfg.problem, cfg.dim)
    except ValueError as err:
        raise ConfigError(str(err)) from None


def _check_outputs(paths):
    """Open each output file before any run starts, so that a missing
    directory or a read-only file fails at once rather than after all the
    compute; append mode leaves an existing file as it is."""
    for path in paths:
        with open(path, "a", encoding="utf-8"):
            pass


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


def _csv_line(values) -> str:
    return ",".join(map(_fmt, values)) + "\n"


def _write_csv(path: str, header: str, chunks):
    """Write the header, then each chunk as it comes, flushed so a killed process keeps it."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        print(header, file=fh, flush=True)
        for chunk in chunks:
            print(chunk, end="", file=fh, flush=True)


def write_trace(path: str, traces):
    _write_csv(path, TRACE_HEADER, (
        "".join(f"{run_idx},{_csv_line(_trace_values(row))}" for row in rows)
        for run_idx, rows in enumerate(traces)))


def write_summary(path: str, summaries):
    _write_csv(path, SUMMARY_HEADER, (_csv_line(_summary_values(s)) for s in summaries))


# a run succeeds when its best is within --tolerance of the known optimum
succeeded = bench.reached_optimum


def summarize(problem: bench.Problem, cfg: ExperimentConfig, results) -> Summary:
    bests = [r.best.fitness for r in results]
    # the engine's ranking: best first, and inf for every non-finite fitness
    winner = min((r.best for r in results), key=attrgetter("rank"))
    best = winner.fitness if math.isfinite(winner.rank) else float("nan")
    mean_best = evolve.plain_sum(bests) / len(bests)
    variance = evolve.plain_sum((b - mean_best) ** 2 for b in bests) / len(bests)
    winners = [r for r in results if succeeded(problem, cfg.tolerance, r.best.fitness)]
    success_rate = len(winners) / len(results)
    if winners:
        mean_gens = sum(r.first_best_gen for r in winners) / len(winners)
    else:
        mean_gens = float("nan")
    return Summary(problem.name, problem.dim, cfg.mode, len(results),
                   best, mean_best, variance, success_rate, mean_gens)


def run_experiment(cfg: ExperimentConfig) -> Summary:
    """Execute cfg.runs seeded runs, writing each run's trace rows as it ends."""
    problem = bench.builtin(cfg.problem, cfg.dim)
    engine_cfg = cfg.engine_config()
    results = []

    def traces():
        for i in range(cfg.runs):
            result = evolve.run(problem, engine_cfg, seed=cfg.seed + i)
            results.append(replace(result, trace=[]))  # summarize reads no trace
            yield result.trace

    write_trace(cfg.trace_path, traces())
    return _report(summarize(problem, cfg, results))


def _report(s: Summary) -> Summary:
    """Print the problem's one-line result. The lines are progress and the
    CSV files the product, so a closed stdout does not stop the runs."""
    try:
        print(f"{s.problem} dim={s.dim} mode={s.mode} runs={s.runs} "
              f"best={s.best:.6g} mean={s.mean_best:.6g} "
              f"success={s.success_rate:.0%} mean_gens={s.mean_gens_to_best:.6g}", flush=True)
    except BrokenPipeError:
        # stdout's reader has gone: point stdout at os.devnull, so that the
        # later lines and the interpreter's final flush raise nothing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return s


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "run":
            experiments = [experiment_from_args(args)]
        else:
            experiments = bench_experiments(args, args.out_dir)
            os.makedirs(args.out_dir, exist_ok=True)
        summary_path = experiments[0].summary_path  # bench gives every problem the same one
        paths = [cfg.trace_path for cfg in experiments] + [summary_path]
        _check_outputs(paths)
        for path in paths:  # so no file of an earlier invocation outlives an interrupt
            open(path, "wb").close()
        write_summary(summary_path, (run_experiment(cfg) for cfg in experiments))
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130  # 128 + SIGINT, as a shell reports a process that Ctrl-C ended
    return 0
