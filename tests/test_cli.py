"""Harness tests: flag/config parsing, CSV output, determinism, exit codes."""

import itertools
import math
import os
import struct
import subprocess
import sys

import oracles
import pytest

import fuzzygep
from fuzzygep import bench, cli
from fuzzygep.evolve import Individual, RunResult

TRACE_HEADER = "run,generation,best_fitness,avg_fitness,diversity_d,p_c,p_m,r_c,constant_reset"
SUMMARY_HEADER = "problem,dim,mode,runs,best,mean_best,variance,success_rate,mean_gens_to_best"


def _lines(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def _run_args(tmp_path, *extra):
    return [
        "run",
        "--trace", str(tmp_path / "trace.csv"),
        "--summary", str(tmp_path / "summary.csv"),
        *extra,
    ]


# a fresh interpreter started with this environment imports the package from this source tree
FRESH_ENV = {**os.environ,
             "PYTHONPATH": os.path.dirname(os.path.dirname(os.path.abspath(fuzzygep.__file__)))}


def _fresh_python(*args):
    """Run a fresh interpreter that imports the package from this source tree."""
    return subprocess.run([sys.executable, *args], env=FRESH_ENV, capture_output=True, text=True)


def test_package_imports_without_numpy():
    """The package has no runtime dependency: importing it and its command
    line in a fresh interpreter loads no numpy."""
    out = _fresh_python("-c", "import sys, fuzzygep, fuzzygep.cli; print('numpy' in sys.modules)")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_module_entry_point_exit_codes(tmp_path):
    """`python -m fuzzygep` hands main's return value to the shell: 0 after
    a run that writes both files, 1 on a usage error, 2 on an I/O error."""
    ok = _fresh_python("-m", "fuzzygep", *_run_args(
        tmp_path, "--problem", "f1", "--runs", "1", "--generations", "5", "--pop-size", "10"))
    assert ok.returncode == 0, ok.stderr
    assert _lines(tmp_path / "trace.csv")[0] == TRACE_HEADER
    assert _lines(tmp_path / "summary.csv")[0] == SUMMARY_HEADER
    # an uncaught exception also exits 1, so each failure must be main's own
    usage = _fresh_python("-m", "fuzzygep")
    assert usage.returncode == 1 and usage.stderr.startswith("error:"), usage.stderr
    missing_dir = _fresh_python("-m", "fuzzygep", "run", "--problem", "f1",
                                "--trace", str(tmp_path / "absent" / "trace.csv"),
                                "--summary", str(tmp_path / "summary2.csv"))
    assert missing_dir.returncode == 2 and missing_dir.stderr.startswith("error:"), missing_dir.stderr


def test_star_import_resolves_every_export():
    """A name left in __all__ after its definition is gone fails here."""
    namespace = {}
    exec("from fuzzygep import *", namespace)
    assert [name for name in fuzzygep.__all__ if name not in namespace] == []


# --- parsing ---------------------------------------------------------------


def test_run_flags_reach_config(tmp_path):
    args = cli.build_parser().parse_args(_run_args(
        tmp_path, "--problem", "f1", "--dim", "5", "--pop-size", "30",
        "--generations", "12", "--runs", "3", "--seed", "9",
        "--mode", "baseline", "--tolerance", "0.5"))
    cfg = cli.experiments(args)[0]
    assert cfg.problem == "f1"
    assert cfg.dim == 5
    assert cfg.pop_size == 30
    assert cfg.generations == 12
    assert cfg.runs == 3
    assert cfg.seed == 9
    assert cfg.mode == "baseline"
    assert cfg.tolerance == 0.5
    assert cfg.termination_tolerance == 1e-12
    assert cfg.trace_path.endswith("trace.csv")


def test_defaults_when_only_problem_given(tmp_path):
    args = cli.build_parser().parse_args(_run_args(tmp_path, "--problem", "f2"))
    cfg = cli.experiments(args)[0]
    assert (cfg.pop_size, cfg.generations, cfg.runs, cfg.seed) == (100, 1000, 50, 0)
    assert cfg.mode == "adaptive"
    assert cfg.tolerance == 1e-6
    assert cli.build_parser().parse_args(["bench"]).out_dir == "results"


def test_config_file_supplies_values(tmp_path):
    conf = tmp_path / "exp.conf"
    conf.write_text(
        "# sphere smoke\n"
        "problem = f1\n"
        "pop_size = 24   # small on purpose\n"
        "runs = 2\n"
        "seed = 7\n"
        "termination_tolerance = none\n"
        "\n"
        "trace = {0}\n"
        "summary = {1}\n".format(tmp_path / "t.csv", tmp_path / "s.csv"))
    args = cli.build_parser().parse_args(["run", "--config", str(conf)])
    cfg = cli.experiments(args)[0]
    assert cfg.problem == "f1"
    assert cfg.pop_size == 24
    assert cfg.runs == 2
    assert cfg.seed == 7
    assert cfg.termination_tolerance is None
    assert cfg.trace_path == str(tmp_path / "t.csv")


def test_flags_override_config_file(tmp_path):
    conf = tmp_path / "exp.conf"
    conf.write_text("problem = f1\npop_size = 30\nseed = 7\n")
    args = cli.build_parser().parse_args(_run_args(
        tmp_path, "--config", str(conf), "--pop-size", "12"))
    cfg = cli.experiments(args)[0]
    assert cfg.pop_size == 12   # flag wins
    assert cfg.seed == 7        # file fills the gap


# for each config key: flag text and the parsed value, which is not the default
FLAG_VALUES = {
    "problem": ("f9", "f9"), "dim": ("5", 5), "pop_size": ("12", 12),
    "generations": ("7", 7), "runs": ("3", 3), "seed": ("9", 9),
    "mode": ("baseline", "baseline"), "tolerance": ("0.5", 0.5),
    "termination_tolerance": ("none", None), "trace": ("t.csv", "t.csv"),
    "summary": ("s.csv", "s.csv"),
}


@pytest.mark.parametrize("key", list(cli._CONFIG_COERCERS))
def test_every_config_key_is_a_flag(tmp_path, key):
    text, value = FLAG_VALUES[key]
    flag = "--" + key.replace("_", "-")
    field = cli._FIELD_OF_KEY.get(key, key)
    assert getattr(cli.ExperimentConfig("f1"), field) != value
    problem = [] if key == "problem" else ["--problem", "f9"]
    cfg = cli.experiments(cli.build_parser().parse_args(["run", *problem, flag, text]))[0]
    assert getattr(cfg, field) == value
    if key in cli._RUN_ONLY_KEYS:
        with pytest.raises(cli.ConfigError, match="unrecognized arguments"):
            cli.build_parser().parse_args(["bench", flag, text])
    else:
        args = cli.build_parser().parse_args(["bench", "--out-dir", str(tmp_path), flag, text])
        assert all(getattr(e, field) == value for e in cli.experiments(args))


@pytest.mark.parametrize("value, expected", [("1e-3", 1e-3), ("none", None)])
def test_termination_tolerance_flag_overrides_config(tmp_path, value, expected):
    conf = tmp_path / "exp.conf"
    conf.write_text("problem = f1\ntermination_tolerance = 0.5\n")
    for command in (["run"], ["bench"]):
        args = cli.build_parser().parse_args(
            command + ["--config", str(conf), "--termination-tolerance", value])
        assert args.termination_tolerance == expected
    cfg = cli.experiments(cli.build_parser().parse_args(_run_args(
        tmp_path, "--config", str(conf), "--termination-tolerance", value)))[0]
    assert cfg.termination_tolerance == expected


def test_termination_tolerance_flag_reaches_the_engine(tmp_path):
    # any finite best is within 1e300 of f1's optimum, so that run stops
    # before generation 1; "none" runs all five (rows count the header)
    for value, rows in (("1e300", 2), ("none", 7)):
        argv = _run_args(tmp_path, "--problem", "f1", "--pop-size", "10", "--generations", "5",
                         "--runs", "1", "--termination-tolerance", value)
        assert cli.main(argv) == 0
        assert len(_lines(tmp_path / "trace.csv")) == rows


def test_termination_tolerance_flag_bad_value(tmp_path, capsys):
    argv = _run_args(tmp_path, "--problem", "f1", "--termination-tolerance", "tight")
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "argument --termination-tolerance: invalid float|none value: 'tight'" in err
    assert "_parse_termination" not in err
    argv = _run_args(tmp_path, "--problem", "f1", "--termination-tolerance", "-1")
    assert cli.main(argv) == 1


def test_config_file_unknown_key(tmp_path):
    conf = tmp_path / "exp.conf"
    conf.write_text("problem = f1\npopulation = 30\n")
    with pytest.raises(cli.ConfigError, match=r"exp\.conf:2: unknown key"):
        cli.parse_config_file(str(conf))


def test_config_file_duplicate_key(tmp_path, capsys):
    conf = tmp_path / "exp.conf"
    conf.write_text("problem = f1\nruns = 5\n\nruns = 1\n")
    with pytest.raises(cli.ConfigError,
                       match=r"exp\.conf:4: duplicate key 'runs' \(first set on line 2\)"):
        cli.parse_config_file(str(conf))
    assert cli.main(_run_args(tmp_path, "--config", str(conf))) == 1
    assert not (tmp_path / "trace.csv").exists()


def test_config_file_bad_value(tmp_path):
    conf = tmp_path / "exp.conf"
    conf.write_text("problem = f1\n\nruns = many\n")
    with pytest.raises(cli.ConfigError, match=r"exp\.conf:3: bad value 'many'"):
        cli.parse_config_file(str(conf))


def test_config_file_missing_equals(tmp_path):
    conf = tmp_path / "exp.conf"
    conf.write_text("problem f1\n")
    with pytest.raises(cli.ConfigError, match=r"exp\.conf:1: expected 'key = value'"):
        cli.parse_config_file(str(conf))


def test_config_file_unreadable():
    with pytest.raises(cli.ConfigError, match="cannot read config"):
        cli.parse_config_file("/no/such/file.conf")


def test_config_file_not_utf8_exits_1_before_any_run(tmp_path, capsys, monkeypatch):
    calls = _refuse_runs(monkeypatch)
    conf = tmp_path / "bad.cfg"
    conf.write_bytes(b"problem = f1\nruns = \xff\n")
    assert cli.main(_run_args(tmp_path, "--problem", "f1", "--config", str(conf))) == 1
    assert calls == []
    assert f"error: cannot read config {conf}" in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


def test_config_file_with_byte_order_mark_runs(tmp_path, capsys):
    """Some editors start a UTF-8 file with a byte-order mark; it is not
    part of the first key."""
    conf = tmp_path / "bom.cfg"
    conf.write_bytes("\ufeffproblem = f1\nruns = 1\ngenerations = 3\npop_size = 10\n".encode("utf-8"))
    assert cli.parse_config_file(str(conf)) == {"problem": "f1", "runs": 1, "generations": 3,
                                                "pop_size": 10}
    assert cli.main(_run_args(tmp_path, "--config", str(conf))) == 0, capsys.readouterr().err
    assert _lines(tmp_path / "trace.csv")[0] == TRACE_HEADER
    assert _lines(tmp_path / "summary.csv")[1].startswith("f1,2,adaptive,1,")


def _old_summary_best(direction, bests):
    """The summary's best as it was computed before it read the ranks:
    the least or greatest finite fitness, NaN when there is none."""
    finite = [b for b in bests if math.isfinite(b)]
    if not finite:
        return float("nan")
    return min(finite) if direction == "minimize" else max(finite)


@pytest.mark.parametrize("name", ["f1", "f6"])  # minimized, maximized
def test_summary_best_is_the_best_ranked_fitness(name):
    """The summary's best is the fitness of the best-ranked run's best, and
    NaN when no run found a finite one: bit for bit, signed zeros and
    order of ties included, what the old rule gave."""
    problem = bench.builtin(name)
    cfg = cli.ExperimentConfig(name)
    values = (0.0, -0.0, 2.5, -2.5, math.inf, -math.inf, math.nan)
    sets = [list(c) for k in (1, 2, 3) for c in itertools.permutations(values, k)]
    sets += [[math.nan, math.inf, -math.inf], [math.nan], [-math.inf, -math.inf], [-0.0, 0.0, 0.0]]
    for bests in sets:
        results = [RunResult(i, Individual("", (), b, oracles.ref_rank(b, problem.direction)), 0, 1, [], ())
                   for i, b in enumerate(bests)]
        got = cli.summarize(problem, cfg, results).best
        want = _old_summary_best(problem.direction, bests)
        assert struct.pack("<d", got) == struct.pack("<d", want) or math.isnan(got) and math.isnan(want), bests


@pytest.mark.parametrize("kwargs,fragment", [
    (dict(runs=0), "runs"),
    (dict(pop_size=1), "pop_size"),
    (dict(generations=0), "generations"),
    (dict(tolerance=-1.0), "tolerance"),
    (dict(termination_tolerance=-1e-9), "termination_tol"),
    (dict(mode="fuzzy"), "mode"),
    (dict(problem="f99"), "unknown problem"),
    (dict(problem="f2", dim=5), "fixed"),
    (dict(tolerance=float("nan")), "tolerance"),
    (dict(termination_tolerance=float("nan")), "termination_tol"),
    (dict(seed=-1), "seed"),
])
def test_validate_rejects(kwargs, fragment):
    base = dict(problem="f1")
    base.update(kwargs)
    with pytest.raises(cli.ConfigError, match=fragment):
        cli.validate_experiment(cli.ExperimentConfig(**base))


@pytest.mark.parametrize("key", ["tolerance", "termination_tolerance"])
def test_nan_tolerance_exits_1_from_flag_or_config(tmp_path, capsys, key):
    # a NaN tolerance would report no success and a NaN termination
    # tolerance would turn early stopping off, both without a word
    conf = tmp_path / "exp.conf"
    conf.write_text(f"{key} = nan\n")
    base = _run_args(tmp_path, "--problem", "f1", "--runs", "1", "--generations", "3",
                     "--pop-size", "10")
    for extra in (["--" + key.replace("_", "-"), "nan"], ["--config", str(conf)]):
        assert cli.main(base + extra) == 1
        assert f"error: {key} must be non-negative" in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("key, value", [("tolerance", "-1e-3"),
                                        ("termination_tolerance", "-1e-9")])
def test_negative_exponent_tolerance_in_key_value_form_exits_1(tmp_path, capsys, key, value):
    # argparse takes "--tolerance -1e-3" for two flags, so a negative value
    # with an exponent reaches the range check only as --key=value
    argv = _run_args(tmp_path, "--problem", "f1", "--runs", "1", "--generations", "3",
                     "--pop-size", "10", f"--{key.replace('_', '-')}={value}")
    assert cli.main(argv) == 1
    assert f"error: {key} must be non-negative" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_negative_seed_exits_1_before_any_run(tmp_path, capsys):
    # random.Random(-2) draws as random.Random(2) does, so runs 0 and 4 of
    # seeds -2..2 would repeat each other and the summary would count both
    assert cli.main(_run_args(tmp_path, "--problem", "f8", "--runs", "5", "--seed", "-2",
                              "--generations", "3", "--pop-size", "10")) == 1
    assert "error: seed must be non-negative" in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()
    out_dir = tmp_path / "results"
    assert cli.main(["bench", "--out-dir", str(out_dir), "--runs", "1", "--seed", "-1"]) == 1
    assert "error: seed must be non-negative" in capsys.readouterr().err
    assert not out_dir.exists()


# a value each check shared by run and bench refuses, in flag or file syntax
SHARED_CHECKS = [("pop_size", "1"), ("mode", "turbo"), ("termination_tolerance", "-1"),
                 ("runs", "0"), ("generations", "0"), ("tolerance", "nan")]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("key, text", SHARED_CHECKS, ids=[key for key, _ in SHARED_CHECKS])
def test_bench_stops_on_every_shared_check_before_anything_happens(tmp_path, capsys, monkeypatch,
                                                                   key, text, source):
    """bench checks its configs where run does: each bad value, given as a
    flag or in the config file, prints run's error line and exits 1 before
    --out-dir is made or any run starts."""
    calls = _refuse_runs(monkeypatch)
    if source == "flag":
        given = ["--" + key.replace("_", "-"), text]
    else:
        conf = tmp_path / "exp.conf"
        conf.write_text(f"{key} = {text}\n")
        given = ["--config", str(conf)]
    assert cli.main(_run_args(tmp_path, "--problem", "f1", *given)) == 1
    run_err = capsys.readouterr().err
    assert run_err.startswith(f"error: {key} ") and run_err.count("\n") == 1
    out_dir = tmp_path / "results"
    assert cli.main(["bench", "--out-dir", str(out_dir), *given]) == 1
    assert capsys.readouterr().err == run_err
    assert not out_dir.exists()
    assert calls == []


def test_missing_problem_exits_1(tmp_path, capsys):
    assert cli.main(_run_args(tmp_path)) == 1
    assert "no problem selected" in capsys.readouterr().err


def test_unknown_flag_exits_1(tmp_path, capsys):
    rc = cli.main(_run_args(tmp_path, "--problem", "f1", "--bogus"))
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_missing_subcommand_exits_1(capsys):
    assert cli.main([]) == 1


# --- output files -----------------------------------------------------------


def test_fmt_cells():
    assert cli._fmt(True) == "1"
    assert cli._fmt(False) == "0"
    assert cli._fmt(0.1) == "0.1"
    assert cli._fmt(float("nan")) == "nan"
    # str and repr agree on every float, so a float needs no case of its own
    for value, text in [(-0.0, "-0.0"), (math.inf, "inf"), (1e16, "1e+16"), (5e-324, "5e-324")]:
        assert cli._fmt(value) == text == repr(value)
    assert cli._fmt(3) == "3"


def test_run_writes_both_files(tmp_path, capsys):
    rc = cli.main(_run_args(
        tmp_path, "--problem", "f1", "--runs", "2", "--generations", "5",
        "--pop-size", "12", "--seed", "1"))
    assert rc == 0
    trace = _lines(tmp_path / "trace.csv")
    summary = _lines(tmp_path / "summary.csv")
    assert trace[0] == TRACE_HEADER
    assert summary[0] == SUMMARY_HEADER
    assert len(summary) == 2
    cells = summary[1].split(",")
    assert cells[0] == "f1" and cells[1] == "2"
    assert cells[2] == "adaptive" and cells[3] == "2"
    out = capsys.readouterr().out
    assert out.startswith("f1 dim=2 mode=adaptive runs=2 ")


def test_trace_rows_are_contiguous_per_run(tmp_path):
    cli.main(_run_args(
        tmp_path, "--problem", "f3", "--runs", "3", "--generations", "6",
        "--pop-size", "10", "--seed", "4"))
    rows = [line.split(",") for line in _lines(tmp_path / "trace.csv")[1:]]
    by_run: dict[int, list[int]] = {}
    for cells in rows:
        by_run.setdefault(int(cells[0]), []).append(int(cells[1]))
    assert sorted(by_run) == [0, 1, 2]
    for gens in by_run.values():
        assert gens == list(range(len(gens)))  # 0..N with no gaps
        assert len(gens) <= 7
    for cells in rows:
        assert cells[8] in ("0", "1")


def test_baseline_mode_rates_in_trace(tmp_path):
    cli.main(_run_args(
        tmp_path, "--problem", "f3", "--runs", "1", "--generations", "6",
        "--pop-size", "10", "--seed", "2", "--mode", "baseline"))
    rows = [line.split(",") for line in _lines(tmp_path / "trace.csv")[1:]]
    assert rows
    for cells in rows:
        assert (cells[5], cells[6], cells[7]) == ("0.3", "0.2", "0.01")


def test_adaptive_mode_gates_constant_rate(tmp_path):
    cli.main(_run_args(
        tmp_path, "--problem", "f3", "--runs", "1", "--generations", "8",
        "--pop-size", "10", "--seed", "2"))
    rows = [line.split(",") for line in _lines(tmp_path / "trace.csv")[1:]]
    for cells in rows:
        if int(cells[1]) <= 4:
            assert cells[7] == "0.0"


def test_identical_invocations_are_byte_identical(tmp_path):
    outs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        rc = cli.main([
            "run", "--problem", "f3", "--runs", "2", "--generations", "10",
            "--pop-size", "20", "--seed", "42",
            "--trace", str(d / "trace.csv"), "--summary", str(d / "summary.csv"),
        ])
        assert rc == 0
        outs.append(((d / "trace.csv").read_bytes(), (d / "summary.csv").read_bytes()))
    assert outs[0] == outs[1]


def test_summary_matches_trace_replay(tmp_path):
    """Everything in summary.csv must be recomputable from trace.csv alone."""
    tolerance = 1e-6
    cli.main(_run_args(
        tmp_path, "--problem", "f1", "--runs", "4", "--generations", "30",
        "--pop-size", "20", "--seed", "3", "--tolerance", str(tolerance)))
    by_run: dict[int, list[list[str]]] = {}
    for line in _lines(tmp_path / "trace.csv")[1:]:
        cells = line.split(",")
        by_run.setdefault(int(cells[0]), []).append(cells)

    bests, first_gens = [], []
    for run_idx in sorted(by_run):
        rows = by_run[run_idx]
        final = float(rows[-1][2])
        bests.append(final)
        first_gens.append(next(int(r[1]) for r in rows if float(r[2]) == final))

    opt = bench.builtin("f1").known_optimum
    mean_best = sum(bests) / len(bests)
    variance = sum((b - mean_best) ** 2 for b in bests) / len(bests)
    winners = [(b, g) for b, g in zip(bests, first_gens)
               if math.isfinite(b) and abs(b - opt) <= tolerance]
    success_rate = len(winners) / len(bests)
    mean_gens = (sum(g for _, g in winners) / len(winners)
                 if winners else float("nan"))

    cells = _lines(tmp_path / "summary.csv")[1].split(",")
    assert float(cells[4]) == min(bests)
    assert float(cells[5]) == mean_best
    assert float(cells[6]) == variance
    assert float(cells[7]) == success_rate
    if winners:
        assert float(cells[8]) == mean_gens
    else:
        assert math.isnan(float(cells[8]))


def test_unwritable_trace_path_exits_2(tmp_path, capsys):
    rc = cli.main([
        "run", "--problem", "f1", "--runs", "1", "--generations", "1",
        "--pop-size", "4",
        "--trace", str(tmp_path / "missing" / "trace.csv"),
        "--summary", str(tmp_path / "summary.csv"),
    ])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def _refuse_runs(monkeypatch):
    """Make evolve.run fail loudly; returns the list of attempted calls."""
    calls = []

    def refuse(*args, **kwargs):
        calls.append(args)
        raise AssertionError("evolve.run called before the outputs were checked")

    monkeypatch.setattr(cli.evolve, "run", refuse)
    return calls


@pytest.mark.parametrize("flag", ["--trace", "--summary"])
def test_run_checks_outputs_before_any_run(tmp_path, capsys, monkeypatch, flag):
    calls = _refuse_runs(monkeypatch)
    (tmp_path / "trace.csv").write_text("kept\n")
    argv = _run_args(tmp_path, "--problem", "f1", flag, str(tmp_path / "missing" / "out.csv"))
    assert cli.main(argv) == 2
    assert calls == []
    assert "missing" in capsys.readouterr().err
    assert (tmp_path / "trace.csv").read_text() == "kept\n"


@pytest.mark.parametrize("flag, value, message", [
    ("--pop-size", "1", "pop_size must be at least 2"),
    ("--mode", "turbo", "mode must be adaptive or baseline, not 'turbo'"),
    ("--termination-tolerance", "-1", "termination_tolerance must be non-negative"),
], ids=["pop_size", "mode", "termination_tol"])
def test_engine_settings_are_checked_by_the_engine(tmp_path, capsys, monkeypatch,
                                                    flag, value, message):
    """A bad engine setting reaches the user as a configuration error, under
    the key the user typed: EngineConfig's message for pop_size and mode, the
    CLI's own for termination_tolerance, which EngineConfig calls
    termination_tol."""
    calls = _refuse_runs(monkeypatch)
    assert cli.main(_run_args(tmp_path, "--problem", "f1", flag, value)) == 1
    assert f"error: {message}\n" == capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("summary", ["same.csv", "sub/../same.csv"])
def test_run_rejects_one_file_for_trace_and_summary(tmp_path, capsys, monkeypatch, summary):
    """The summary would overwrite the trace, so the run never starts."""
    calls = _refuse_runs(monkeypatch)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "same.csv").write_text("kept\n")
    argv = ["run", "--problem", "f1", "--trace", str(tmp_path / "same.csv"), "--summary", summary]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "--trace" in err and "--summary" in err
    assert calls == []
    assert (tmp_path / "same.csv").read_text() == "kept\n"


@pytest.mark.parametrize("flag", ["--trace", "--summary"])
def test_run_rejects_the_config_file_as_output(tmp_path, capsys, monkeypatch, flag):
    """Emptying the output would erase the config, so the run never starts."""
    calls = _refuse_runs(monkeypatch)
    conf = tmp_path / "my.conf"
    conf.write_text("problem = f1\nruns = 1\n")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    argv = _run_args(tmp_path, "--config", "my.conf", flag, str(tmp_path / "sub" / ".." / "my.conf"))
    assert cli.main(argv) == 1
    assert "config file" in capsys.readouterr().err
    assert calls == []
    assert conf.read_text() == "problem = f1\nruns = 1\n"


# --- bench sweep -----------------------------------------------------------


def test_bench_smoke_covers_all_problems(tmp_path, capsys):
    out_dir = tmp_path / "results"
    rc = cli.main([
        "bench", "--out-dir", str(out_dir),
        "--runs", "1", "--generations", "2", "--pop-size", "10", "--seed", "0",
    ])
    assert rc == 0
    summary = _lines(out_dir / "summary.csv")
    assert summary[0] == SUMMARY_HEADER
    names = [line.split(",")[0] for line in summary[1:]]
    assert names == list(bench.problem_names())
    for name in names:
        assert os.path.exists(out_dir / f"{name}_trace.csv")
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == len(names)


@pytest.mark.parametrize("line", [
    "problem = f1", "dim = 5", "trace = t.csv", "summary = s.csv",
])
def test_bench_rejects_config_keys_it_would_ignore(tmp_path, capsys, line):
    conf = tmp_path / "sweep.conf"
    conf.write_text(f"runs = 1\n{line}\n")
    out_dir = tmp_path / "results"
    rc = cli.main(["bench", "--config", str(conf), "--out-dir", str(out_dir)])
    assert rc == 1
    key = line.split(" = ")[0]
    assert f"sweep.conf:{key}:" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("flag, value", [
    ("--problem", "f1"), ("--dim", "5"), ("--trace", "t.csv"), ("--summary", "s.csv"),
])
def test_bench_rejects_run_only_flags(tmp_path, capsys, flag, value):
    out_dir = tmp_path / "results"
    rc = cli.main(["bench", "--out-dir", str(out_dir), "--runs", "1", flag, value])
    assert rc == 1
    assert flag in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("blocked", ["summary.csv", "f12_trace.csv"])
def test_bench_checks_outputs_before_any_run(tmp_path, capsys, monkeypatch, blocked):
    calls = _refuse_runs(monkeypatch)
    out_dir = tmp_path / "results"
    (out_dir / blocked).mkdir(parents=True)  # a directory where the file must go
    assert cli.main(["bench", "--out-dir", str(out_dir), "--runs", "1"]) == 2
    assert calls == []
    assert blocked in capsys.readouterr().err


def _small_bench(out_dir):
    return ["bench", "--out-dir", str(out_dir), "--runs", "2", "--generations", "5",
            "--pop-size", "10", "--seed", "0"]


@pytest.fixture(scope="module")
def whole_bench(tmp_path_factory):
    """The output directory of an uninterrupted `_small_bench`."""
    out_dir = tmp_path_factory.mktemp("whole")
    assert cli.main(_small_bench(out_dir)) == 0
    return out_dir


def _bench_interrupted_in_f3(monkeypatch, out_dir) -> int:
    """Run `_small_bench`, raising KeyboardInterrupt, as Ctrl-C would, when
    f3's second run starts; main's exit code."""
    inner = cli.evolve.run
    started = []

    def run(problem, cfg=None, seed=0):
        if problem.name == "f3":
            started.append(seed)
            if len(started) == 2:
                raise KeyboardInterrupt
        return inner(problem, cfg, seed)

    monkeypatch.setattr(cli.evolve, "run", run)
    try:
        return cli.main(_small_bench(out_dir))
    except KeyboardInterrupt:  # would stop pytest itself
        pytest.fail("KeyboardInterrupt escaped cli.main")


def _byte_lines(path):
    return path.read_bytes().splitlines(keepends=True)


def test_interrupted_bench_keeps_every_finished_row(tmp_path, capsys, monkeypatch, whole_bench):
    """Rows reach disk as each run and problem ends: after Ctrl-C on f3's
    second run, f1 and f2 are written in full, f3's trace holds run 0, and
    main exits 130 without a traceback."""
    out_dir = tmp_path / "results"
    assert _bench_interrupted_in_f3(monkeypatch, out_dir) == 130
    captured = capsys.readouterr()
    assert captured.err == "error: interrupted\n"
    assert len(captured.out.splitlines()) == 2
    assert _byte_lines(out_dir / "summary.csv") == _byte_lines(whole_bench / "summary.csv")[:3]
    for name in ("f1", "f2"):
        trace = f"{name}_trace.csv"
        assert (out_dir / trace).read_bytes() == (whole_bench / trace).read_bytes()
    f3 = _byte_lines(whole_bench / "f3_trace.csv")
    assert _byte_lines(out_dir / "f3_trace.csv") == [
        line for line in f3 if line.startswith((b"run,", b"0,"))]


def test_interrupted_bench_leaves_no_stale_file(tmp_path, capsys, monkeypatch):
    """Every output file of the invocation is emptied before the first run,
    so no file of an earlier invocation sits next to this one's summary."""
    out_dir = tmp_path / "results"
    out_dir.mkdir()
    outputs = [out_dir / f"{name}_trace.csv" for name in bench.problem_names()]
    outputs.append(out_dir / "summary.csv")
    for path in outputs:
        path.write_text("stale\n")
    assert _bench_interrupted_in_f3(monkeypatch, out_dir) == 130
    assert [path.name for path in outputs if "stale" in path.read_text()] == []


def test_bench_rejects_the_config_file_as_output(tmp_path, capsys, monkeypatch):
    """A config file kept as <out-dir>/summary.csv is never emptied."""
    calls = _refuse_runs(monkeypatch)
    conf = tmp_path / "summary.csv"
    conf.write_text("runs = 1\n")
    assert cli.main(["bench", "--config", str(conf), "--out-dir", str(tmp_path)]) == 1
    assert "config file" in capsys.readouterr().err
    assert calls == []
    assert conf.read_text() == "runs = 1\n"
    assert sorted(os.listdir(tmp_path)) == ["summary.csv"]


def test_closed_stdout_does_not_stop_a_bench(tmp_path):
    """The one-line results are progress and the CSV files the product: a
    bench whose stdout reader has gone finishes every problem, says
    nothing and exits 0."""
    argv = [sys.executable, "-m", "fuzzygep", "bench", "--out-dir", str(tmp_path),
            "--runs", "1", "--generations", "2", "--pop-size", "10"]
    with subprocess.Popen(argv, env=FRESH_ENV, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as child:
        child.stdout.close()  # before the child prints its first line
        err = child.stderr.read()
    assert child.returncode == 0, err
    assert err == b""
    assert len(_lines(tmp_path / "summary.csv")) == 1 + len(bench.problem_names())


def test_bench_takes_shared_keys_from_config(tmp_path):
    conf = tmp_path / "sweep.conf"
    conf.write_text("runs = 2\nseed = 4\npop_size = 12\ntermination_tolerance = none\n")
    args = cli.build_parser().parse_args(
        ["bench", "--out-dir", str(tmp_path), "--config", str(conf), "--seed", "9",
         "--generations", "3"])
    experiments = cli.experiments(args)
    assert [e.problem for e in experiments] == list(bench.problem_names())
    for e in experiments:
        assert (e.runs, e.seed, e.pop_size, e.generations) == (2, 9, 12, 3)
        assert e.termination_tolerance is None and e.dim is None
        assert e.trace_path == str(tmp_path / f"{e.problem}_trace.csv")
