"""The benchmark's span tracer still fits the package.

`perfbench/tracer.py` wraps package functions by name where their callers
look them up. A refactor that drops or moves one of those names would fail
only inside a traced benchmark run, and one that routes a call around a
wrapped name would silently zero a per-layer metric, so these tests install
the tracer, once empty and once around a short run. The tracer's source is
read, not imported, so nothing is written under perfbench/.
"""

import types
from pathlib import Path

from fuzzygep import cli

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER_PATH)
    exec(compile(TRACER_PATH.read_text(encoding="utf-8"), str(TRACER_PATH), "exec"), module.__dict__)
    return module


def test_tracer_installs_and_restores_every_target():
    tracer = _load_tracer()
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in tracer.TARGETS
               if attr not in owner.__dict__]
    assert missing == []
    originals = [owner.__dict__[attr] for owner, attr, _ in tracer.TARGETS]
    with tracer.Tracer():
        for (owner, attr, name), original in zip(tracer.TARGETS, originals):
            assert owner.__dict__[attr] is not original, name
    for (owner, attr, name), original in zip(tracer.TARGETS, originals):
        assert owner.__dict__[attr] is original, name


def test_short_run_records_a_span_for_every_target(tmp_path):
    tracer = _load_tracer()
    argv = ["run", "--problem", "f9", "--dim", "3", "--pop-size", "10", "--generations", "20",
            "--runs", "1", "--seed", "0", "--termination-tolerance", "none",
            "--trace", str(tmp_path / "trace.csv"), "--summary", str(tmp_path / "summary.csv")]
    with tracer.Tracer() as spans:
        assert cli.main(argv) == 0
    by_name = tracer.span_stats(spans)["by_name"]
    assert [name for name, stats in by_name.items() if stats["calls"] == 0] == []
