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

import pytest

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


@pytest.fixture(scope="module")
def short_run_spans(tmp_path_factory):
    """Per-span stats of one traced short run."""
    tracer = _load_tracer()
    out = tmp_path_factory.mktemp("traced")
    argv = ["run", "--problem", "f9", "--dim", "3", "--pop-size", "10", "--generations", "20",
            "--runs", "1", "--seed", "0", "--termination-tolerance", "none",
            "--trace", str(out / "trace.csv"), "--summary", str(out / "summary.csv")]
    with tracer.Tracer() as spans:
        assert cli.main(argv) == 0
    return tracer.span_stats(spans)["by_name"]


def test_short_run_records_a_span_for_every_target(short_run_spans):
    assert [name for name, stats in short_run_spans.items() if stats["calls"] == 0] == []


def test_every_mutate_call_mutates(short_run_spans):
    """The pipelines draw the p_m coin, so each evolve.mutate span is a
    mutation: one flatten and one rebuild each, and evolve.mutate.us
    times mutations only."""
    calls = [short_run_spans[name]["calls"]
             for name in ("evolve.mutate", "genome.flatten", "genome.rebuild")]
    assert calls[0] > 0 and calls == [calls[0]] * 3
