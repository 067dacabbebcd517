"""The benchmark's span tracer still fits the package.

`perfbench/tracer.py` wraps package functions by name where their callers
look them up. A refactor that drops or moves one of those names would fail
only inside a traced benchmark run, so this test installs and removes the
tracer once. The tracer's source is read, not imported, so nothing is
written under perfbench/.
"""

import types
from pathlib import Path

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
