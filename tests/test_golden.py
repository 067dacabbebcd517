"""Golden outputs: SHA-256 of the trace and summary CSVs of fixed-seed runs.

A refactor that keeps every RNG draw and every float operation in place
leaves these hashes unchanged. A change that alters behaviour on purpose
re-pins them and says which draws or values moved, and why.

The hashes depend on the float results of `math` (sin, cos, exp, sqrt via
the platform libm) and on CPython's `random` and float `repr`. They were
taken on x86-64 Linux (glibc libm) and hold on CPython 3.10 to 3.13: the
draws the package inlines in `mutate`, `select` and `_shuffle` match
`random.sample`, `random.randrange` and `random.shuffle` draw for draw on
all four, and its float sums add left to right rather than through
`sum()`, which compensates rounding from 3.12 on. The hashes say only
that bytes moved; `oracles.ref_run` says whether a whole run is still the
one the stdlib draws give. Another libm or platform may
legitimately print different bytes.
"""

import glob
import json
import os
import shutil
import subprocess
import sys

import pytest
from golden_digests import bench_digest, run_digest

GOLDEN = {
    "f3-seed42": (
        ["--problem", "f3", "--seed", "42", "--pop-size", "30", "--generations", "20", "--runs", "6"],
        "0c19ee3ec32c7ca12fd7f4e2c0c27226e21518bd4e63d6213d8b6ab466aeb509",
    ),
    "f9-d30": (
        ["--problem", "f9", "--dim", "30", "--seed", "1", "--pop-size", "30", "--generations", "20",
         "--runs", "1"],
        "3d8456e66dae739ce81c615800a574e2f0bd65979f44acf8fd48596d31eaaca9",
    ),
    "f6": (
        ["--problem", "f6", "--seed", "3", "--pop-size", "30", "--generations", "20", "--runs", "2"],
        "1fe8b1aaae8f26d4852fe4c859fafdda216ebbdffada90bb50ca3a1981821e04",
    ),
    # two homeotic genes: most of the decode work is bypassed
    "f8": (
        ["--problem", "f8", "--seed", "7", "--pop-size", "30", "--generations", "30", "--runs", "2"],
        "431c1719d29c7f35808e901a2e9cff8d26dbcafbcb48f9e24e2d459e0ac1d0ba",
    ),
    # maximizes off the box; ordinary genes and coordinates decode to -0.0
    "f7": (
        ["--problem", "f7", "--seed", "1", "--pop-size", "30", "--generations", "30", "--runs", "2"],
        "ae379218106d59d27b230385905499d3cb3bf7b688c69c160302285d5fdff9c0",
    ),
    # temp populations of 20 and 10 (at most 21): tournaments take random.sample's
    # pool path; 200 generations reach the constant resets of the second half
    "f8-pop4": (
        ["--problem", "f8", "--seed", "11", "--pop-size", "4", "--generations", "200",
         "--runs", "3"],
        "ab500c68e1a3d50b4bcddb8d8140a8a3fc8bbf9f61f8075dc7e2fac47b75b6e2",
    ),
    "f8-pop2": (
        ["--problem", "f8", "--seed", "11", "--pop-size", "2", "--generations", "200",
         "--runs", "3"],
        "ae5fe967faed1d9e9c135b925cd84af64d4a3a0f67b018c5424e13a9a6a1eb07",
    ),
    "f12-d5-baseline": (
        ["--problem", "f12", "--dim", "5", "--mode", "baseline", "--seed", "5", "--pop-size", "30",
         "--generations", "20", "--runs", "2"],
        "b5c97833e3c3ddef1e6441fec3085c3c8a869c0bf30dbba0fbbacca38587b3c2",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output_hashes(name, tmp_path):
    argv, expected = GOLDEN[name]
    assert run_digest(argv, tmp_path) == expected


# one run of every problem: twelve trace files, then the summary, in suite order
BENCH_ARGV = ["--runs", "1", "--generations", "3", "--pop-size", "10", "--seed", "0"]
BENCH_GOLDEN = "48e27b76b309092c63f12df99955315ac70303d430f1fab6816f609746fd695a"


def test_golden_bench_sweep_hash(tmp_path):
    assert bench_digest(BENCH_ARGV, tmp_path) == BENCH_GOLDEN


TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(TESTS_DIR), "src")
IDENTITY = "import sys; print(sys.prefix, sys.version)"


def _other_interpreters():
    """Every CPython 3.10 ... 3.13 that starts and is not this interpreter,
    and the names tried: python3.10 ... python3.13 on PATH, then the
    pyenv builds under $PYENV_ROOT/versions (default ~/.pyenv). A pyenv shim
    for a version that is not the selected one exits non-zero and is left
    out, which is why the builds are tried directly; an interpreter reached
    by two paths runs once."""
    names = ("python3.10", "python3.11", "python3.12", "python3.13")
    pyenv = os.environ.get("PYENV_ROOT") or os.path.expanduser("~/.pyenv")
    candidates = [shutil.which(name) or name for name in names]
    candidates += sorted(glob.glob(os.path.join(pyenv, "versions", "*", "bin", "python3.1[0-3]")))
    tried, found, seen = [], [], {f"{sys.prefix} {sys.version}"}
    for path in candidates:
        tried.append(path)
        if not os.path.isabs(path):  # a name not on PATH
            continue
        probe = subprocess.run([path, "-c", IDENTITY], capture_output=True, text=True, timeout=60)
        identity = probe.stdout.strip()
        if probe.returncode == 0 and identity not in seen:
            seen.add(identity)
            found.append(path)
    return found, tried


def test_golden_hashes_hold_on_other_interpreters():
    found, tried = _other_interpreters()
    if not found:
        pytest.skip(f"no other CPython 3.10-3.13 runs here; tried {', '.join(tried)}")
    cases = json.dumps({"runs": {name: argv for name, (argv, _) in GOLDEN.items()},
                        "bench": BENCH_ARGV})
    expected = {name: digest for name, (_, digest) in GOLDEN.items()}
    expected["bench"] = BENCH_GOLDEN
    # the child imports the package from src and nothing from the test environment
    env = {**os.environ, "PYTHONPATH": SRC_DIR}
    for path in found:
        child = subprocess.run([path, os.path.join(TESTS_DIR, "golden_digests.py")], input=cases,
                               capture_output=True, text=True, env=env, timeout=300)
        assert child.returncode == 0, f"{path}: {child.stderr}"
        digests = json.loads(child.stdout)
        differ = sorted(name for name in expected if digests.get(name) != expected[name])
        assert not differ, f"{path}: {len(differ)} of {len(expected)} hashes differ: {differ}"
