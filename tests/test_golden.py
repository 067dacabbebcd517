"""Golden outputs: SHA-256 of the trace and summary CSVs of fixed-seed runs.

A refactor that keeps every RNG draw and every float operation in place
leaves these hashes unchanged. A change that alters behaviour on purpose
re-pins them and says which draws or values moved, and why.

The hashes depend on the float results of `math` (sin, cos, exp, sqrt via
the platform libm) and on CPython's `random` and float `repr`. They were
taken with CPython 3.11 on x86-64 Linux (glibc libm); another interpreter
or libm may legitimately print different bytes.
"""

import hashlib
import os

import pytest

from fuzzygep import bench, cli

GOLDEN = {
    "f3-seed42": (
        ["--problem", "f3", "--seed", "42", "--pop-size", "30", "--generations", "20", "--runs", "6"],
        "0c19ee3ec32c7ca12fd7f4e2c0c27226e21518bd4e63d6213d8b6ab466aeb509",
    ),
    "f9-d30": (
        ["--problem", "f9", "--dim", "30", "--seed", "1", "--pop-size", "30", "--generations", "20",
         "--runs", "1"],
        "77712a3e91bfd29114bd3acdd49a8c9290dfad5866dd8ff03bf8fdcc993aaf87",
    ),
    "f6": (
        ["--problem", "f6", "--seed", "3", "--pop-size", "30", "--generations", "20", "--runs", "2"],
        "8a22786e353cdf6ea90cbfbef241fba96565e249630f463ac975f1656e50cd8b",
    ),
    # two homeotic genes: most of the decode work is bypassed
    "f8": (
        ["--problem", "f8", "--seed", "7", "--pop-size", "30", "--generations", "30", "--runs", "2"],
        "ba4f28fd19f7e557248788ab860fd45748e9023bd3d5e9f0f79e0a327d12e7d6",
    ),
    # maximizes off the box; ordinary genes and coordinates decode to -0.0
    "f7": (
        ["--problem", "f7", "--seed", "1", "--pop-size", "30", "--generations", "30", "--runs", "2"],
        "2e5f70951b74a06c9203a63bf55c3b6f01a9d646e3f48b9d86e73c45929160ce",
    ),
    # temp populations of 20 and 10 (at most 21): tournaments take random.sample's
    # pool path; 200 generations reach the constant resets of the second half
    "f8-pop4": (
        ["--problem", "f8", "--seed", "11", "--pop-size", "4", "--generations", "200",
         "--runs", "3"],
        "f4384a31631e39fb1ab38d34f2269b22da99d48d44fa2a9f87032ca0e827671b",
    ),
    "f8-pop2": (
        ["--problem", "f8", "--seed", "11", "--pop-size", "2", "--generations", "200",
         "--runs", "3"],
        "99c3cea9ab3aff0cf11d162476d1074ae001b2015d7431e091569881867cb457",
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
    trace, summary = tmp_path / "trace.csv", tmp_path / "summary.csv"
    assert cli.main(["run", *argv, "--trace", str(trace), "--summary", str(summary)]) == 0
    digest = hashlib.sha256(trace.read_bytes() + summary.read_bytes()).hexdigest()
    assert digest == expected


# one run of every problem: twelve trace files, then the summary, in suite order
BENCH_ARGV = ["--runs", "1", "--generations", "3", "--pop-size", "10", "--seed", "0"]
BENCH_GOLDEN = "8015437555f71796b19494aead164901554b095490992d75aa698da05d763d98"


def test_golden_bench_sweep_hash(tmp_path):
    assert cli.main(["bench", "--out-dir", str(tmp_path), *BENCH_ARGV]) == 0
    names = [f"{name}_trace.csv" for name in bench.problem_names()] + ["summary.csv"]
    h = hashlib.sha256()
    for name in names:
        with open(os.path.join(tmp_path, name), "rb") as fh:
            h.update(fh.read())
    assert h.hexdigest() == BENCH_GOLDEN
