"""SHA-256 digests of the CSVs that fixed-seed CLI invocations write.

`tests/test_golden.py` compares them with its pinned hashes. This module
imports only the package, so it also runs as a script under an interpreter
that has no pytest:

    PYTHONPATH=src python3.13 tests/golden_digests.py < cases.json

reads `{"runs": {name: argv}, "bench": argv}` on stdin and prints
`{name: digest, ..., "bench": digest}` as JSON on stdout.
"""

import contextlib
import hashlib
import json
import os
import sys
import tempfile

from fuzzygep import bench, cli


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _run_cli(argv):
    status = cli.main(argv)
    if status != 0:
        raise RuntimeError(f"fuzzygep {' '.join(argv)} exited {status}")


def run_digest(argv, out_dir) -> str:
    """Digest of the trace, then the summary, of one `fuzzygep run`."""
    trace, summary = os.path.join(out_dir, "trace.csv"), os.path.join(out_dir, "summary.csv")
    _run_cli(["run", *argv, "--trace", trace, "--summary", summary])
    return _digest([trace, summary])


def bench_digest(argv, out_dir) -> str:
    """Digest of `fuzzygep bench`'s twelve trace files, then the summary, in suite order."""
    _run_cli(["bench", "--out-dir", str(out_dir), *argv])
    names = [f"{name}_trace.csv" for name in bench.problem_names()] + ["summary.csv"]
    return _digest([os.path.join(out_dir, name) for name in names])


def all_digests(cases) -> dict:
    digests = {}
    for name, argv in cases["runs"].items():
        with tempfile.TemporaryDirectory() as out_dir:
            digests[name] = run_digest(argv, out_dir)
    with tempfile.TemporaryDirectory() as out_dir:
        digests["bench"] = bench_digest(cases["bench"], out_dir)
    return digests


if __name__ == "__main__":
    cases = json.load(sys.stdin)
    # the CLI prints a line per run; stdout carries only the JSON
    with contextlib.redirect_stdout(sys.stderr):
        digests = all_digests(cases)
    json.dump(digests, sys.stdout)
