"""Planted faults that the tests must kill.

Each entry of FAULTS plants one fault: it replaces an exact text in one file
with another and names the tests that must then fail. For each entry the
script copies src/, tests/ and pyproject.toml into a temporary directory,
plants the fault there and runs pytest on the named tests. A fault is killed
when every named test fails; a test function named without its parameters
fails when any of its cases does. The script exits 1 if a fault survives, if
an entry's text is not found exactly once in its file, or if a named test
fails with no fault planted. So a change to a line that an entry names
updates the entry in the same change.

Run it from the repository root:

    python tests/faults.py

pytest does not collect this file: its name does not match test_*.py.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Fault(NamedTuple):
    name: str
    path: str  # relative to the repository root
    text: str
    replacement: str
    tests: tuple[str, ...]


EVOLVE = "src/fuzzygep/evolve.py"
GENOME = "src/fuzzygep/genome.py"
TEST_EVOLVE = "tests/test_evolve.py::"
FROM_TWO_INPUTS = TEST_EVOLVE + "test_evaluate_from_two_inputs_matches_the_full_decode"
FROM_A_PARENT = TEST_EVOLVE + "test_evaluate_from_a_parent_matches_the_full_decode"
FROM_A_MUTANTS_INPUT = TEST_EVOLVE + "test_evaluate_from_a_mutants_input_matches_the_full_decode"
EACH_NEW_ONCE = TEST_EVOLVE + "test_temp_population_evaluates_each_new_chromosome_once"
MEMOS_BOUNDED = TEST_EVOLVE + "test_memos_stay_bounded"
# crossover's record lines, and the same lines under a condition on the cut
RECORD_EVERY_CUT = "    made[children[0]] = (a, b, cut, ())\n    made[children[1]] = (b, a, cut, ())\n"


def record_only_if(condition: str) -> str:
    return f"    if {condition}:\n" + RECORD_EVERY_CUT.replace("    made", "        made")


# decode._compile numbers each node's children breadth first, as K-expressions read
BREADTH_FIRST = '''\
    first = [1]
    for ar in shape:
        first.append(first[-1] + ar)

    def node(i: int) -> str:
        if shape[i] == 0:
            return terminal.format(i=i)
        children = ", ".join(node(j) for j in range(first[i], first[i] + shape[i]))
'''
DEPTH_FIRST = '''\
    depth_first = iter(range(1, len(shape)))

    def node(i: int) -> str:
        if shape[i] == 0:
            return terminal.format(i=i)
        children = ", ".join(node(next(depth_first)) for _ in range(shape[i]))
'''
# select's tournament: the first of equal ranks in draw order wins, or the
# one with the smallest temp index
DRAW_ORDER_TIES = '''\
        best_rank = best.rank
        for _ in rivals:
            j = getrandbits(bits)
            while j >= n or j in picked:
                j = getrandbits(bits)
            picked.add(j)
            contender = temp[j]
            if contender.rank < best_rank:
                best = contender
'''
LOWEST_INDEX_TIES = '''\
        best_rank = best.rank
        best_j = j
        for _ in rivals:
            j = getrandbits(bits)
            while j >= n or j in picked:
                j = getrandbits(bits)
            picked.add(j)
            contender = temp[j]
            if contender.rank < best_rank or contender.rank == best_rank and j < best_j:
                best, best_j = contender, j
'''

FAULTS = (
    # the lending rule in Engine.evaluate
    Fault("straddling-gene-to-tail", EVOLVE,
          "t = h + 1 if inside else h", "t = h",
          (FROM_TWO_INPUTS,)),
    Fault("gene-at-cut-to-neither", EVOLVE,
          "t = h + 1 if inside else h", "t = h + 1",
          (FROM_TWO_INPUTS,)),
    Fault("cut-gene-off-by-one", EVOLVE,
          "divmod(cut - ORDINARY_END, HOMEOTIC_GENE_LEN)",
          "divmod(cut - ORDINARY_END - 1, HOMEOTIC_GENE_LEN)",
          (FROM_TWO_INPUTS,)),
    Fault("head-key-unchecked", EVOLVE,
          "if head is None or head.key != key:", "if head is None:",
          (FROM_TWO_INPUTS,)),
    Fault("tail-key-unchecked", EVOLVE,
          "if tail is None or tail.key != key:", "if tail is None:",
          (FROM_TWO_INPUTS, FROM_A_PARENT, FROM_A_MUTANTS_INPUT)),
    Fault("all-tail-test-moved-one-slot", EVOLVE,
          "                if site >= ORDINARY_END:\n                    break",
          "                if site >= ORDINARY_END + 1:\n                    break",
          (FROM_A_MUTANTS_INPUT,)),
    Fault("crossover-sites-ignored", EVOLVE,
          "for site in sites:  # a second site in one gene finds it stored",
          "for site in (() if cut else sites):  # a second site in one gene finds it stored",
          (FROM_TWO_INPUTS,)),
    Fault("tail-suffix-from-next-gene", EVOLVE,
          "point += tail.point[t:]", "point += tail.point[t + 1:]",
          (FROM_TWO_INPUTS,)),
    # the records the operators write
    Fault("cut-at-ordinary-end-unrecorded", EVOLVE,
          RECORD_EVERY_CUT, record_only_if("cut != ORDINARY_END"),
          (FROM_TWO_INPUTS,)),
    Fault("cuts-in-ordinary-genes-unrecorded", EVOLVE,
          RECORD_EVERY_CUT, record_only_if("cut >= ORDINARY_END"),
          (FROM_TWO_INPUTS, EACH_NEW_ONCE)),
    # the memos' bounds
    Fault("coordinate-count-dropped", EVOLVE,
          "                self._coordinates_stored += 1\n            point.append(x)",
          "            point.append(x)",
          (MEMOS_BOUNDED,)),
    Fault("gene-memo-unbounded", EVOLVE,
          "self._genes_limit = len(GENE_REFERENCES) * evaluations",
          "self._genes_limit = math.inf",
          (MEMOS_BOUNDED,)),
    Fault("fitness-memo-unbounded", EVOLVE,
          "self._fitnesses_limit = evaluations", "self._fitnesses_limit = math.inf",
          (MEMOS_BOUNDED,)),
    Fault("non-finite-point-scored", EVOLVE,
          '        for v in point:\n            if not math.isfinite(v):\n'
          '                return float("nan")\n',
          "",
          (TEST_EVOLVE + "test_evaluate_scores_non_finite_coordinates_nan",)),
    # selection, resets and diversity
    Fault("select-tie-to-later-contender", EVOLVE,
          "if contender.rank < best_rank:", "if contender.rank <= best_rank:",
          (TEST_EVOLVE + "test_select_matches_stdlib_reference",)),
    Fault("select-tie-to-lowest-index", EVOLVE, DRAW_ORDER_TIES, LOWEST_INDEX_TIES,
          (TEST_EVOLVE + "test_select_matches_stdlib_reference",)),
    Fault("reset-in-first-half", EVOLVE,
          "        if gen <= self.cfg.max_gen / 2.0:\n            return population, False",
          "        if gen < self.cfg.max_gen / 2.0:\n            return population, False",
          (TEST_EVOLVE + "test_constant_mutation_first_half_noop",)),
    Fault("diversity-zero-mean-default", EVOLVE,
          "    elif den == 0.0:\n        d = 0.0", "    elif den == 0.0:\n        d = 1.0",
          (TEST_EVOLVE + "test_diversity_zero_mean",)),
    Fault("diversity-all-non-finite-default", EVOLVE,
          'return DiversityReading(0.5, float("nan"))', 'return DiversityReading(1.0, float("nan"))',
          (TEST_EVOLVE + "test_diversity_all_non_finite",)),
    Fault("elite-count-truncated", EVOLVE,
          "return max(1, round(0.01 * self.pop_size))", "return max(1, int(0.01 * self.pop_size))",
          (TEST_EVOLVE + "test_config_derived_counts",)),
    # genome, decode, fuzzy and cli
    Fault("run-table-from-slot-0", GENOME,
          "_top_byte_table(alphabets[run.start])", "_top_byte_table(alphabets[0])",
          ("tests/test_genome.py::test_random_chromosome_equals_region_by_region_choices",)),
    Fault("slot-plans-reversed", GENOME,
          "tuple(map(_slot_plan, alphabets))", "tuple(map(_slot_plan, alphabets[::-1]))",
          (TEST_EVOLVE + "test_mutate_matches_stdlib_reference",)),
    Fault("every-top-byte-decides-the-symbol", GENOME,
          "        if first == int(((t + 1) / 256 - 2.0 ** -53) * n):\n"
          "            table[t] = symbols[first]",
          "        table[t] = symbols[first]",
          ("tests/test_genome.py::test_random_chromosome_top_byte_boundaries_match_the_full_draw",)),
    Fault("dc-letters-read-in-reverse", "src/fuzzygep/decode.py",
          'f"(v[X[g[{DC_START} + g.count(', 'f"(v[X[g[-1 - g.count(',
          ("tests/test_decode.py::test_rnc_binding_uses_dc_order",)),
    Fault("depth-first-decode", "src/fuzzygep/decode.py", BREADTH_FIRST, DEPTH_FIRST,
          ("tests/test_decode.py::test_gene_values_match_the_level_by_level_reference",)),
    Fault("constant-rules-swapped", "src/fuzzygep/fuzzy.py",
          '    ("XL", "XL", "ML", "ML", "M"),', '    ("M", "XL", "ML", "ML", "XL"),',
          ("tests/test_fuzzy.py::test_rule_tables_pinned",
           "tests/test_acceptance.py::test_rate_surfaces_are_monotone")),
    Fault("sum-aggregation", "src/fuzzygep/fuzzy.py",
          "            if strength > strengths[out]:\n                strengths[out] = strength",
          "            strengths[out] += strength",
          ("tests/test_fuzzy.py::test_inference_matches_oracle_spot_checks",
           "tests/test_acceptance.py::test_controllers_match_bruteforce_mamdani_oracle")),
    Fault("out-dir-made-before-configs", "src/fuzzygep/cli.py",
          '        configs = experiments(args)\n        if args.command == "bench":\n'
          '            os.makedirs(args.out_dir, exist_ok=True)',
          '        if args.command == "bench":\n            os.makedirs(args.out_dir, exist_ok=True)\n'
          '        configs = experiments(args)',
          ("tests/test_cli.py::test_bench_stops_on_every_shared_check_before_anything_happens",)),
)


def copy_tree(dest: Path) -> None:
    """src/, tests/ and pyproject.toml (pytest's settings) into dest."""
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy2(ROOT / "pyproject.toml", dest)


def planted(fault: Fault) -> str:
    """The fault's file with the fault in it."""
    source = (ROOT / fault.path).read_text()
    count = source.count(fault.text)
    if count != 1:
        raise ValueError(f"{fault.name}: its text is found {count} times in {fault.path}")
    return source.replace(fault.text, fault.replacement)


def failing_tests(root: Path, tests) -> set[str]:
    """The node ids of the tests that fail or error when pytest runs tests in
    root; raises RuntimeError when pytest cannot run them."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *tests],
        cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):  # interrupted, a usage error or nothing collected
        raise RuntimeError(f"pytest exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return {line.split(" ", 1)[1].split(" - ", 1)[0]
            for line in proc.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))}


def fails(test: str, failures) -> bool:
    return any(f == test or f.startswith(test + "[") for f in failures)


def main() -> int:
    sources = [planted(fault) for fault in FAULTS]  # a stale entry fails before any run
    with tempfile.TemporaryDirectory() as clean:
        clean = Path(clean)
        copy_tree(clean)
        tests = sorted({t for f in FAULTS for t in f.tests})
        failures = failing_tests(clean, tests)
        failing = [t for t in tests if fails(t, failures)]
        if failing:
            print(f"fail with no fault planted: {', '.join(failing)}")
            return 1
    survived = 0
    for fault, source in zip(FAULTS, sources):
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as root:
            root = Path(root)
            copy_tree(root)
            (root / fault.path).write_text(source)
            failures = failing_tests(root, fault.tests)
        passing = [t for t in fault.tests if not fails(t, failures)]
        took = time.perf_counter() - start
        if passing:
            survived += 1
            print(f"SURVIVED {fault.name} ({took:.1f} s): passes {', '.join(passing)}")
        else:
            print(f"killed   {fault.name} ({took:.1f} s)")
    print(f"{len(FAULTS) - survived} of {len(FAULTS)} faults killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
