"""fuzzygep benchmark: one workload per call, one JSON result on the last line.

    python3 perfbench/run.py --workload f9-d30 --seed 1 --seconds 20 --trace 0

--trace 0 measures the end-to-end metrics with nothing wrapped. --trace 1
runs part of the same work twice, first untraced and then traced, and
reports the per-layer metrics from the spans. See perfbench/README.md for
the workloads, the metrics and what each layer is expected to move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"  # scratch CSVs, span dumps and result files
SETUP_PROBES = 9

sys.path.insert(0, str(SRC))
try:
    import numpy
    import fuzzygep
    if not Path(fuzzygep.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"fuzzygep was imported from {fuzzygep.__file__}, not {SRC}")
    from tracer import Tracer, children_count, generation_times_ms, span_stats
    from workloads import PASSES, WORKLOADS, EngineWorkload, Tally
except ImportError as err:
    print(f"error: cannot load the package under {SRC}: {err}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read without running git; "unknown" outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(args, seeds) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "engine_seeds": seeds,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "fuzzygep": fuzzygep.__version__,
        "commit": git_commit(),
    }


def setup_seconds(workload, seeds, tally: Tally) -> float:
    """Median spawn-to-exit time of fresh interpreters running setup_probe.py.
    Not speed-corrected: most of it is imports, not Python bytecode."""
    argv = [sys.executable, str(HERE / "setup_probe.py"), *workload.setup_argv(seeds)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        # a blocking wait: waiting with a timeout polls, in steps of up to 50 ms
        code = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.DEVNULL).wait()
        times.append(time.perf_counter() - t0)
        if code != 0:
            tally.fail(f"setup probe exited {code}")
            break
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def check_digests(tally: Tally, runs_per_pass: int):
    """Every repeat of a pass at the same seeds must write the same bytes."""
    for i, digest in enumerate(tally.digests[1:], 1):
        if digest != tally.digests[0]:
            tally.failed += runs_per_pass
            print(f"check failed: pass {i} sha256 {digest} != {tally.digests[0]}", file=sys.stderr)


def measure(workload, seeds, out_dir) -> tuple[dict, Tally]:
    """End-to-end metrics. Nothing is wrapped but the cli's evolve.run lookup
    in suite-sweep, which times each run and checks its result."""
    tally = Tally()
    setup_s = setup_seconds(workload, seeds, tally)
    for i in range(PASSES):
        workload.run_pass(seeds, out_dir, tally, f"pass {i}")
    rss = peak_rss_mb()
    check_digests(tally, tally.attempted // PASSES)
    metrics = {
        "gens_per_s": (tally.gens_per_s(), "gen/s"),
        "wall_s": (tally.wall_s(), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
        "success_rate": (workload.success_rate(tally), "ratio"),
        "pass_frac": (1.0 - tally.failed / tally.attempted, "ratio"),
    }
    print(f"not speed-corrected: gens_per_s {tally.gens_per_s(raw=True):.6g}, "
          f"wall_s {tally.wall_s(raw=True):.6g}; speed factor per pass "
          + " ".join(f"{f:.3f}" for f in tally.speed_factors()))
    return metrics, tally


def _per_call(stats, name: str, scale: float) -> float:
    st = stats["by_name"][name]
    return st["incl_s"] / st["calls"] * scale if st["calls"] else 0.0


def layer_metrics(tracer: Tracer, traced: Tally, untraced: Tally) -> dict:
    stats = span_stats(tracer)
    by_name, layers = stats["by_name"], stats["layers"]
    calls = {name: st["calls"] for name, st in by_name.items()}
    gens = generation_times_ms(tracer)
    pct = statistics.quantiles(gens, n=100, method="inclusive") if len(gens) > 1 else [0.0] * 99
    offspring = tracer.counters["offspring"]
    misses = children_count(tracer, "evolve.evaluate", "evolve.build_temp_population")
    m = {f"{layer}.busy_s": (busy, "s") for layer, busy in layers.items()}
    m.update({
        "decode.eval_ordinary.us": (_per_call(stats, "decode.eval_ordinary", 1e6), "us"),
        "decode.eval_homeotic.us": (_per_call(stats, "decode.eval_homeotic", 1e6), "us"),
        "decode.eval_ordinary.calls": (calls["decode.eval_ordinary"], "count"),
        "decode.eval_homeotic.calls": (calls["decode.eval_homeotic"], "count"),
        "genome.rebuild.us": (_per_call(stats, "genome.rebuild", 1e6), "us"),
        "genome.flatten.us": (_per_call(stats, "genome.flatten", 1e6), "us"),
        "genome.rebuild.calls": (calls["genome.rebuild"], "count"),
        "genome.random_chromosome.us": (_per_call(stats, "genome.random_chromosome", 1e6), "us"),
        "evolve.crossover.us": (_per_call(stats, "evolve.crossover", 1e6), "us"),
        "evolve.mutate.us": (_per_call(stats, "evolve.mutate", 1e6), "us"),
        "evolve.select.ms": (_per_call(stats, "evolve.select", 1e3), "ms"),
        "evolve.diversity.us": (_per_call(stats, "evolve.diversity", 1e6), "us"),
        "evolve.evaluate.us": (_per_call(stats, "evolve.evaluate", 1e6), "us"),
        "evolve.evaluations": (calls["evolve.evaluate"], "count"),
        "evolve.offspring_cache.hit_ratio": (1.0 - misses / offspring if offspring else 0.0, "ratio"),
        "evolve.temp_population.self_s": (by_name["evolve.build_temp_population"]["self_s"], "s"),
        "evolve.generation.p50_ms": (pct[49], "ms"),
        "evolve.generation.p99_ms": (pct[98], "ms"),
        "fuzzy.infer_1d.us": (_per_call(stats, "fuzzy.infer_1d", 1e6), "us"),
        "fuzzy.infer_2d.us": (_per_call(stats, "fuzzy.infer_2d", 1e6), "us"),
        "fuzzy.infer.calls": (calls["fuzzy.infer_1d"] + calls["fuzzy.infer_2d"], "count"),
        "bench.evaluate.us": (_per_call(stats, "bench.evaluate", 1e6), "us"),
        "bench.evaluate.calls": (calls["bench.evaluate"], "count"),
        "bench.offbox_best_frac": (traced.share(2), "ratio"),
        "cli.write_trace.ms": (_per_call(stats, "cli.write_trace", 1e3), "ms"),
        "cli.write_summary.ms": (_per_call(stats, "cli.write_summary", 1e3), "ms"),
        "cli.trace_bytes": (tracer.counters["trace_bytes"], "bytes"),
        "trace.overhead_frac": (untraced.gens_per_s() / traced.gens_per_s() - 1.0
                                if traced.gens_per_s() else 0.0, "ratio"),
    })
    total = sum(layers.values()) or 1.0
    print(f"self time by layer over {len(gens)} traced generations: " + ", ".join(
        f"{layer} {busy:.3f} s ({busy / total:.1%})"
        for layer, busy in sorted(layers.items(), key=lambda kv: -kv[1])))
    offbox = sum(r[2] for r in traced.runs.values())
    print(f"best point off the box in {offbox} of {len(traced.runs)} runs")
    return m


def trace_pass(workload, seeds, out_dir) -> tuple[dict, Tally]:
    """Part of the workload untraced, then the same part traced."""
    if isinstance(workload, EngineWorkload):
        seeds = seeds[:max(1, len(seeds) // 2)]
    # back to back, so the overhead needs no speed correction
    untraced, traced = Tally(sample_speed=False), Tally(sample_speed=False)
    workload.run_pass(seeds, out_dir, untraced, "untraced")
    with Tracer() as tracer:
        workload.run_pass(seeds, out_dir, traced, "traced")
    tracer.save(WORK / f"spans-{workload.name}.npz")
    metrics = layer_metrics(tracer, traced, untraced)
    both = Tally(attempted=untraced.attempted + traced.attempted,
                 failed=untraced.failed + traced.failed, digests=untraced.digests + traced.digests)
    check_digests(both, traced.attempted)
    return metrics, both


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    seeds = workload.engine_seeds(args.seed, args.seconds)
    WORK.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK)
    try:
        if args.trace:
            metrics, tally = trace_pass(workload, seeds, out_dir)
        else:
            metrics, tally = measure(workload, seeds, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    env = stamp(args, seeds)
    results_dir = WORK / "results"
    results_dir.mkdir(exist_ok=True)
    with open(results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"stamp": env, "digests": tally.digests, **result}, fh, indent=1)
    if tally.digests:
        print(f"digest {args.workload} seed={args.seed} sha256={tally.digests[0]}")
    print("stamp " + json.dumps(env))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
