"""Set-up as a fresh interpreter pays it: import fuzzygep, parse the command
line, look up the problem and construct the engine, then stop before the
first generation. The benchmark times this script from spawn to exit.

    python3 perfbench/setup_probe.py run --problem f9 --dim 30 ...
    python3 perfbench/setup_probe.py bench --runs 4 ...
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fuzzygep import bench, cli, evolve  # noqa: E402

args = cli.build_parser().parse_args(sys.argv[1:])
name = args.problem if args.command == "run" else bench.problem_names()[0]
problem = bench.builtin(name, getattr(args, "dim", None))
evolve.Engine(problem, evolve.EngineConfig(pop_size=args.pop_size, max_gen=args.generations), args.seed)
