"""Fuzzy-adaptive multicellular gene expression programming for function
optimization over real boxes."""

from .bench import Problem, builtin, problem_names
from .evolve import Engine, EngineConfig, Individual, Rates, RunResult, adapt_rates, diversity, run
from .fuzzy import Universe, infer_1d, infer_2d
from .genome import random_chromosome, random_constant_set

__version__ = "0.1.0"

__all__ = [
    "Engine",
    "EngineConfig",
    "Individual",
    "Problem",
    "Rates",
    "RunResult",
    "Universe",
    "adapt_rates",
    "builtin",
    "diversity",
    "infer_1d",
    "infer_2d",
    "problem_names",
    "random_chromosome",
    "random_constant_set",
    "run",
]
