"""Fuzzy-adaptive multicellular gene expression programming for function
optimization over real boxes."""

from .bench import Problem, builtin, problem_names
from .decode import build_tree, protected_apply
from .evolve import Engine, EngineConfig, Individual, Rates, RunResult, adapt_rates, diversity, run
from .fuzzy import Universe, infer_1d, infer_2d
from .genome import GeneLayout, SymbolSet, random_chromosome, random_constant_set

__version__ = "0.1.0"

__all__ = [
    "Engine",
    "EngineConfig",
    "GeneLayout",
    "Individual",
    "Problem",
    "Rates",
    "RunResult",
    "SymbolSet",
    "Universe",
    "adapt_rates",
    "build_tree",
    "builtin",
    "diversity",
    "infer_1d",
    "infer_2d",
    "problem_names",
    "protected_apply",
    "random_chromosome",
    "random_constant_set",
    "run",
]
