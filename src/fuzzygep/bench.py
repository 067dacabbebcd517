"""Benchmark objectives with their boxes, optima and operator sets."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence


@dataclass(eq=False)
class Problem:
    name: str
    dim: int
    lower: float
    upper: float
    direction: str  # "minimize" | "maximize"
    known_optimum: float | None
    func: Callable[[Sequence[float]], float]
    extra_operators: tuple[str, ...] = ()

    def evaluate(self, x: Sequence[float]) -> float:
        if len(x) != self.dim:
            raise ValueError(f"{self.name} expects {self.dim} coordinates, got {len(x)}")
        return self.func(x)


def sphere(x):
    """Sum of squares; minimum 0 at the origin."""
    total = 0.0
    for v in x:
        total += v * v
    return total


def rosenbrock(x):
    """Banana valley; minimum 0 at (1, 1)."""
    a = x[0] * x[0] - x[1]
    b = 1.0 - x[0]
    return 100.0 * a * a + b * b


def schaffer(x):
    """Ripple around the origin; minimum 0 at (0, 0)."""
    s = x[0] * x[0] + x[1] * x[1]
    t = math.sin(math.sqrt(s))
    d = 1.0 + 0.001 * s
    return 0.5 + (t * t - 0.5) / (d * d)


def sine_envelope(x):
    """Radially rippled bowl; minimum 0 at (0, 0)."""
    s = x[0] * x[0] + x[1] * x[1]
    t = math.sin(50.0 * s ** 0.1)
    return s ** 0.25 * (t * t + 1.0)


def damped_cosine(x):
    """exp-damped squared cosine in one variable; minimum 0 near pi/1.6."""
    t = math.cos(0.8 * x[0])
    return math.exp(-0.001 * x[0]) * (t * t)


def two_humps(x):
    """Separable sine product; maximum about 18.5547 inside [0, 10]^2."""
    return -x[0] * math.sin(4.0 * x[0]) - 1.1 * x[1] * math.sin(2.0 * x[1])


def rippled_line(x):
    """x*sin(10*pi*x) + 1; maximum about 2.8503 on [-1, 2]."""
    return x[0] * math.sin(10.0 * math.pi * x[0]) + 1.0


def goldstein_price(x):
    """Two polynomial factors; minimum 3 at (0, -1)."""
    x1, x2 = x[0], x[1]
    u = x1 + x2 + 1.0
    a = 19.0 - 14.0 * x1 + 3.0 * x1 * x1 - 14.0 * x2 + 6.0 * x1 * x2 + 3.0 * x2 * x2
    v = 2.0 * x1 - 3.0 * x2
    b = 18.0 - 32.0 * x1 + 12.0 * x1 * x1 + 48.0 * x2 - 36.0 * x1 * x2 + 27.0 * x2 * x2
    return (1.0 + u * u * a) * (30.0 + v * v * b)


def weighted_sphere(x):
    """Axis-weighted sum of squares; minimum 0 at the origin."""
    total = 0.0
    for i, v in enumerate(x):
        total += (i + 1) * v * v
    return total


def abs_sum_product(x):
    """Sum plus product of absolute coordinates; minimum 0 at the origin."""
    s = 0.0
    p = 1.0
    for v in x:
        s += abs(v)
        p *= abs(v)
    return s + p


def alpine(x):
    """Sum of |x*sin(x) + 0.1x|; minimum 0 at the origin."""
    total = 0.0
    for v in x:
        total += abs(v * math.sin(v) + 0.1 * v)
    return total


def ackley(x):
    """Exponential well with cosine ripple; minimum ~0 at the origin."""
    a = 20.0
    b = 0.2
    c = 2.0 * math.pi
    n = len(x)
    sq = 0.0
    cs = 0.0
    for v in x:
        sq += v * v
        cs += math.cos(c * v)
    return -a * math.exp(-b * math.sqrt(sq / n)) - math.exp(cs / n) + a + math.exp(1.0)


# name, dim (the default, where _SCALABLE allows another), lower, upper,
# direction, known optimum, objective, extra operators
_REGISTRY: dict[str, Problem] = {p.name: p for p in (
    Problem("f1", 2, -5.12, 5.12, "minimize", 0.0, sphere),
    Problem("f2", 2, -2.048, 2.048, "minimize", 0.0, rosenbrock),
    Problem("f3", 2, -100.0, 100.0, "minimize", 0.0, schaffer, ("S", "Q")),
    Problem("f4", 2, -100.0, 100.0, "minimize", 0.0, sine_envelope, ("S", "Q")),
    Problem("f5", 1, 0.0, 18.0, "minimize", 0.0, damped_cosine, ("C", "E")),
    Problem("f6", 2, 0.0, 10.0, "maximize", 18.5547210767, two_humps, ("S",)),
    Problem("f7", 1, -1.0, 2.0, "maximize", 2.8502737668, rippled_line, ("S", "C")),
    Problem("f8", 2, -2.0, 2.0, "minimize", 3.0, goldstein_price),
    Problem("f9", 30, -10.0, 10.0, "minimize", 0.0, weighted_sphere),
    Problem("f10", 30, -10.0, 10.0, "minimize", 0.0, abs_sum_product),
    Problem("f11", 50, -10.0, 10.0, "minimize", 0.0, alpine, ("S",)),
    Problem("f12", 50, -32.0, 32.0, "minimize", 0.0, ackley, ("S", "C", "Q", "E")),
)}

# the problems whose dim may be chosen; the others are fixed at theirs
_SCALABLE = frozenset({"f1", "f9", "f10", "f11", "f12"})


def problem_names() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def builtin(name: str, dim: int | None = None) -> Problem:
    """Look up a benchmark by name; dim applies to the scalable ones only."""
    problem = _REGISTRY.get(name)
    if problem is None:
        raise ValueError(f"unknown problem {name!r}; choose one of {', '.join(_REGISTRY)}")
    if dim is None:
        dim = problem.dim
    elif name not in _SCALABLE:
        if dim != problem.dim:
            raise ValueError(f"{name} is fixed at dim {problem.dim}")
    elif dim < 1:
        raise ValueError("dim must be positive")
    return replace(problem, dim=dim)


def reached_optimum(problem: Problem, tolerance: float | None, fitness: float) -> bool:
    """|fitness - known optimum| <= tolerance; never without a known optimum,
    without a tolerance, or for a non-finite fitness."""
    opt = problem.known_optimum
    if tolerance is None or opt is None or not math.isfinite(fitness):
        return False
    return abs(fitness - opt) <= tolerance
