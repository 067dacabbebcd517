"""Mamdani inference for the three rate controllers.

Every linguistic variable uses the same five-label family over its own
universe: XL and XH are shoulders saturating at the ends, ML/M/MH are unit
triangles on the interior breakpoints.  Breakpoints are evenly spaced, so the
family is a partition of unity.  Implication is min, aggregation is max,
defuzzification is the centroid over a fixed 1001-point grid.

Monotonicity: the 1D crossover and mutation tables are bijections, so their
outputs are monotone in diversity.  The 2D constant-mutation table is
monotone in both inputs, but it must repeat labels in adjacent cells, so its
surface is monotone only at the rule anchors (the 5x5 breakpoint pairs, where
one rule fires at full strength).  Between two anchors that share a label,
max aggregation lets that label's strength sag and recover, so the centroid
bulges there and the constant rate (output universe [0, 0.5]) dips by up to
about 5e-3.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

LABELS = ("XL", "ML", "M", "MH", "XH")
GRID_POINTS = 1001

_LABEL_INDEX = {label: i for i, label in enumerate(LABELS)}

# rate-of-crossover rules: low diversity asks for more crossover
CROSSOVER_RULES = {"XL": "XH", "ML": "MH", "M": "M", "MH": "ML", "XH": "XL"}

# rate-of-mutation rules: mutation follows diversity directly
MUTATION_RULES = {label: label for label in LABELS}

# constant-mutation rules, rows = iteration label, columns = diversity label
_CONSTANT_MATRIX = (
    ("XL", "XL", "ML", "ML", "M"),
    ("XL", "ML", "ML", "M", "MH"),
    ("ML", "ML", "M", "MH", "MH"),
    ("ML", "M", "MH", "MH", "XH"),
    ("M", "M", "MH", "XH", "XH"),
)
CONSTANT_MUTATION_RULES = {
    (row_label, col_label): out
    for row_label, row in zip(LABELS, _CONSTANT_MATRIX)
    for col_label, out in zip(LABELS, row)
}


@dataclass(frozen=True)
class Universe:
    lower: float
    upper: float

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError(f"degenerate universe [{self.lower}, {self.upper}]")

    def clamp(self, x: float) -> float:
        return min(max(x, self.lower), self.upper)

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)


class MembershipFamily:
    """The five piecewise-linear labels over one universe."""

    def __init__(self, universe: Universe):
        self.universe = universe
        width = universe.upper - universe.lower
        self.breakpoints = tuple(universe.lower + k * width / 4.0 for k in range(5))

    def membership(self, label: str, x: float) -> float:
        i = _LABEL_INDEX[label]
        p = self.breakpoints
        x = self.universe.clamp(x)
        if i == 0:
            if x <= p[0]:
                return 1.0
            if x >= p[1]:
                return 0.0
            return (p[1] - x) / (p[1] - p[0])
        if i == 4:
            if x >= p[4]:
                return 1.0
            if x <= p[3]:
                return 0.0
            return (x - p[3]) / (p[4] - p[3])
        left, peak, right = p[i - 1], p[i], p[i + 1]
        if x <= left or x >= right:
            return 0.0
        if x <= peak:
            return (x - left) / (peak - left)
        return (right - x) / (right - peak)

    def fuzzify(self, x: float) -> tuple[float, ...]:
        return tuple(self.membership(label, x) for label in LABELS)


def centroid(xs: np.ndarray, mus: np.ndarray, universe: Universe) -> float:
    """Centre of gravity; an all-zero aggregate falls back to the midpoint."""
    total = float(mus.sum())
    if total <= 0.0:
        return universe.midpoint
    return float((xs * mus).sum() / total)


# keyed by the universe's value, not by family identity, so the families
# that every new RateControllers builds share three entries
@lru_cache(maxsize=32)
def _output_grids(universe: Universe):
    family = MembershipFamily(universe)
    xs = np.linspace(universe.lower, universe.upper, GRID_POINTS)
    grids = {
        label: np.array([family.membership(label, x) for x in xs])
        for label in LABELS
    }
    return xs, grids


def _defuzzify(strengths: dict[str, float], out_family: MembershipFamily) -> float:
    xs, grids = _output_grids(out_family.universe)
    aggregate = np.zeros(GRID_POINTS)
    for label, strength in strengths.items():
        if strength > 0.0:
            np.maximum(aggregate, np.minimum(strength, grids[label]), out=aggregate)
    return centroid(xs, aggregate, out_family.universe)


def infer_1d(table, in_family: MembershipFamily, out_family: MembershipFamily, x: float) -> float:
    """Single-input Mamdani step; clamps x into the input universe."""
    strengths: dict[str, float] = {}
    for label in LABELS:
        mu = in_family.membership(label, x)
        out_label = table[label]
        if mu > strengths.get(out_label, 0.0):
            strengths[out_label] = mu
    return _defuzzify(strengths, out_family)


def infer_2d(table, family_a: MembershipFamily, family_b: MembershipFamily,
             out_family: MembershipFamily, a: float, b: float) -> float:
    """Two-input Mamdani step with min conjunction of the antecedents."""
    mus_a = family_a.fuzzify(a)
    mus_b = family_b.fuzzify(b)
    strengths: dict[str, float] = {}
    for i, label_a in enumerate(LABELS):
        if mus_a[i] == 0.0:
            continue
        for j, label_b in enumerate(LABELS):
            strength = min(mus_a[i], mus_b[j])
            if strength == 0.0:
                continue
            out_label = table[(label_a, label_b)]
            if strength > strengths.get(out_label, 0.0):
                strengths[out_label] = strength
    return _defuzzify(strengths, out_family)
