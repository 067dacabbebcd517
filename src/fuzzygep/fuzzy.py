"""Mamdani inference for the three rate controllers.

Every linguistic variable uses the same five-label family over its own
universe: XL and XH are shoulders saturating at the ends, ML/M/MH are unit
triangles on the interior breakpoints.  Breakpoints are evenly spaced, so the
family is a partition of unity.  Implication is min, aggregation is max,
defuzzification is the centroid over a fixed 1001-point grid, summed in
closed form.

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

import math
from dataclasses import dataclass

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


# grid steps between two adjacent breakpoints
_SPAN = (GRID_POINTS - 1) // 4


def _sum_below(n: int) -> int:
    """0 + 1 + ... + (n - 1)."""
    return n * (n - 1) // 2


def _squares_below(n: int) -> int:
    """0 + 1 + 4 + ... + (n - 1)**2."""
    return (n - 1) * n * (2 * n - 1) // 6


def centroid(strengths: dict[str, float], universe: Universe) -> float:
    """Centre of gravity of the max of the clipped output labels, sampled on
    GRID_POINTS evenly spaced points; an all-zero aggregate falls back to the
    midpoint.

    Between breakpoints k and k+1 (grid steps j = 0.._SPAN, t = j/_SPAN) only
    label k falls (1 - t) and label k+1 rises (t).  With their strengths a
    and b the aggregate is max(min(a, 1 - t), min(b, t)): a plateau at a, the
    falling edge 1 - t, the rising edge t from where the two meet, a plateau
    at b.  Each piece is linear, so its sums over the grid are arithmetic
    series.  Every span owns its steps 0.._SPAN-1; the last grid point is
    added alone.
    """
    s = [strengths.get(label, 0.0) for label in LABELS]
    mass = s[4]
    moment = (GRID_POINTS - 1) * s[4]
    for k in range(4):
        a, b = s[k], s[k + 1]
        if a == 0.0 and b == 0.0:
            continue
        # the edges meet at t = a, 1/2 or 1 - b; with a or b at 0 one of them is empty
        meet = min(a, 0.5) if a <= b else 1.0 - min(b, 0.5)
        # first grid step of the falling edge, the rising edge and the b plateau
        j1 = math.ceil(_SPAN * min(1.0 - a, meet))
        jm = math.ceil(_SPAN * meet)
        j2 = math.ceil(_SPAN * max(b, meet))
        # both edges together, in units of 1/_SPAN: (_SPAN - j) on [j1, jm), j on [jm, j2)
        edge_mass = _SPAN * (jm - j1) + _sum_below(j1) - 2 * _sum_below(jm) + _sum_below(j2)
        edge_moment = (_SPAN * (_sum_below(jm) - _sum_below(j1))
                       + _squares_below(j1) - 2 * _squares_below(jm) + _squares_below(j2))
        span_mass = a * j1 + b * (_SPAN - j2) + edge_mass / _SPAN
        span_moment = (a * _sum_below(j1) + b * (_sum_below(_SPAN) - _sum_below(j2))
                       + edge_moment / _SPAN)
        mass += span_mass
        # span_moment counts grid steps from the span's first point
        moment += k * _SPAN * span_mass + span_moment
    if mass <= 0.0:
        return universe.midpoint
    step = (universe.upper - universe.lower) / (GRID_POINTS - 1)
    return universe.lower + step * (moment / mass)


def infer_1d(table, in_family: MembershipFamily, out_family: MembershipFamily, x: float) -> float:
    """Single-input Mamdani step; clamps x into the input universe."""
    strengths: dict[str, float] = {}
    for label in LABELS:
        mu = in_family.membership(label, x)
        out_label = table[label]
        if mu > strengths.get(out_label, 0.0):
            strengths[out_label] = mu
    return centroid(strengths, out_family.universe)


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
    return centroid(strengths, out_family.universe)
