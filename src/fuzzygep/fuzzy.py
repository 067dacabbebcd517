"""Mamdani inference for the crossover, mutation and constant-mutation rates.

Every linguistic variable is a Universe, and each carries the same five
labels: XL and XH are shoulders saturating at the ends, ML/M/MH are unit
triangles on the interior breakpoints.  Breakpoints are evenly spaced, so the
labels form a partition of unity.  Implication is min, aggregation is max,
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
from functools import cached_property

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
    """A closed interval and the five labels over it."""

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

    @cached_property
    def breakpoints(self) -> tuple[float, ...]:
        width = self.upper - self.lower
        return tuple(self.lower + k * width / 4.0 for k in range(5))

    def fuzzify(self, x: float) -> list[float]:
        """The five memberships, in LABELS order, of x clamped into the universe.

        Only the two labels of the segment [p[k], p[k+1]] holding x can be
        nonzero: label k falls across it and label k+1 rises.
        """
        p = self.breakpoints
        x = self.clamp(x)
        k = 0
        while k < 3 and x > p[k + 1]:
            k += 1
        mus = [0.0] * 5
        mus[k] = (p[k + 1] - x) / (p[k + 1] - p[k])
        mus[k + 1] = (x - p[k]) / (p[k + 1] - p[k])
        return mus


# grid steps between two adjacent breakpoints
_SPAN = (GRID_POINTS - 1) // 4


def _sum_below(n: int) -> int:
    """0 + 1 + ... + (n - 1)."""
    return n * (n - 1) // 2


def _squares_below(n: int) -> int:
    """0 + 1 + 4 + ... + (n - 1)**2."""
    return (n - 1) * n * (2 * n - 1) // 6


def centroid(s, universe: Universe) -> float:
    """Centre of gravity of the max of the output labels clipped at their
    strengths s (five, in LABELS order), sampled on GRID_POINTS evenly spaced
    points; an all-zero aggregate falls back to the midpoint.

    Between breakpoints k and k+1 (grid steps j = 0.._SPAN, t = j/_SPAN) only
    label k falls (1 - t) and label k+1 rises (t).  With their strengths a
    and b the aggregate is max(min(a, 1 - t), min(b, t)): a plateau at a, the
    falling edge 1 - t, the rising edge t from where the two meet, a plateau
    at b.  Each piece is linear, so its sums over the grid are arithmetic
    series.  Every span owns its steps 0.._SPAN-1; the last grid point is
    added alone.
    """
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


def infer_1d(table, in_universe: Universe, out_universe: Universe, x: float) -> float:
    """Single-input Mamdani step; clamps x into the input universe."""
    strengths = [0.0] * 5
    for label, mu in zip(LABELS, in_universe.fuzzify(x)):
        out = _LABEL_INDEX[table[label]]
        if mu > strengths[out]:
            strengths[out] = mu
    return centroid(strengths, out_universe)


def infer_2d(table, universe_a: Universe, universe_b: Universe,
             out_universe: Universe, a: float, b: float) -> float:
    """Two-input Mamdani step with min conjunction of the antecedents."""
    mus_b = universe_b.fuzzify(b)
    strengths = [0.0] * 5
    for label_a, mu_a in zip(LABELS, universe_a.fuzzify(a)):
        if mu_a == 0.0:
            continue
        for label_b, mu_b in zip(LABELS, mus_b):
            strength = min(mu_a, mu_b)
            out = _LABEL_INDEX[table[(label_a, label_b)]]
            if strength > strengths[out]:
                strengths[out] = strength
    return centroid(strengths, out_universe)
