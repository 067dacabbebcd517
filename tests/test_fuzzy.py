import math
import random

import numpy as np
import pytest

import oracles
from fuzzygep.fuzzy import (
    CONSTANT_MUTATION_RULES,
    CROSSOVER_RULES,
    LABELS,
    MUTATION_RULES,
    MembershipFamily,
    Universe,
    centroid,
    infer_1d,
    infer_2d,
)

DIVERSITY = MembershipFamily(Universe(0.6, 1.0))
CROSSOVER_OUT = MembershipFamily(Universe(0.1, 0.3))
MUTATION_OUT = MembershipFamily(Universe(0.05, 0.25))
CONSTANT_OUT = MembershipFamily(Universe(0.0, 0.5))
ITERATION = MembershipFamily(Universe(500.0, 1000.0))


def test_universe_validation_and_clamp():
    with pytest.raises(ValueError):
        Universe(1.0, 1.0)
    u = Universe(0.6, 1.0)
    assert u.clamp(0.2) == 0.6
    assert u.clamp(1.7) == 1.0
    assert u.midpoint == pytest.approx(0.8)


def test_breakpoints_evenly_spaced():
    assert DIVERSITY.breakpoints == pytest.approx((0.6, 0.7, 0.8, 0.9, 1.0), abs=1e-12)
    assert CONSTANT_OUT.breakpoints == pytest.approx((0.0, 0.125, 0.25, 0.375, 0.5), abs=1e-12)


def test_membership_shapes():
    assert DIVERSITY.membership("XL", 0.6) == 1.0
    assert DIVERSITY.membership("XL", 0.55) == 1.0  # clamped into universe
    assert DIVERSITY.membership("XL", 0.7) == 0.0
    assert DIVERSITY.membership("XH", 1.0) == 1.0
    assert DIVERSITY.membership("XH", 0.9) == 0.0
    assert DIVERSITY.membership("M", 0.8) == pytest.approx(1.0, abs=1e-12)
    assert DIVERSITY.membership("ML", 0.75) == pytest.approx(0.5, abs=1e-9)
    assert DIVERSITY.membership("MH", 0.95) == pytest.approx(0.5, abs=1e-9)
    assert DIVERSITY.membership("M", 0.65) == 0.0


def test_partition_of_unity():
    for family in (DIVERSITY, CROSSOVER_OUT, MUTATION_OUT, CONSTANT_OUT, ITERATION):
        lo, hi = family.universe.lower, family.universe.upper
        for x in np.linspace(lo, hi, 101):
            total = sum(family.fuzzify(float(x)))
            assert total == pytest.approx(1.0, abs=1e-9)


def test_rule_tables_pinned():
    assert CROSSOVER_RULES == {"XL": "XH", "ML": "MH", "M": "M", "MH": "ML", "XH": "XL"}
    assert MUTATION_RULES == {label: label for label in LABELS}
    assert CONSTANT_MUTATION_RULES[("XL", "XL")] == "XL"
    assert CONSTANT_MUTATION_RULES[("XL", "XH")] == "M"
    assert CONSTANT_MUTATION_RULES[("M", "M")] == "M"
    assert CONSTANT_MUTATION_RULES[("XH", "XH")] == "XH"
    assert CONSTANT_MUTATION_RULES[("MH", "XH")] == "XH"
    assert CONSTANT_MUTATION_RULES[("XH", "XL")] == "M"
    assert len(CONSTANT_MUTATION_RULES) == 25


def test_centroid_fallback_and_symmetry():
    for universe in (Universe(0.0, 1.0), CROSSOVER_OUT.universe, CONSTANT_OUT.universe):
        assert centroid({}, universe) == universe.midpoint
        assert centroid(dict.fromkeys(LABELS, 0.0), universe) == universe.midpoint
        for strength in (1.0, 0.5, 0.3):
            mine = centroid({"M": strength}, universe)
            assert abs(mine - universe.midpoint) <= 4 * math.ulp(universe.midpoint)


def _assert_near_grid(mine, strengths, universe):
    """mine is within 32 ulps of the numpy defuzzifier's centroid."""
    ref = oracles.ref_defuzzify(strengths, universe)
    assert abs(mine - ref) <= 32 * math.ulp(ref), (strengths, universe, mine, ref)


def test_closed_form_centroid_matches_1001_point_grid():
    """The closed form sums the same grid as the numpy defuzzifier it
    replaced, so the two agree to within rounding."""
    rng = random.Random(12)
    pairs = list(zip(LABELS, LABELS[1:]))
    cases = [{label: 1.0} for label in LABELS]
    # strengths of 0 and 1, and 0.5/0.2, whose cuts 1-a, a, b and 1-b fall on grid points
    for a in (0.0, 0.2, 0.5, 1.0):
        for b in (0.0, 0.2, 0.5, 1.0):
            cases += [{lo: a, hi: b} for lo, hi in pairs]
    for _ in range(200):
        lo, hi = rng.choice(pairs)
        cases.append({lo: rng.random(), hi: rng.random()})
        cases.append({label: rng.random() for label in LABELS})
        cases.append({label: rng.choice((0.0, 0.2, 0.5, 1.0, rng.random())) for label in LABELS})
    for family in (CROSSOVER_OUT, MUTATION_OUT, CONSTANT_OUT):
        universe = family.universe
        for strengths in cases:
            _assert_near_grid(centroid(strengths, universe), strengths, universe)


def _strongest(fired):
    """Max aggregation of (output label, strength) pairs, as the controllers do it."""
    strengths = {}
    for label, strength in fired:
        strengths[label] = max(strengths.get(label, 0.0), strength)
    return strengths


def test_controllers_match_1001_point_grid_on_input_grid():
    xs = [float(x) for x in np.linspace(0.6, 1.0, 101)]
    gs = [float(g) for g in np.linspace(500.0, 1000.0, 101)]
    for table, out in ((CROSSOVER_RULES, CROSSOVER_OUT), (MUTATION_RULES, MUTATION_OUT)):
        for x in xs:
            strengths = _strongest((table[label], DIVERSITY.membership(label, x)) for label in LABELS)
            _assert_near_grid(infer_1d(table, DIVERSITY, out, x), strengths, out.universe)
    for g in gs:
        for x in xs:
            strengths = _strongest(
                (CONSTANT_MUTATION_RULES[(la, lb)],
                 min(ITERATION.membership(la, g), DIVERSITY.membership(lb, x)))
                for la in LABELS for lb in LABELS)
            mine = infer_2d(CONSTANT_MUTATION_RULES, ITERATION, DIVERSITY, CONSTANT_OUT, g, x)
            _assert_near_grid(mine, strengths, CONSTANT_OUT.universe)


def test_single_rule_centroids():
    """Interior triangles defuzzify to their peaks when one rule fires alone."""
    assert infer_1d(CROSSOVER_RULES, DIVERSITY, CROSSOVER_OUT, 0.8) == pytest.approx(0.2, abs=1e-9)
    assert infer_1d(MUTATION_RULES, DIVERSITY, MUTATION_OUT, 0.8) == pytest.approx(0.15, abs=1e-9)
    assert infer_2d(CONSTANT_MUTATION_RULES, ITERATION, DIVERSITY, CONSTANT_OUT,
                    750.0, 0.8) == pytest.approx(0.25, abs=1e-9)


def test_shoulder_centroids_match_exact_integrals():
    """Saturated end labels; values from exact integration of the clipped shape."""
    # XH shoulder on [0.1, 0.3]: plateau [0.25, 0.3] -> centroid 7/30
    assert infer_1d(MUTATION_RULES, DIVERSITY, MUTATION_OUT, 1.0) == pytest.approx(0.25 - 0.1 / 6.0, abs=5e-4)
    # XL shoulder on [0.1, 0.3]: mirrored -> 0.1 + 0.1/6
    assert infer_1d(CROSSOVER_RULES, DIVERSITY, CROSSOVER_OUT, 1.0) == pytest.approx(0.1 + 0.1 / 6.0, abs=5e-4)
    # XL on [0, 0.5] (both inputs at their lower shoulders)
    assert infer_2d(CONSTANT_MUTATION_RULES, ITERATION, DIVERSITY, CONSTANT_OUT,
                    500.0, 0.6) == pytest.approx(0.125 / 3.0, abs=5e-4)
    # XH on [0, 0.5]
    assert infer_2d(CONSTANT_MUTATION_RULES, ITERATION, DIVERSITY, CONSTANT_OUT,
                    1000.0, 1.0) == pytest.approx(0.5 - 0.125 / 3.0, abs=5e-4)


def test_inference_matches_oracle_spot_checks():
    rng = random.Random(4)
    for _ in range(60):
        d = rng.uniform(0.55, 1.05)
        mine = infer_1d(CROSSOVER_RULES, DIVERSITY, CROSSOVER_OUT, d)
        ref = oracles.ref_infer_1d(oracles.REF_CROSSOVER_RULES, (0.6, 1.0), (0.1, 0.3), d)
        assert mine == pytest.approx(ref, abs=1e-3)
        mine = infer_1d(MUTATION_RULES, DIVERSITY, MUTATION_OUT, d)
        ref = oracles.ref_infer_1d(oracles.REF_MUTATION_RULES, (0.6, 1.0), (0.05, 0.25), d)
        assert mine == pytest.approx(ref, abs=1e-3)
        g = rng.uniform(480.0, 1020.0)
        mine = infer_2d(CONSTANT_MUTATION_RULES, ITERATION, DIVERSITY, CONSTANT_OUT, g, d)
        ref = oracles.ref_infer_2d(oracles.REF_CONSTANT_RULES, (500.0, 1000.0), (0.6, 1.0),
                                   (0.0, 0.5), g, d)
        assert mine == pytest.approx(ref, abs=1e-3)


def test_mixed_strength_2d_inference():
    mine = infer_2d(CONSTANT_MUTATION_RULES, ITERATION, DIVERSITY, CONSTANT_OUT, 800.0, 0.95)
    ref = oracles.ref_infer_2d(oracles.REF_CONSTANT_RULES, (500.0, 1000.0), (0.6, 1.0),
                               (0.0, 0.5), 800.0, 0.95)
    assert mine == pytest.approx(ref, abs=1e-3)
    assert mine == pytest.approx(0.385443, abs=1e-3)


def test_inputs_clamped_into_universe():
    lo = infer_1d(CROSSOVER_RULES, DIVERSITY, CROSSOVER_OUT, 0.2)
    assert lo == infer_1d(CROSSOVER_RULES, DIVERSITY, CROSSOVER_OUT, 0.6)
    hi = infer_1d(CROSSOVER_RULES, DIVERSITY, CROSSOVER_OUT, 2.0)
    assert hi == infer_1d(CROSSOVER_RULES, DIVERSITY, CROSSOVER_OUT, 1.0)


def test_outputs_stay_inside_universe():
    rng = random.Random(9)
    for _ in range(200):
        d = rng.uniform(0.0, 2.0)
        g = rng.uniform(0.0, 2000.0)
        assert 0.1 <= infer_1d(CROSSOVER_RULES, DIVERSITY, CROSSOVER_OUT, d) <= 0.3
        assert 0.05 <= infer_1d(MUTATION_RULES, DIVERSITY, MUTATION_OUT, d) <= 0.25
        assert 0.0 <= infer_2d(CONSTANT_MUTATION_RULES, ITERATION, DIVERSITY,
                               CONSTANT_OUT, g, d) <= 0.5


def test_monotone_rate_responses():
    ds = np.linspace(0.6, 1.0, 101)
    cross = [infer_1d(CROSSOVER_RULES, DIVERSITY, CROSSOVER_OUT, float(d)) for d in ds]
    mut = [infer_1d(MUTATION_RULES, DIVERSITY, MUTATION_OUT, float(d)) for d in ds]
    for a, b in zip(cross, cross[1:]):
        assert b <= a + 1e-12
    for a, b in zip(mut, mut[1:]):
        assert b >= a - 1e-12
