import math
import random

import pytest

import oracles
from fuzzygep.bench import builtin, problem_names


def test_registry_names_and_count():
    names = problem_names()
    assert names == tuple(f"f{i}" for i in range(1, 13))


def test_unknown_problem_rejected():
    with pytest.raises(ValueError):
        builtin("f13")
    with pytest.raises(ValueError):
        builtin("sphere")


def test_fixed_dimensions_enforced():
    assert builtin("f2").dim == 2
    assert builtin("f2", 2).dim == 2
    with pytest.raises(ValueError):
        builtin("f2", 3)
    assert builtin("f5").dim == 1
    assert builtin("f7").dim == 1
    with pytest.raises(ValueError):
        builtin("f7", 2)


def test_scalable_dimensions():
    assert builtin("f1").dim == 2
    assert builtin("f1", 6).dim == 6
    assert builtin("f9").dim == 30
    assert builtin("f10").dim == 30
    assert builtin("f11").dim == 50
    assert builtin("f12").dim == 50
    assert builtin("f12", 10).dim == 10
    with pytest.raises(ValueError):
        builtin("f9", 0)


def test_bounds_directions_optima():
    expected = {
        "f1": (-5.12, 5.12, "minimize", 0.0),
        "f2": (-2.048, 2.048, "minimize", 0.0),
        "f3": (-100.0, 100.0, "minimize", 0.0),
        "f4": (-100.0, 100.0, "minimize", 0.0),
        "f5": (0.0, 18.0, "minimize", 0.0),
        "f6": (0.0, 10.0, "maximize", 18.5547210767),
        "f7": (-1.0, 2.0, "maximize", 2.8502737668),
        "f8": (-2.0, 2.0, "minimize", 3.0),
        "f9": (-10.0, 10.0, "minimize", 0.0),
        "f10": (-10.0, 10.0, "minimize", 0.0),
        "f11": (-10.0, 10.0, "minimize", 0.0),
        "f12": (-32.0, 32.0, "minimize", 0.0),
    }
    for name, (lo, hi, direction, opt) in expected.items():
        p = builtin(name)
        assert (p.lower, p.upper, p.direction, p.known_optimum) == (lo, hi, direction, opt)


def test_extra_operator_sets():
    assert builtin("f1").extra_operators == ()
    assert builtin("f3").extra_operators == ("S", "Q")
    assert builtin("f4").extra_operators == ("S", "Q")
    assert builtin("f5").extra_operators == ("C", "E")
    assert builtin("f6").extra_operators == ("S",)
    assert builtin("f7").extra_operators == ("S", "C")
    assert builtin("f11").extra_operators == ("S",)
    assert builtin("f12").extra_operators == ("S", "C", "Q", "E")


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        builtin("f1", 2).evaluate([1.0, 2.0, 3.0])


def test_known_point_values():
    assert builtin("f1").evaluate([0.0, 0.0]) == 0.0
    assert builtin("f2").evaluate([1.0, 1.0]) == 0.0
    assert builtin("f3").evaluate([0.0, 0.0]) == 0.0
    assert builtin("f4").evaluate([0.0, 0.0]) == 0.0
    assert builtin("f8").evaluate([0.0, -1.0]) == 3.0
    assert builtin("f9", 30).evaluate([0.0] * 30) == 0.0
    assert builtin("f10", 30).evaluate([0.0] * 30) == 0.0
    assert builtin("f11", 50).evaluate([0.0] * 50) == 0.0
    assert builtin("f1", 2).evaluate([1.0, 2.0]) == 5.0
    assert builtin("f9", 3).evaluate([1.0, 1.0, 1.0]) == 6.0
    assert builtin("f10", 3).evaluate([2.0, 2.0, 2.0]) == 14.0


def test_ackley_origin_residue():
    """Finite-precision residue of the analytic zero at the origin."""
    v = builtin("f12", 50).evaluate([0.0] * 50)
    assert abs(v - 4.440892098500626e-16) <= 1e-18
    assert builtin("f12", 30).evaluate([0.0] * 30) == v


def test_minimizers_reach_optima():
    cases = {
        "f1": [0.0, 0.0],
        "f2": [1.0, 1.0],
        "f3": [0.0, 0.0],
        "f4": [0.0, 0.0],
        "f5": [math.pi / 1.6],
        "f8": [0.0, -1.0],
        "f9": [0.0] * 30,
        "f10": [0.0] * 30,
        "f11": [0.0] * 50,
        "f12": [0.0] * 50,
    }
    for name, x in cases.items():
        p = builtin(name)
        assert abs(p.evaluate(x) - p.known_optimum) <= 1e-12, name


def test_maximizer_optima_match_refined_search():
    f7 = builtin("f7")
    refined = oracles.refined_max_1d(lambda t: oracles.ref_f7([t]), f7.lower, f7.upper)
    assert abs(refined - f7.known_optimum) < 1e-6
    f6 = builtin("f6")
    # separable: max over x of -x sin(4x) plus max over y of -1.1 y sin(2y)
    part_x = oracles.refined_max_1d(lambda t: -t * math.sin(4.0 * t), f6.lower, f6.upper)
    part_y = oracles.refined_max_1d(lambda t: -1.1 * t * math.sin(2.0 * t), f6.lower, f6.upper)
    assert abs(part_x + part_y - f6.known_optimum) < 1e-6


def test_symmetry_properties():
    rng = random.Random(6)
    f3 = builtin("f3")
    f4 = builtin("f4")
    f12 = builtin("f12", 8)
    for _ in range(50):
        x = [rng.uniform(-50.0, 50.0) for _ in range(2)]
        assert f3.evaluate(x) == f3.evaluate([x[1], x[0]])
        assert f4.evaluate(x) == f4.evaluate([-x[0], -x[1]])
        y = [rng.uniform(-20.0, 20.0) for _ in range(8)]
        assert f12.evaluate(y) == f12.evaluate([-v for v in y])


def test_non_negativity_on_box():
    rng = random.Random(8)
    for name in ("f1", "f2", "f3", "f4", "f5", "f9", "f10", "f11", "f12"):
        p = builtin(name)
        for _ in range(200):
            x = [rng.uniform(p.lower, p.upper) for _ in range(p.dim)]
            assert p.evaluate(x) >= 0.0, name


def test_matches_independent_implementation_exactly():
    rng = random.Random(2024)
    for name in problem_names():
        p = builtin(name)
        ref = oracles.REF_BENCH[name]
        for _ in range(1000):
            x = [rng.uniform(p.lower, p.upper) for _ in range(p.dim)]
            assert p.evaluate(x) == ref(x), name
