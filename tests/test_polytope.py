from fractions import Fraction as F

import pytest

from cachecast.polytope import (
    Polytope,
    canonical,
    eliminate,
    fix_variables,
    prune,
    region_contains,
    regions_equal,
    vertices,
)


def box(a=1, b=1):
    return Polytope.build(["x", "y"], [((1, 0), a), ((0, 1), b)])


def test_contains_and_nonnegativity():
    p = box()
    assert p.contains({"x": F(1, 2), "y": 1})
    assert not p.contains({"x": 2, "y": 0})
    assert not p.contains({"x": -1, "y": 0})


def test_build_refuses_float_coefficient():
    with pytest.raises(TypeError):
        Polytope.build(["x", "y"], [((1, 0.1), 1)])
    with pytest.raises(TypeError):
        Polytope.build(["x", "y"], [((1, 0), 0.1)])


def test_mapping_requires_all_coordinates():
    with pytest.raises(ValueError):
        box().contains({"x": 0})


def test_equality_of_identical_regions():
    assert regions_equal(box(), box())


def test_equality_rejects_shrunk_rhs():
    smaller = Polytope.build(["x", "y"], [((1, 0), F(99, 100)), ((0, 1), 1)])
    assert not regions_equal(box(), smaller)
    assert region_contains(box(), smaller)
    assert not region_contains(smaller, box())


def test_scaled_rows_are_equal_regions():
    doubled = Polytope.build(["x", "y"], [((2, 0), 2), ((0, 3), 3)])
    assert regions_equal(box(), doubled)


def test_eliminate_absent_variable():
    p = Polytope.build(["x", "y"], [((1, 0), 1)])
    q = eliminate(p, ["y"])
    assert q.variables == ("x",)
    assert q.rows == (((F(1),), F(1)),)


def test_eliminate_couples_bounds():
    # x <= y, y <= 2  --projected on x-->  x <= 2
    p = Polytope.build(["x", "y"], [((1, -1), 0), ((0, 1), 2)])
    q = prune(eliminate(p, ["y"]))
    assert q.variables == ("x",)
    assert regions_equal(q, Polytope.build(["x"], [((1,), 2)]))


def test_eliminate_uses_nonnegativity_of_dropped_variable():
    # x + y <= 1 with y >= 0 projects to x <= 1
    p = Polytope.build(["x", "y"], [((1, 1), 1)])
    q = prune(eliminate(p, ["y"]))
    assert regions_equal(q, Polytope.build(["x"], [((1,), 1)]))


def test_elimination_is_exact_projection():
    """Membership in the projection == liftability in the original region."""
    import numpy as np

    from cachecast.lp import INFEASIBLE

    rng = np.random.default_rng(77)
    for _ in range(25):
        nvars = int(rng.integers(2, 5))
        nrows = int(rng.integers(1, 5))
        names = [f"x{j}" for j in range(nvars)]
        rows = [
            (
                tuple(F(int(c)) for c in rng.integers(-3, 4, size=nvars)),
                F(int(rng.integers(0, 6))),
            )
            for _ in range(nrows)
        ]
        poly = Polytope.build(names, rows)
        dropped = names[int(rng.integers(0, nvars))]
        projected = eliminate(poly, [dropped])
        for _ in range(12):
            point = {n: F(int(rng.integers(0, 5)), 2) for n in projected.variables}
            # lift: pin the kept coordinates, ask the LP if any value of the
            # dropped coordinate stays feasible
            pinned = fix_variables(poly, point)
            liftable = pinned.maximize({dropped: 0}).status != INFEASIBLE
            assert projected.contains(point) == liftable


def test_prune_drops_implied_row():
    p = Polytope.build(["x", "y"], [((1, 1), 2), ((1, 0), 3)])
    assert len(prune(p).rows) == 1


def test_canonical_sorts_and_scales():
    p = Polytope.build(["x", "y"], [((0, 2), 2), ((3, 0), 3)])
    assert canonical(p).rows == (
        ((F(0), F(1)), F(1)),
        ((F(1), F(0)), F(1)),
    )


def test_fix_variables():
    p = Polytope.build(["x", "y"], [((1, 2), 3)])
    q = fix_variables(p, {"y": 1})
    assert q.variables == ("x",)
    assert q.rows == (((F(1),), F(1)),)


def test_vertices_of_simplex():
    p = Polytope.build(["x", "y"], [((1, 1), 1)])
    assert vertices(p) == [(F(0), F(0)), (F(0), F(1)), (F(1), F(0))]


def test_vertices_of_shifted_box():
    p = box(a=F(1, 3), b=F(2, 5))
    assert set(vertices(p)) == {
        (F(0), F(0)),
        (F(0), F(2, 5)),
        (F(1, 3), F(0)),
        (F(1, 3), F(2, 5)),
    }


def test_empty_region_detected():
    p = Polytope.build(["x"], [((-1,), -1), ((1,), F(1, 2))])  # x >= 1, x <= 1/2
    assert p.is_empty()
    assert vertices(p) == []


def test_json_round_trip():
    p = box(a=F(7, 3))
    q = Polytope.from_json(p.to_json())
    assert q == p


def test_maximize_reports_unbounded():
    p = Polytope.build(["x", "y"], [((1, 0), 1)])
    assert p.maximize({"y": 1}).status == "unbounded"
