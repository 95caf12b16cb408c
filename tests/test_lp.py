from fractions import Fraction as F

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_oracles as oracle
from cachecast import lp, polytope, regions
from cachecast.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LpResult, solve_max, solve_square


def test_simple_box():
    res = solve_max([F(1), F(1)], [((F(1), F(0)), F(2)), ((F(0), F(1)), F(3))])
    assert res.status == OPTIMAL
    assert res.value == 5
    assert res.point == (F(2), F(3))


def test_knapsack_corner():
    # max x + y s.t. x + 2y <= 3/2, 3x + y <= 2
    rows = [((F(1), F(2)), F(3, 2)), ((F(3), F(1)), F(2))]
    res = solve_max([F(1), F(1)], rows)
    assert res.value == F(1)
    assert res.point == (F(1, 2), F(1, 2))


def test_row_of_another_length_is_refused():
    # the slack column would overwrite the second coefficient: optimal 0, not a refusal
    with pytest.raises(ValueError, match="^row length does not match the objective's length$"):
        solve_max([1], [([1, 1], 2)])
    with pytest.raises(ValueError, match="^row length does not match the objective's length$"):
        solve_max([1, 1], [([1], 2)])


def test_infeasible():
    res = solve_max([F(1)], [((F(1),), F(-1))])
    assert res.status == INFEASIBLE


def test_unbounded():
    res = solve_max([F(1)], [((F(-1),), F(5))])
    assert res.status == UNBOUNDED


def test_negative_rhs_feasible():
    # x >= 2 encoded as -x <= -2; minimize x by maximizing -x
    res = solve_max([F(-1)], [((F(-1),), F(-2))])
    assert res.status == OPTIMAL
    assert res.value == F(-2)


def test_equality_via_two_rows():
    # y = 3/7 pinned by a pair of rows, maximize x + y with x + y <= 1
    rows = [
        ((F(0), F(1)), F(3, 7)),
        ((F(0), F(-1)), F(-3, 7)),
        ((F(1), F(1)), F(1)),
    ]
    res = solve_max([F(1), F(1)], rows)
    assert res.value == F(1)
    assert res.point[1] == F(3, 7)


def test_degenerate_redundant_rows():
    rows = [((F(1),), F(1)), ((F(2),), F(2)), ((F(1),), F(1))]
    res = solve_max([F(1)], rows)
    assert res.value == F(1)


@pytest.mark.parametrize("trial", range(40))
def test_against_float_solver(trial):
    """Random small LPs agree with scipy's solver (float tolerance)."""
    rng = np.random.default_rng(1000 + trial)
    n = int(rng.integers(1, 5))
    m = int(rng.integers(1, 7))
    A = rng.integers(-4, 5, size=(m, n))
    b = rng.integers(-3, 10, size=m)
    c = rng.integers(-4, 5, size=n)

    ours = solve_max(
        [F(int(v)) for v in c],
        [(tuple(F(int(a)) for a in row), F(int(rhs))) for row, rhs in zip(A, b)],
    )
    # presolve off: HiGHS presolve may label unbounded problems infeasible
    ref = scipy.optimize.linprog(
        -c, A_ub=A, b_ub=b, bounds=[(0, None)] * n, method="highs",
        options={"presolve": False},
    )
    if ours.status == OPTIMAL:
        assert ref.status == 0
        assert abs(float(ours.value) - (-ref.fun)) < 1e-7
        # claimed maximizer is feasible and attains the value
        point = np.array([float(v) for v in ours.point])
        assert np.all(A @ point <= b + 1e-9)
        assert np.all(point >= -1e-12)
    elif ours.status == INFEASIBLE:
        assert ref.status == 2
    else:
        assert ref.status == 3


def test_solve_square_exact():
    sol = solve_square([[F(2), F(1)], [F(1), F(3)]], [F(5), F(10)])
    assert sol == [F(1), F(3)]


def test_solve_square_singular():
    assert solve_square([[F(1), F(2)], [F(2), F(4)]], [F(1), F(2)]) is None


def test_float_refused_by_solve_max():
    with pytest.raises(TypeError):
        solve_max([0.1], [((1,), F(3, 10))])
    with pytest.raises(TypeError):
        solve_max([F(1, 10)], [((1,), 0.3)])
    with pytest.raises(TypeError):
        solve_max([1], [((np.float64(0.5),), 1)])


def test_float_refused_by_solve_square():
    with pytest.raises(TypeError):
        solve_square([[0.5]], [F(1)])
    with pytest.raises(TypeError):
        solve_square([[F(1, 2)]], [1.0])


def test_exact_inputs_other_than_fraction():
    res = solve_max([1, "1/2"], [(("1", 2), "3/2"), ((3, np.int64(1)), 2)])
    assert res == LpResult(OPTIMAL, F(3, 4), (F(1, 2), F(1, 2)))
    assert solve_square([["2", 1], [1, 3]], [5, "10"]) == [F(1), F(3)]


def test_phase_one_drives_out_an_artificial_on_a_negative_pivot(monkeypatch):
    """max x s.t. 2x >= 1, 2x <= 1.  Phase 1 ends at value 0 with the
    artificial of the first row still basic (Bland's tie-break lets x enter
    in the second row); driving it out pivots on its slack entry, which is
    negative, so the denominator must be renormalised to stay positive."""
    pivots = []
    real_pivot = lp._pivot

    def spy(tab, basis, row, col, d):
        pivots.append(tab[row][col])
        return real_pivot(tab, basis, row, col, d)

    monkeypatch.setattr(lp, "_pivot", spy)
    rows = [((F(-2),), F(-1)), ((F(2),), F(1))]
    res = solve_max([F(1)], rows)
    assert any(p < 0 for p in pivots)
    assert res == LpResult(OPTIMAL, F(1, 2), (F(1, 2),))
    assert res == oracle.solve_max([F(1)], rows)


def test_phase_one_costs_follow_the_row_scales():
    """Rows scaled to integers by 6 and 1 must keep the unscaled phase-1
    objective (each artificial costs 1 over its row's scale); unit costs
    would pivot differently and return another feasible point."""
    rows = [((F(-2, 3), F(-1, 2)), F(-1)), ((F(1, 2), F(0)), F(1, 3)), ((F(1), F(-1)), F(-1))]
    res = solve_max([F(0), F(0)], rows)
    assert res == LpResult(OPTIMAL, F(0), (F(3, 7), F(10, 7)))
    assert res == oracle.solve_max([F(0), F(0)], rows)


# small rationals; st.fractions is exact too but several times slower to draw
COEFF = st.builds(F, st.integers(-12, 12), st.sampled_from([1, 1, 2, 3, 5]))
RHS = st.builds(F, st.integers(-12, 18), st.sampled_from([1, 1, 2, 7]))


@st.composite
def random_lps(draw):
    n = draw(st.integers(0, 6))
    rows = draw(st.lists(st.tuples(st.lists(COEFF, min_size=n, max_size=n), RHS), max_size=8))
    if rows and draw(st.booleans()):  # an equality as a pair of rows
        coeffs, b = rows[draw(st.integers(0, len(rows) - 1))]
        rows.append((tuple(-c for c in coeffs), -b))
    if rows and draw(st.booleans()):  # a duplicated row
        rows.append(rows[draw(st.integers(0, len(rows) - 1))])
    rows = [(tuple(coeffs), b) for coeffs, b in draw(st.permutations(rows))[:8]]
    objective = [F(0)] * n if draw(st.booleans()) else draw(st.lists(COEFF, min_size=n, max_size=n))
    return objective, rows


@given(lp_instance=random_lps())
@settings(max_examples=300, deadline=None)
def test_matches_fraction_tableau(lp_instance):
    objective, rows = lp_instance
    assert solve_max(objective, rows) == oracle.solve_max(objective, rows)


@given(lp_instance=random_lps(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_warm_started_objectives_reach_cold_values(lp_instance, data):
    """Several objectives over one row set, each after the basis the last one
    ended in (an unbounded one included), against cold Fraction solves."""
    first, rows = lp_instance
    n = len(first)
    objectives = [first] + data.draw(st.lists(st.lists(COEFF, min_size=n, max_size=n), max_size=4))
    scaled = [lp._integer_row([*coeffs, b]) for coeffs, b in rows]
    results = list(lp.maximize_each(n, scaled, map(lp._integer_row, objectives)))
    assert results[0] == solve_max(first, rows)
    for objective, result in zip(objectives, results, strict=True):
        expected = oracle.solve_max(objective, rows)
        assert (result.status, result.value) == (expected.status, expected.value)


def _fraction_lp(rows, objective):
    """The Fraction objective and rows an integer LP stands for."""
    scale, cint = objective
    return (
        [F(v, scale) for v in cint],
        [(tuple(F(v, lam) for v in ints[:-1]), F(ints[-1], lam)) for lam, ints in rows],
    )


def test_matches_fraction_tableau_on_region_equalities(monkeypatch):
    """Every LP of the verify-style region certification (FM, prune, both
    containment directions), K 2..5, every group size, three strengths each.
    `regions_equal` certifies most rows by one dominating row and solves no
    LP for them, so each direction's rows also go through `_implies`
    directly, every row an LP, as `prune`'s do.  Each LP is recorded where
    the region layer solves it, the integer core `maximize_each`, with its
    row set: a warm-started objective must reach the cold-started value, and
    the first objective on a row set is solved cold, so its whole result
    (maximizer included) must match."""
    seen = []
    real_maximize = polytope.maximize_each

    def record(n, rows, objectives):
        rows, asked = list(rows), []

        def tracked():
            for objective in objectives:
                asked.append(objective)
                yield objective

        for result in real_maximize(n, rows, tracked()):
            seen.append((rows, asked[-1], len(asked) > 1, result))
            yield result

    monkeypatch.setattr(polytope, "maximize_each", record)
    rng = np.random.default_rng(6)
    for K in range(2, 6):
        for sigma in range(2, K + 1):
            for _ in range(3):
                denom = int(rng.integers(8, 40))
                cuts = sorted(int(rng.integers(1, denom)) for _ in range(K - 1))
                alpha = tuple(F(c, denom) for c in cuts) + (F(1),)
                system = regions.beta_parameterized_polytope(K, sigma, alpha)
                projected = polytope.prune(polytope.eliminate(system, regions.beta_names(K)))
                theorem = regions.build_region(K, sigma, alpha)
                assert polytope.regions_equal(projected, theorem)
                for outer, inner in ((projected, theorem), (theorem, projected)):
                    assert polytope._implies(len(inner.variables), inner.int_rows, outer.int_rows)
    assert len(seen) > 300
    assert sum(warm for _, _, warm, _ in seen) > 100
    for rows, objective, warm, result in seen:
        expected = oracle.solve_max(*_fraction_lp(rows, objective))
        if warm:
            assert (result.status, result.value) == (expected.status, expected.value)
        else:
            assert result == expected


@st.composite
def square_systems(draw):
    n = draw(st.integers(0, 5))
    matrix = draw(st.lists(st.lists(COEFF, min_size=n, max_size=n), min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):  # a dependent row: singular
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        k = draw(COEFF)
        matrix[i] = [k * v for v in matrix[j]] if i != j else [F(0)] * n
    return matrix, draw(st.lists(RHS, min_size=n, max_size=n))


@given(system=square_systems())
@settings(max_examples=200, deadline=None)
def test_solve_square_matches_gauss_jordan(system):
    matrix, rhs = system
    assert solve_square(matrix, rhs) == oracle.solve_square(matrix, rhs)
