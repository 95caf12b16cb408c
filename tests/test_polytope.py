import random
import re
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraction_oracles as oracle
from cachecast import polytope
from cachecast.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_max, solve_square
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
from cachecast.regions import (
    beta_names,
    beta_parameterized_polytope,
    build_missing_message_region,
    build_region,
    build_two_multicast_symmetric,
    symmetric_projection,
)
from cachecast.tradeoff import SystemConfig, gdof_region_inner, topological_hole_region


def box(a=1, b=1):
    return Polytope(["x", "y"], [((1, 0), a), ((0, 1), b)])


def test_contains_and_nonnegativity():
    p = box()
    assert p.contains({"x": F(1, 2), "y": 1})
    assert not p.contains({"x": 2, "y": 0})
    assert not p.contains({"x": -1, "y": 0})


def test_contains_refuses_a_point_of_the_wrong_length():
    with pytest.raises(ValueError, match="^point length does not match variable count$"):
        box().contains((F(1, 2),))


def test_build_refuses_float_coefficient():
    with pytest.raises(TypeError):
        Polytope(["x", "y"], [((1, 0.1), 1)])
    with pytest.raises(TypeError):
        Polytope(["x", "y"], [((1, 0), 0.1)])


def test_mapping_requires_all_coordinates():
    with pytest.raises(ValueError):
        box().contains({"x": 0})


def test_equality_of_identical_regions():
    assert regions_equal(box(), box())


def test_equality_rejects_shrunk_rhs():
    smaller = Polytope(["x", "y"], [((1, 0), F(99, 100)), ((0, 1), 1)])
    assert not regions_equal(box(), smaller)
    assert region_contains(box(), smaller)
    assert not region_contains(smaller, box())


def test_scaled_rows_are_equal_regions():
    doubled = Polytope(["x", "y"], [((2, 0), 2), ((0, 3), 3)])
    assert regions_equal(box(), doubled)


def oracle_contains(outer, inner):
    """Every outer row is implied by the inner rows, each LP solved cold by the Fraction oracle."""
    for coeffs, rhs in outer.rows:
        result = oracle.solve_max(coeffs, inner.rows)
        if result.status == UNBOUNDED or (result.status == OPTIMAL and result.value > rhs):
            return False
    return True


@st.composite
def region_pairs(draw):
    """(outer, inner) on one variable tuple; the outer rows are often relaxed
    inner rows, so containment holds in a good share of the draws."""
    n = draw(st.integers(1, 4))
    value = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    rhs = st.fractions(min_value=-2, max_value=5, max_denominator=2)
    row = st.tuples(st.tuples(*[value] * n), rhs)
    inner = draw(st.lists(row, max_size=6))
    # each relaxed copy is also rescaled by k > 0, so one-row dominance is
    # checked across scales
    scale = st.sampled_from([1, 2, F(3, 2)])
    outer = [(tuple(k * c for c in coeffs), k * (b + draw(st.fractions(0, 2, max_denominator=2))))
             for (coeffs, b), k in draw(st.lists(st.tuples(st.sampled_from(inner), scale), max_size=4))
             ] if inner else []
    outer += draw(st.lists(row, max_size=2))
    if draw(st.booleans()):
        outer.append(((0,) * n, -1))  # 0 <= -1
    names = [f"x{j}" for j in range(n)]
    return Polytope(names, draw(st.permutations(outer))), Polytope(names, inner)


XY = ["x", "y"]


@given(pair=region_pairs())
@example(pair=(Polytope(XY, [((1, 1), 1)]), Polytope(XY, [((1, 0), -1)])))  # empty inner
@example(pair=(Polytope(XY, [((0, 0), -1)]), Polytope(XY, [((-1, -1), -3), ((1, 1), 2)])))
@example(pair=(Polytope(XY, [((1, 0), 2), ((-1, 0), 0)]),
               Polytope(XY, [((-1, 0), -1), ((1, 0), 2), ((0, 1), 1)])))  # phase 1 needed
@example(pair=(Polytope(XY, [((1, 0), F(3, 2))]),
               Polytope(XY, [((-1, 0), -1), ((1, 0), 2)])))
@example(pair=(Polytope(XY, [((1, 0), 5), ((0, 1), 5)]),
               Polytope(XY, [((1, 0), 1)])))  # y is unbounded
@example(pair=(Polytope(XY, [((1, 0), 1), ((0, 0), -1)]), box()))  # 0 <= -1
@settings(max_examples=300, deadline=None)
@pytest.mark.slow
def test_warm_started_containment_matches_cold_lps(pair):
    outer, inner = pair
    assert region_contains(outer, inner) == oracle_contains(outer, inner)


def test_containment_special_cases():
    """The cases the warm start must not get wrong, each with its answer."""
    empty = Polytope(XY, [((1, 0), -1)])
    assert region_contains(Polytope(XY, [((0, 0), -1)]), empty)
    assert region_contains(box(), Polytope(XY, [((-1, 0), -1), ((1, 0), 1), ((0, 1), 1)]))
    assert not region_contains(box(), Polytope(XY, [((-1, 0), -1), ((1, 0), 2), ((0, 1), 1)]))
    assert not region_contains(box(), Polytope(XY, [((1, 0), 1)]))
    assert not region_contains(Polytope(XY, [((1, 0), 1), ((0, 0), -1)]), box())
    assert region_contains(Polytope(XY, []), empty)


def test_containment_refuses_regions_over_different_variables():
    with pytest.raises(ValueError, match="^regions must share an identical variable tuple$"):
        region_contains(box(), Polytope(("x", "z"), [((1, 0), 1), ((0, 1), 1)]))


def no_lp(monkeypatch):
    def refuse(*args):
        raise AssertionError("an LP was solved")

    monkeypatch.setattr(polytope, "maximize_each", refuse)


def counted_lps(monkeypatch):
    """The list of objectives `maximize_each` is asked to solve, filled as it runs."""
    asked, real = [], polytope.maximize_each

    def record(n, rows, objectives):
        return real(n, rows, (asked.append(o) or o for o in objectives))

    monkeypatch.setattr(polytope, "maximize_each", record)
    return asked


def test_containment_with_no_row_left_runs_no_lp(monkeypatch):
    """No outer row, or every outer row dominated by one inner row on one
    scale (a copy, a relaxed rhs, a smaller coefficient, a rescaled copy of
    an inner row, 0 <= -1 inside 0 <= -1): no LP at all, not even phase 1."""
    no_lp(monkeypatch)
    tilted = Polytope(XY, [((1, 1), 1), ((-1, 0), -1)])  # x + y <= 1, x >= 1
    assert region_contains(Polytope(XY, []), tilted)
    assert region_contains(Polytope(XY, []), Polytope(XY, []))
    outer = Polytope(XY, [((2, 2), 2), ((1, 0), F(3, 2)), ((F(-1, 2), F(-1, 3)), F(-1, 2))])
    assert region_contains(outer, tilted)
    empty = Polytope(XY, [((0, 0), -1)])
    assert region_contains(Polytope(XY, [((0, 0), -2)]), empty)
    assert regions_equal(box(), Polytope(XY, [((3, 0), 3), ((0, F(1, 2)), F(1, 2))]))


@pytest.mark.parametrize("K", range(2, 6))
def test_verify_region_inputs_are_certified_without_lp(K, monkeypatch):
    """On the inputs of `verify`'s region stage (strengths drawn as there,
    tied strengths among them) the projection and the theorem region certify
    each other row by row, one dominating row each: zero LPs."""
    no_lp(monkeypatch)
    rng = random.Random(K)
    for sigma in range(2, K + 1):
        for trial in range(4):
            denom = rng.randint(8, 40)
            cuts = sorted(rng.randint(1, denom - 1) for _ in range(K - 1))
            if trial == 0:
                cuts = cuts[:1] * (K - 1)  # alpha_1 = ... = alpha_{K-1}
            alpha = tuple(F(c, denom) for c in cuts) + (F(1),)
            projected = eliminate(beta_parameterized_polytope(K, sigma, alpha), beta_names(K))
            assert regions_equal(projected, build_region(K, sigma, alpha))


def test_row_implied_only_by_two_rows_reaches_the_lp(monkeypatch):
    asked = counted_lps(monkeypatch)
    assert region_contains(Polytope(XY, [((1, 1), 2)]), box())  # x, y <= 1 => x + y <= 2
    assert len(asked) == 1


@pytest.mark.parametrize("scale", [1, 2, F(3, 2)])
def test_row_just_below_a_dominating_row_is_not_implied(scale, monkeypatch):
    """x <= 1 - 1/100 has smaller coefficients than x + y <= 1, but a smaller
    rhs: no single row certifies it, and the LP refutes it."""
    asked = counted_lps(monkeypatch)
    inner = Polytope(XY, [((scale, scale), scale)])
    assert not region_contains(Polytope(XY, [((1, 0), F(99, 100))]), inner)
    assert region_contains(Polytope(XY, [((1, 0), 1)]), inner)
    assert len(asked) == 1


@st.composite
def mixed_rows(draw):
    """(n, rows) with every entry an int, a Fraction or its string."""
    n = draw(st.integers(1, 4))
    value = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    entry = st.one_of(value, value.map(str), st.integers(-3, 3))
    return n, draw(st.lists(st.tuples(st.lists(entry, min_size=n, max_size=n), entry), max_size=4))


@st.composite
def strengths(draw):
    cuts = st.fractions(min_value=F(1, 12), max_value=1, max_denominator=12)
    return tuple(sorted(draw(st.lists(cuts, min_size=2, max_size=3)))) + (F(1),)


@given(poly=st.deferred(lambda: small_polytopes()), rows=mixed_rows(), alpha=strengths())
@example(poly=box(), rows=(1, [(["1/3"], 2), ([F(-3, 4)], "1/2")]), alpha=(F(1, 3), F(1, 2), F(1)))
@settings(max_examples=100, deadline=None)
def test_integer_view_handed_on_by_eliminate_and_fix_variables(poly, rows, alpha):
    """The integer rows that eliminate, fix_variables and every region builder
    hand on through `int_rows=` equal those the checked constructor computes
    from their Fraction view, and that view is the coerced input rows.  The
    builders' coefficients are 0, +-1 and group counts, whatever the rhs."""
    for derived in (eliminate(poly, poly.variables[:1]), fix_variables(poly, {poly.variables[0]: F(1, 2)})):
        assert derived.int_rows == Polytope(derived.variables, derived.rows).int_rows
    K = len(alpha)
    config = SystemConfig(num_users=K, num_files=K, mu=F(1, K), alpha=alpha)
    for built in (
        build_region(K, 2, alpha),
        symmetric_projection(K, 2, alpha, 2),
        build_missing_message_region(K, 2, alpha, [1, K]),
        build_two_multicast_symmetric(K, 2, 3, alpha, 2),
        beta_parameterized_polytope(K, 2, alpha),
        topological_hole_region(config),
        gdof_region_inner(F(7, 2), config),
    ):
        assert built.int_rows == Polytope(built.variables, built.rows).int_rows
        assert all(c.denominator == 1 for coeffs, _ in built.rows for c in coeffs)
    n, raw = rows
    names = [f"x{j}" for j in range(n)]
    assert Polytope(names, raw).rows == tuple((tuple(map(F, coeffs)), F(rhs)) for coeffs, rhs in raw)


def test_rescaled_rows_are_different_polytopes():
    """Equality is on the rows, not on the half-spaces they describe."""
    assert Polytope(XY, [((2, 0), 2)]) != Polytope(XY, [((1, 0), 1)])
    assert Polytope(XY, [((1, 0), "1/1")]) == Polytope(XY, [((1, 0), 1)])


def test_eliminate_absent_variable():
    p = Polytope(["x", "y"], [((1, 0), 1)])
    q = eliminate(p, ["y"])
    assert q.variables == ("x",)
    assert q.rows == (((F(1),), F(1)),)


def test_eliminate_couples_bounds():
    # x <= y, y <= 2  --projected on x-->  x <= 2
    p = Polytope(["x", "y"], [((1, -1), 0), ((0, 1), 2)])
    q = prune(eliminate(p, ["y"]))
    assert q.variables == ("x",)
    assert regions_equal(q, Polytope(["x"], [((1,), 2)]))


def test_eliminate_uses_nonnegativity_of_dropped_variable():
    # x + y <= 1 with y >= 0 projects to x <= 1
    p = Polytope(["x", "y"], [((1, 1), 1)])
    q = prune(eliminate(p, ["y"]))
    assert regions_equal(q, Polytope(["x"], [((1,), 1)]))


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
        poly = Polytope(names, rows)
        dropped = names[int(rng.integers(0, nvars))]
        projected = eliminate(poly, [dropped])
        for _ in range(12):
            point = {n: F(int(rng.integers(0, 5)), 2) for n in projected.variables}
            # lift: pin the kept coordinates, ask the LP if any value of the
            # dropped coordinate stays feasible
            pinned = fix_variables(poly, point)
            liftable = pinned.maximize({dropped: 0}).status != INFEASIBLE
            assert projected.contains(point) == liftable


@pytest.mark.parametrize("K", range(2, 7))
def test_eliminate_matches_fraction_fm_on_beta_systems(K):
    rng = random.Random(K)
    for sigma in range(2, K + 1):
        denom = rng.randint(8, 40)
        alpha = tuple(sorted(F(rng.randint(1, denom - 1), denom) for _ in range(K - 1))) + (F(1),)
        system = beta_parameterized_polytope(K, sigma, alpha)
        for drop in (beta_names(K), beta_names(K)[::-1], beta_names(K)[: K // 2]):
            projected = eliminate(system, drop)
            expected = oracle.eliminate(system, drop)
            assert projected.variables == expected.variables
            assert projected.rows == expected.rows


COEFF = st.builds(F, st.integers(-9, 9), st.sampled_from([1, 1, 2, 3]))
RHS = st.builds(F, st.integers(-6, 10), st.sampled_from([1, 2, 4]))


@st.composite
def polytopes_with_drops(draw):
    n = draw(st.integers(1, 5))
    rows = draw(st.lists(st.tuples(st.lists(COEFF, min_size=n, max_size=n), RHS), max_size=7))
    if rows and draw(st.booleans()):  # a positively scaled copy of a row
        coeffs, b = rows[draw(st.integers(0, len(rows) - 1))]
        k = draw(st.builds(F, st.integers(1, 9), st.integers(1, 3)))
        rows.append(([k * c for c in coeffs], k * b))
    if draw(st.booleans()):
        rows.append(([F(0)] * n, draw(RHS)))  # a tautology or 0 <= negative
    names = [f"x{j}" for j in range(n)]
    drop = draw(st.permutations(names))[: draw(st.integers(0, n))]
    return Polytope(names, draw(st.permutations(rows))), drop


@given(case=polytopes_with_drops())
@settings(max_examples=250, deadline=None)
def test_eliminate_matches_fraction_fm(case):
    poly, drop = case
    projected = eliminate(poly, drop)
    expected = oracle.eliminate(poly, drop)
    assert projected.variables == expected.variables
    assert projected.rows == expected.rows
    assert all(type(v) is F for coeffs, rhs in projected.rows for v in (*coeffs, rhs))


@given(case=polytopes_with_drops(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_fix_variables_matches_fraction_dedupe(case, data):
    poly, fixed_names = case
    value = st.builds(F, st.integers(0, 12), st.integers(1, 3))
    assignment = {name: data.draw(value) for name in fixed_names}
    keep = [j for j, name in enumerate(poly.variables) if name not in assignment]
    shifted = [
        (tuple(coeffs[j] for j in keep),
         rhs - sum(coeffs[poly.index(name)] * v for name, v in assignment.items()))
        for coeffs, rhs in poly.rows
    ]
    assert fix_variables(poly, assignment).rows == tuple(oracle.dedupe(shifted))


def test_prune_drops_implied_row():
    p = Polytope(["x", "y"], [((1, 1), 2), ((1, 0), 3)])
    assert len(prune(p).rows) == 1


def test_canonical_sorts_and_scales():
    p = Polytope(["x", "y"], [((0, 2), 2), ((3, 0), 3)])
    assert canonical(p).rows == (
        ((F(0), F(1)), F(1)),
        ((F(1), F(0)), F(1)),
    )


def test_fix_variables():
    p = Polytope(["x", "y"], [((1, 2), 3)])
    q = fix_variables(p, {"y": 1})
    assert q.variables == ("x",)
    assert q.rows == (((F(1),), F(1)),)


def test_vertices_of_simplex():
    p = Polytope(["x", "y"], [((1, 1), 1)])
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
    p = Polytope(["x"], [((-1,), -1), ((1,), F(1, 2))])  # x >= 1, x <= 1/2
    assert p.is_empty()
    assert vertices(p) == []


def test_json_round_trip():
    p = box(a=F(7, 3))
    q = Polytope.from_json(p.to_json())
    assert q == p


def test_json_row_of_wrong_length_is_refused():
    # one coefficient over (x, y): loaded as is, its only vertex would be (0, 0)
    dump = '{"variables": ["x", "y"], "rows": [{"coeffs": [[1, 1]], "rhs": [1, 1]}]}'
    with pytest.raises(ValueError, match="row length does not match variable count"):
        Polytope.from_json(dump)


@pytest.mark.parametrize("coeffs,rhs,message", [
    ("[[true, 1], [1, 1]]", "[1, 1]", "row 2 coefficient 1 numerator must be an integer, got True"),
    ("[[1, 1], [1, false]]", "[1, 1]", "row 2 coefficient 2 denominator must be an integer, got False"),
    ("[[1, 1], [0.5, 1]]", "[1, 1]", "row 2 coefficient 2 numerator must be an integer, got 0.5"),
    ('[[1, 1], ["1", 1]]', "[1, 1]", "row 2 coefficient 2 numerator must be an integer, got '1'"),
    ("[[1, 1], [1, 1]]", "[1, 0]", "row 2 rhs denominator must be a whole number of at least 1, got 0"),
    ("[[1, 1], [1, 1]]", "[1, -2]", "row 2 rhs denominator must be a whole number of at least 1, got -2"),
    ("[[1, 1], [1, 1]]", "[1, 2.0]", "row 2 rhs denominator must be an integer, got 2.0"),
    ("[[1, 1], [1]]", "[1, 1]", "row 2 coefficient 2 must be a [numerator, denominator] pair, got [1]"),
    ("[[1, 1], [1, 1]]", "1", "row 2 rhs must be a [numerator, denominator] pair, got 1"),
    ("[[1, 1], [1, 1], [1, 1]]", "[1, 1]",
     "row 2: row length does not match variable count, 3 coefficients for 2 variables"),
], ids=["true-numerator", "false-denominator", "float-numerator", "text-numerator", "zero-denominator",
        "negative-denominator", "float-denominator", "one-element-pair", "bare-rhs", "three-coefficients"])
def test_json_entry_must_be_an_integer_pair(coeffs, rhs, message):
    """Each entry is a [numerator, denominator] pair of integers, the
    denominator at least 1, and each row holds one per variable: anything
    else is refused by its row and position, never by an unpacking error;
    row 1 is good."""
    good = '{"coeffs": [[1, 1], [1, 1]], "rhs": [1, 1]}'
    dump = f'{{"variables": ["x", "y"], "rows": [{good}, {{"coeffs": {coeffs}, "rhs": {rhs}}}]}}'
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Polytope.from_json(dump)


NOT_XY = "is not a variable of the region ('x', 'y')"


@pytest.mark.parametrize(
    "probe,error,message",
    [(lambda: fix_variables(box(), {"q": 0}), ValueError, f"'q' {NOT_XY}"),
     (lambda: eliminate(box(), ["q"]), ValueError, f"'q' {NOT_XY}"),
     (lambda: eliminate(box(), ["x", "x"]), ValueError, "eliminate drops each variable once, got ['x', 'x']"),
     (lambda: box().contains({"x": 0, "y": 0, "zz": 9}), ValueError, f"'zz' {NOT_XY}"),
     (lambda: box(b=5).maximize({"z": 1}), ValueError, f"'z' {NOT_XY}"),
     (lambda: box(b=5).maximize([1]), TypeError, "objective must map variable names to coefficients, got [1]"),
     (lambda: Polytope(["x", "x"], [((1, 1), 1)]), ValueError, "variable names must be distinct, got ('x', 'x')"),
     (lambda: Polytope(["x", "x"], int_rows=[(1, (1, 1, 1))]), ValueError,
      "variable names must be distinct, got ('x', 'x')"),
     (lambda: Polytope.from_json('{"variables": ["x", "x"], "rows": []}'), ValueError,
      "variable names must be distinct, got ('x', 'x')")],
    ids=["fix-unknown", "eliminate-unknown", "eliminate-twice", "contains-unknown", "maximize-unknown",
         "maximize-sequence", "repeated-name-rows", "repeated-name-int-rows", "repeated-name-json"],
)
def test_variable_names_are_refused_by_name(probe, error, message):
    """Each name is looked up through `Polytope.index`, which names a missing
    one and lists the region's variables; a name is never silently ignored."""
    with pytest.raises(error, match=re.escape(message)):
        probe()


def test_maximize_reads_the_objective_by_name():
    region = box(b=5)
    assert region.maximize({"x": 1}).value == 1
    assert region.maximize({"y": 1}).value == 5
    assert region.maximize({}).value == 0


def test_maximize_reports_unbounded():
    p = Polytope(["x", "y"], [((1, 0), 1)])
    assert p.maximize({"y": 1}).status == "unbounded"


def with_orthant(poly):
    """The rows followed by the n facets -x_j <= 0."""
    n = len(poly.variables)
    return list(poly.rows) + [
        (tuple(F(-1) if i == j else F(0) for i in range(n)), F(0)) for j in range(n)
    ]


def brute_force_vertices(poly):
    """Reference enumeration: one exact square solve per n-subset of the rows
    and the n orthant facets, kept when the solution is feasible."""
    n = len(poly.variables)
    cons = with_orthant(poly)
    found = set()
    for active in combinations(range(len(cons)), n):
        sol = solve_square([list(cons[i][0]) for i in active], [cons[i][1] for i in active])
        if sol is None or any(v < 0 for v in sol):
            continue
        if all(sum(c * v for c, v in zip(coeffs, sol)) <= b for coeffs, b in cons):
            found.add(tuple(sol))
    return sorted(found)


def hole_config(K, N, budget):
    """Strengths on a tenths grid, so repeated strengths (and degenerate
    vertices) are common; seeded by the shape."""
    rng = random.Random(f"{K}:{budget}")
    alpha = tuple(sorted(F(rng.randint(1, 10), 10) for _ in range(K - 1))) + (F(1),)
    return SystemConfig(num_users=K, num_files=N, mu=F(budget, K), alpha=alpha)


def _rank(vectors):
    rows = [list(v) for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def assert_vertices_certified(poly, found, rng, objectives=10):
    """Oracle-free check: each point is feasible and tight on n independent
    constraints, and the LP optimum of random objectives is attained at one."""
    n = len(poly.variables)
    cons = with_orthant(poly)
    for point in found:
        assert poly.contains(point)
        tight = [coeffs for coeffs, b in cons if sum(c * v for c, v in zip(coeffs, point)) == b]
        assert _rank(tight) == n
    for _ in range(objectives):
        objective = [F(rng.randint(-5, 9), rng.randint(1, 4)) for _ in range(n)]
        result = solve_max(objective, poly.rows)
        if result.status == INFEASIBLE:
            assert found == []
            continue
        best = max(sum(c * v for c, v in zip(objective, point)) for point in found)
        assert result.value == best


@st.composite
def small_polytopes(draw):
    n = draw(st.integers(1, 5))
    value = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    rhs = st.fractions(min_value=-2, max_value=5, max_denominator=2)
    rows = draw(st.lists(st.tuples(st.tuples(*[value] * n), rhs), max_size=6 if n < 5 else 5))
    if rows and draw(st.booleans()):
        rows.append(rows[draw(st.integers(0, len(rows) - 1))])  # a duplicated row
    return Polytope([f"x{j}" for j in range(n)], rows)


class TestVerticesAgainstBruteForce:
    @pytest.mark.slow
    @given(poly=small_polytopes())
    @settings(max_examples=200, deadline=None)
    def test_random_polytopes(self, poly):
        assert vertices(poly) == brute_force_vertices(poly)

    @pytest.mark.parametrize(
        "rows",
        [
            [((0, 0), -1)],  # 0 <= -1
            [((1, 1), 3), ((0, 0), F(-1, 2)), ((1, 0), 1)],
            [((-1, -1), -3), ((1, 1), 2)],  # x + y >= 3 and x + y <= 2
            [((1, 0), -1)],  # x <= -1 on the orthant
        ],
    )
    def test_empty_regions(self, rows):
        poly = Polytope(["x", "y"], rows)
        assert poly.is_empty()
        assert vertices(poly) == brute_force_vertices(poly) == []

    @pytest.mark.parametrize(
        "rows,expected",
        [
            ([], [(F(0), F(0))]),
            ([((1, -1), 1)], [(F(0), F(0)), (F(1), F(0))]),
            ([((-1, 0), -1), ((0, -1), -2)], [(F(1), F(2))]),
            ([((-1, -1), -2), ((1, -1), 0)], [(F(0), F(2)), (F(1), F(1))]),
        ],
    )
    def test_unbounded_regions_return_vertices_only(self, rows, expected):
        poly = Polytope(["x", "y"], rows)
        assert poly.maximize({"x": 1, "y": 1}).status == "unbounded"
        assert vertices(poly) == brute_force_vertices(poly) == expected

    def test_duplicated_and_scaled_rows(self):
        rows = [((1, 1), 2), ((2, 2), 4), ((1, 1), 2), ((1, 0), 1), ((3, 0), 3)]
        poly = Polytope(["x", "y"], rows)
        assert vertices(poly) == brute_force_vertices(poly) == [
            (F(0), F(0)), (F(0), F(2)), (F(1), F(0)), (F(1), F(1))
        ]

    def test_degenerate_apex(self):
        # square pyramid: four rows are tight at the apex (0, 0, 1)
        rows = [((1, 0, 1), 1), ((0, 1, 1), 1), ((1, 1, 1), 2), ((-1, -1, 1), 1)]
        poly = Polytope(["x", "y", "z"], rows)
        found = vertices(poly)
        assert (F(0), F(0), F(1)) in found
        assert found == brute_force_vertices(poly)

    @pytest.mark.parametrize(
        "K", [2, 3, 4, 5, 6, *(pytest.param(K, marks=pytest.mark.slow) for K in (7, 8))]
    )
    def test_topological_hole_regions(self, K):
        for budget in range(K):
            region = topological_hole_region(hole_config(K, K, budget))
            expected = brute_force_vertices(region)
            for N in (K, K + 2):
                wider = topological_hole_region(hole_config(K, N, budget))
                assert wider == region
                assert vertices(wider) == expected


class TestVerticesBeyondBruteForce:
    @pytest.mark.parametrize("K", [10, 11, 12])
    def test_topological_hole_regions(self, K):
        rng = random.Random(K)
        for budget in range(K):
            region = topological_hole_region(hole_config(K, K, budget))
            assert_vertices_certified(region, vertices(region), rng)

    @pytest.mark.parametrize("n", [8, 9, pytest.param(10, marks=pytest.mark.slow)])
    def test_random_bounded_polytopes(self, n):
        rng = random.Random(n)
        rows = [((1,) * n, F(rng.randint(3, 9)))]  # bounds the region
        for _ in range(n):
            coeffs = tuple(F(rng.randint(-2, 4), rng.randint(1, 2)) for _ in range(n))
            rows.append((coeffs, F(rng.randint(1, 6))))
        poly = Polytope([f"x{j}" for j in range(n)], rows)
        found = vertices(poly)
        assert len(found) > n
        assert_vertices_certified(poly, found, rng)
