import re
from fractions import Fraction as F
from itertools import combinations
from math import comb

import fraction_oracles as oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cachecast.combinatorics import (
    _checked_fraction,
    _checked_int,
    _remember_last,
    coded_load,
    cumulative_group_count,
    is_convex_sequence,
    lower_convex_envelope,
    multicast_load_sequence,
)
from cachecast.lp import solve_max
from cachecast.polytope import Polytope, fix_variables
from cachecast.regions import prefix_gaps
from cachecast.tradeoff import SystemConfig, gdof_region_inner, gndt_ub


def envelope_oracle(values, x):
    """Independent envelope: minimum over all chords of stored points.

    In 2-D the lower convex envelope at x is the cheapest convex combination
    of two points whose abscissae bracket x.
    """
    pts = [(F(n), F(v)) for n, v in enumerate(values)]
    x = F(x)
    best = None
    for (xi, yi), (xj, yj) in combinations(pts, 2):
        if xi <= x <= xj:
            val = yi + (yj - yi) * (x - xi) / (xj - xi)
            best = val if best is None else min(best, val)
    for xi, yi in pts:
        if xi == x:
            best = yi if best is None else min(best, yi)
    return best


class TestCumulativeCount:
    def test_small_cases(self):
        assert cumulative_group_count(3, 2, 1) == 2
        assert cumulative_group_count(3, 2, 2) == 3
        assert cumulative_group_count(6, 3, 0) == 0

    @pytest.mark.parametrize("num_users", range(2, 9))
    def test_matches_enumeration(self, num_users):
        for sigma in range(2, num_users + 1):
            groups = list(combinations(range(1, num_users + 1), sigma))
            for j in range(0, num_users + 1):
                enumerated = sum(1 for g in groups if min(g) <= j)
                assert cumulative_group_count(num_users, sigma, j) == enumerated


class TestEnvelope:
    def test_convex_points_are_touched(self):
        values = [F(4), F(1), F(0)]  # convex
        for n, v in enumerate(values):
            assert lower_convex_envelope(values, n) == v

    def test_interpolation_between_convex_points(self):
        assert lower_convex_envelope([4, 1, 0], F(1, 2)) == F(5, 2)

    def test_hull_bypasses_interior_point(self):
        assert lower_convex_envelope([0, 3, 1], 1) == F(1, 2)

    def test_domain_error(self):
        with pytest.raises(ValueError, match=f"^{re.escape('x must lie in [0, 1], got 5/2')}$"):
            lower_convex_envelope([1, 2], F(5, 2))
        with pytest.raises(ValueError, match=f"^{re.escape('x must lie in [0, 1], got -1')}$"):
            lower_convex_envelope([1, 2], -1)

    def test_empty_sequence_is_refused(self):
        with pytest.raises(ValueError, match="^envelope needs at least one point$"):
            lower_convex_envelope([], 0)

    def test_float_is_refused_not_rounded(self):
        with pytest.raises(TypeError):
            lower_convex_envelope([0, 1, 2], 0.5)
        with pytest.raises(TypeError):
            lower_convex_envelope([0, 0.1, 2], 1)

    @given(
        values=st.lists(st.integers(0, 40), min_size=2, max_size=9),
        num=st.integers(0, 200),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_chord_oracle(self, values, num):
        x = F(num * (len(values) - 1), 200)
        assert lower_convex_envelope(values, x) == envelope_oracle(values, x)

    def test_kept_hull_follows_the_values(self):
        """The hull of the last sequence is kept; a sequence that differs in
        one value, in its length or only in the type of its values is
        evaluated afresh, never against the kept hull."""
        sequences = [[0, 3, 1], [0, 3, 1, 5], [0, 1, 1], [0, 3, 1], [F(0), F(3), F(1)],
                     [0, F(1, 2), 1], [0, 3, 1], [7]]
        for values in sequences + sequences[::-1]:
            for num in range(0, 4 * (len(values) - 1) + 1):
                x = F(num, 4)
                assert lower_convex_envelope(values, x) == envelope_oracle(values, x), (values, x)

    @given(values=st.lists(st.integers(0, 40), min_size=2, max_size=9))
    @settings(max_examples=100, deadline=None)
    def test_soundness(self, values):
        # never above any bracketing chord, never below zero for f >= 0
        for num in range(0, 41):
            x = F(num * (len(values) - 1), 40)
            env = lower_convex_envelope(values, x)
            assert env >= 0
            assert env <= envelope_oracle(values, x)


class TestIntegerHullAgainstFractionHull:
    """The integer monotone chain against the Fraction chain it replaced
    (`fraction_oracles.lower_convex_envelope`): equal values, and always a
    Fraction, never an int."""

    SEQUENCES = [
        [7],
        [F(5, 3)],
        [0, 3, 1],
        [4, 1, 0],
        [0, 1, 2, 3, 4],  # one collinear run
        [3, 2, 1, 1, 1, 2, 3],  # collinear runs and repeated values
        [2, 2, 2, 2],
        [0, 5, 0, 5, 0],
        [F(1, 2), F(7, 3), F(1, 6), F(1, 6), F(9, 4), F(1, 10)],
        [F(-3, 4), F(1, 4), F(-3, 4), F(5, 4), F(9, 4), F(-1, 8)],
        ["1/2", "3/4", "1/3", 2],  # strings and ints
        [2, "0", F(1, 7), "5/7", 3],
    ]

    @staticmethod
    def assert_same(values, x):
        got, want = lower_convex_envelope(values, x), oracle.lower_convex_envelope(values, x)
        assert type(got) is type(want) is F, (values, x, got)
        assert got == want, (values, x)

    @pytest.mark.parametrize("values", SEQUENCES, ids=str)
    def test_vertices_ends_and_a_grid(self, values):
        K = len(values) - 1
        vertices = [n for n, _ in oracle.lower_hull(tuple(F(v) for v in values))]
        xs = {0, K, *vertices} | {F(num, 12) for num in range(12 * K + 1)}
        for x in sorted(xs):
            self.assert_same(values, x)
        for x in ("0", f"{K}", f"{K}/2"):
            self.assert_same(values, x)

    @given(
        values=st.lists(st.fractions(-5, 5, max_denominator=12), min_size=1, max_size=9),
        num=st.integers(0, 60),
    )
    @settings(max_examples=300, deadline=None)
    def test_random_sequences(self, values, num):
        self.assert_same(values, F(num * (len(values) - 1), 60))


class Counted:
    """A value that counts the == calls made on it."""

    eq_calls = 0

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        Counted.eq_calls += 1
        return isinstance(other, Counted) and self.value == other.value

    __hash__ = None


class TestRememberLast:
    def test_a_hit_by_value_rekeys_to_the_callers_objects(self):
        calls = []

        @_remember_last
        def total(x, y):
            calls.append((x, y))
            return x.value + y.value

        assert total(Counted(1), Counted(2)) == 3
        x, y = Counted(1), Counted(2)
        Counted.eq_calls = 0
        assert total(x, y) == 3  # a hit by value: one == per argument
        assert (Counted.eq_calls, len(calls)) == (2, 1)
        for _ in range(3):
            assert total(x, y) == 3  # the same objects: identity checks only
        assert (Counted.eq_calls, len(calls)) == (2, 1)
        assert total(x, Counted(5)) == 6
        assert len(calls) == 2

    def test_a_call_that_raises_leaves_the_entry(self):
        calls = []

        @_remember_last
        def checked(x):
            calls.append(x)
            if x.value < 0:
                raise ValueError("negative")
            return x.value

        x = Counted(4)
        assert checked(Counted(4)) == 4
        assert checked(x) == 4  # re-keyed to x
        with pytest.raises(ValueError, match="negative"):
            checked(Counted(-1))
        Counted.eq_calls = 0
        assert checked(x) == 4
        assert (Counted.eq_calls, len(calls)) == (0, 2)


class TestConvexSequence:
    def test_affine(self):
        assert is_convex_sequence([0, 1, 2, 3])

    def test_non_convex(self):
        assert not is_convex_sequence([0, 2, 1])

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            is_convex_sequence([1, 2])

    def test_load_sequence_small(self):
        # the coded load sequence is convex; spot case K = 4, all users served
        assert is_convex_sequence(multicast_load_sequence(4, 4))


class TestLoadSequence:
    def test_values_for_three_users(self):
        seq = multicast_load_sequence(3, 3)
        assert seq == [F(3), F(1), F(1, 3), F(0)]

    def test_served_prefix_only(self):
        # one served user: load counts only groups containing user 1
        seq = multicast_load_sequence(3, 1)
        assert seq[0] == F(1)  # C(3,1)-C(2,1) over C(3,0)
        assert seq[-1] == 0

    def test_rejects_bad_served(self):
        with pytest.raises(ValueError):
            multicast_load_sequence(3, 0)
        with pytest.raises(ValueError):
            multicast_load_sequence(3, 4)

    def test_coded_load_matches_sequence_and_closed_form(self):
        for K in range(1, 13):
            for m in range(1, K + 1):
                seq = multicast_load_sequence(K, m)
                assert len(seq) == K + 1
                for n, value in enumerate(seq):
                    load = coded_load(K, m, n)
                    assert type(load) is F and load == value
                    assert load == F(comb(K, n + 1) - comb(K - m, n + 1), comb(K, n))

    def test_coded_load_rejects_out_of_range(self):
        for served, n in ((0, 1), (4, 1), (2, -1), (2, 4)):
            with pytest.raises(ValueError):
                coded_load(3, served, n)


class TestIntegerArguments:
    """Each count, size and index is refused by its name through one check: a
    bool is not read as 1, nor a float as an int, and a range keeps both ends."""

    @pytest.mark.parametrize(
        "call,message",
        [(lambda: coded_load(3, True, 1), "served must be an integer, got True"),
         (lambda: cumulative_group_count(3, 2, True), "j must be an integer, got True"),
         (lambda: coded_load(3, 1, 1.0), "cached subfile count must be an integer, got 1.0"),
         (lambda: coded_load(3.0, 1, 1), "user count must be an integer, got 3.0"),
         (lambda: coded_load(0, 1, 0), "user count must be a whole number of at least 1, got 0"),
         (lambda: multicast_load_sequence(3.0, 1), "user count must be an integer, got 3.0"),
         (lambda: multicast_load_sequence(True, 1), "user count must be an integer, got True")],
        ids=["coded-load-served-bool", "count-j-bool", "coded-load-n-float", "coded-load-users-float",
             "coded-load-no-users", "sequence-users-float", "sequence-users-bool"],
    )
    def test_refused_by_name(self, call, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()

    @pytest.mark.parametrize(
        "bounds,value,message",
        [((), 2.0, "n must be an integer, got 2.0"),
         ((0,), -1, "n must be a whole number of at least 0, got -1"),
         ((0, 3), 4, "n must lie in [0, 3], got 4"),
         ((1, 3), 0, "n must lie in [1, 3], got 0")],
        ids=["type", "low-only", "above-high", "below-low"],
    )
    def test_the_three_templates(self, bounds, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            _checked_int("n", value, *bounds)

    def test_both_ends_are_accepted(self):
        assert [cumulative_group_count(3, 2, j) for j in (0, 3)] == [0, 3]
        assert [coded_load(3, served, n) for served, n in ((1, 0), (3, 3))] == [1, 0]
        assert _checked_int("n", 0, 0) == 0 and _checked_int("n", 10**30, 1) == 10**30


ALPHA2 = (F(1, 2), F(1))
BOX = Polytope(["x", "y"], [((1, 1), 1)])


class TestRationalArguments:
    """Each closed-range rational argument goes through one check: `_frac`
    refuses a bool as it refuses a float, and a range keeps both ends."""

    @pytest.mark.parametrize(
        "call",
        [lambda: SystemConfig(2, 2, True, ALPHA2),
         lambda: SystemConfig(2, 2, 0, (True, 1)),
         lambda: gndt_ub(SystemConfig(2, 2, F(1, 2), ALPHA2), (True, 0)),
         lambda: prefix_gaps(ALPHA2, (0, True)),
         lambda: gdof_region_inner(True, SystemConfig(2, 2, F(1, 2), ALPHA2)),
         lambda: lower_convex_envelope([3, 1, 2], True),
         lambda: fix_variables(BOX, {"x": True}),
         lambda: Polytope(["x"], [((True,), 1)]),
         lambda: solve_max([True], [((1,), 1)])],
        ids=["mu", "alpha-entry", "r-entry", "r-entry-gaps", "tau", "envelope-x", "fixed-value",
             "polytope-row-entry", "solve-max-entry"],
    )
    def test_a_bool_is_refused(self, call):
        message = "True is a bool; pass an int, a Fraction or a string such as '1/10'"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            call()

    @pytest.mark.parametrize(
        "call,message",
        [(lambda: SystemConfig(2, 2, F(3, 2), ALPHA2), "mu must lie in [0, 1], got 3/2"),
         (lambda: SystemConfig(2, 2, "-1/3", ALPHA2), "mu must lie in [0, 1], got -1/3"),
         (lambda: prefix_gaps(ALPHA2, (0, F(-1, 10))), "r_2 must be at least 0, got -1/10"),
         (lambda: lower_convex_envelope([3, 1, 2], F(7, 3)), "x must lie in [0, 2], got 7/3"),
         (lambda: fix_variables(BOX, {"y": F(-1, 2)}), "y must be at least 0, got -1/2")],
        ids=["mu-above-1", "mu-negative", "r-negative", "envelope-x-past-K", "fixed-negative"],
    )
    def test_refused_by_name(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    @pytest.mark.parametrize(
        "bounds,value,message",
        [((0,), F(-1, 3), "q must be at least 0, got -1/3"),
         ((0, 1), "4/3", "q must lie in [0, 1], got 4/3"),
         ((1, 3), F(1, 2), "q must lie in [1, 3], got 1/2")],
        ids=["low-only", "above-high", "below-low"],
    )
    def test_the_two_templates(self, bounds, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _checked_fraction("q", value, *bounds)

    @pytest.mark.parametrize(
        "call,value",
        [(lambda: SystemConfig(2, 2, 0, ALPHA2).mu, 0),
         (lambda: SystemConfig(2, 2, 1, ALPHA2).mu, 1),
         (lambda: prefix_gaps(ALPHA2, (0, 0)), [F(1, 2), F(1)]),
         (lambda: lower_convex_envelope([3, 1, 2], 0), 3),
         (lambda: lower_convex_envelope([3, 1, 2], 2), 2),
         (lambda: fix_variables(BOX, {"x": 0}).rows, (((F(1),), F(1)),)),
         (lambda: _checked_fraction("q", "1/3", 0, 1), F(1, 3))],
        ids=["mu-0", "mu-1", "r-0", "envelope-x-0", "envelope-x-K", "fixed-0", "inside"],
    )
    def test_range_ends_are_accepted(self, call, value):
        assert call() == value


class TestConvexityLemma:
    """c_n(m) = sum_j C(K-j, n) / C(K, n) with a nonnegative second
    difference per term, so every load sequence is convex."""

    def test_sum_over_weakest_member(self):
        for K in range(1, 13):
            for m in range(1, K + 1):
                for n in range(K + 1):
                    terms = sum(F(comb(K - j, n), comb(K, n)) for j in range(1, m + 1))
                    assert coded_load(K, m, n) == terms

    def test_term_second_difference(self):
        for K in range(2, 13):
            for j in range(1, K + 1):
                f = [F(comb(K - j, n), comb(K, n)) for n in range(K + 1)]
                for n in range(K - 1):
                    second = f[n + 2] - 2 * f[n + 1] + f[n]
                    assert second == f[n] * j * (j - 1) / ((K - n) * (K - n - 1))
                    assert second >= 0

    def test_every_sequence_is_convex_up_to_forty_users(self):
        for K in range(2, 41):
            for m in range(1, K + 1):
                assert is_convex_sequence(multicast_load_sequence(K, m)), (K, m)
