import re
from fractions import Fraction as F
from itertools import combinations
from math import comb
from types import SimpleNamespace

import fraction_oracles as oracle
import numpy as np
import pytest

from cachecast.polytope import (
    Polytope,
    canonical,
    eliminate,
    fix_variables,
    prune,
    region_contains,
    regions_equal,
)
from cachecast.regions import (
    beta_names,
    beta_parameterized_polytope,
    build_missing_message_region,
    build_region,
    build_two_multicast_symmetric,
    cumulative_region,
    max_symmetric_gdof,
    prefix_gaps,
    symmetric_projection,
    user_strengths,
)

ALPHA3 = (F(2, 5), F(9, 10), F(1))
ALPHA4 = (F(45, 100), F(65, 100), F(85, 100), F(1))


def random_strengths(rng, num_users):
    denom = int(rng.integers(8, 60))
    cuts = sorted(int(rng.integers(1, denom)) for _ in range(num_users - 1))
    return tuple(F(c, denom) for c in cuts) + (F(1),)


class TestStrengths:
    def test_accepts_ordered_normalized(self):
        assert user_strengths(3, ["0.4", "0.9", 1]) == ALPHA3

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            user_strengths(2, [F(1, 2), F(3, 4)])

    def test_rejects_decreasing(self):
        """The refusal names the first pair out of order, with exact values."""
        for alpha, pair in (([F(3, 4), F(1, 2), F(1)], "alpha_2 = 1/2 is below alpha_1 = 3/4"),
                            ([F(1, 4), F(1, 2), F(1, 3), F(1, 5), F(1)], "alpha_3 = 1/3 is below alpha_2 = 1/2")):
            with pytest.raises(ValueError, match=f"^{re.escape('strengths must be nondecreasing: ' + pair)}$"):
                user_strengths(len(alpha), alpha)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            user_strengths(2, [F(0), F(1)])

    def test_ties_allowed(self):
        user_strengths(3, [F(1, 2), F(1, 2), F(1)])


class TestBuildRegion:
    def test_three_user_pairwise_layout(self):
        poly = build_region(3, 2, ALPHA3)
        assert poly.variables == ("r_1", "r_2", "r_3", "r_1_2", "r_1_3", "r_2_3")
        assert poly.rows == (
            ((F(1), F(0), F(0), F(1), F(1), F(0)), F(2, 5)),
            ((F(1), F(1), F(0), F(1), F(1), F(1)), F(9, 10)),
            ((F(1), F(1), F(1), F(1), F(1), F(1)), F(1)),
        )

    def test_two_user_common_message(self):
        poly = build_region(2, 2, (F(1, 2), F(1)))
        assert poly.rows == (
            ((F(1), F(0), F(1)), F(1, 2)),
            ((F(1), F(1), F(1)), F(1)),
        )

    def test_full_group_in_every_row(self):
        poly = build_region(3, 3, ALPHA3)
        assert poly.variables[-1] == "r_1_2_3"
        assert all(coeffs[-1] == 1 for coeffs, _ in poly.rows)

    def test_rejects_bad_group_size(self):
        with pytest.raises(ValueError):
            build_region(3, 1, ALPHA3)
        with pytest.raises(ValueError):
            build_region(3, 4, ALPHA3)

    def test_multicast_only_three_users(self):
        poly = fix_variables(build_region(3, 2, ALPHA3), {"r_1": 0, "r_2": 0, "r_3": 0})
        assert poly.variables == ("r_1_2", "r_1_3", "r_2_3")
        # r12 + r13 <= a1;  r12 + r13 + r23 <= a2  (a3 row is then redundant)
        assert canonical(poly).rows == canonical(
            Polytope(poly.variables, [((1, 1, 0), F(2, 5)), ((1, 1, 1), F(9, 10))])
        ).rows

    def test_degradedness_nesting(self):
        rng = np.random.default_rng(5)
        for K, sigma in [(3, 2), (4, 2), (4, 3), (5, 4)]:
            poly = build_region(K, sigma, random_strengths(rng, K))
            for (prev, _), (cur, _) in zip(poly.rows, poly.rows[1:]):
                assert all(p <= c for p, c in zip(prev, cur))

    def test_monotone_in_strengths(self):
        # alpha' >= alpha componentwise -> region(alpha) inside region(alpha')
        weaker = build_region(3, 2, (F(3, 10), F(1, 2), F(1)))
        stronger = build_region(3, 2, (F(2, 5), F(9, 10), F(1)))
        assert region_contains(stronger, weaker)
        assert not region_contains(weaker, stronger)


class TestSymmetricProjection:
    def test_coefficients_three_users(self):
        poly = symmetric_projection(3, 2, ALPHA3, 3)
        assert [coeffs[-1] for coeffs, _ in poly.rows] == [2, 3, 3]

    def test_last_row_counts_all_groups(self):
        poly = symmetric_projection(5, 3, (F(1, 4), F(1, 2), F(3, 5), F(4, 5), F(1)), 5)
        assert poly.rows[-1][0][-1] == comb(5, 3)

    def test_limited_coverage(self):
        poly = symmetric_projection(4, 2, ALPHA4, 2)
        assert poly.rows[-1][0][-1] == comb(4, 2) - comb(2, 2) == 5

    def test_closed_form_example(self):
        assert max_symmetric_gdof(3, 2, ALPHA3, 3, (0, 0, 0)) == F(1, 5)

    def test_exhausted_prefix_clamps_to_zero(self):
        assert max_symmetric_gdof(3, 2, ALPHA3, 3, (F(2, 5), 0, 0)) == 0

    @pytest.mark.parametrize("trial", range(50))
    def test_matches_lp_oracle(self, trial):
        rng = np.random.default_rng(200 + trial)
        K = int(rng.integers(2, 6))
        sigma = int(rng.integers(2, K + 1))
        s = int(rng.integers(1, K + 1))
        alpha = random_strengths(rng, K)
        r = tuple(F(int(rng.integers(0, 3)), 10) for _ in range(K))
        closed = max_symmetric_gdof(K, sigma, alpha, s, r)
        poly = symmetric_projection(K, sigma, alpha, s)
        pinned = fix_variables(poly, {f"r_{k}": r[k - 1] for k in range(1, K + 1)})
        res = pinned.maximize({"r_sym": 1})
        if closed > 0:
            assert res.status == "optimal" and res.value == closed
        else:
            # either the pinned region is empty or r_sym is forced to zero
            assert res.status != "optimal" or res.value == 0


class TestTwoMulticast:
    def test_first_row_coefficients(self):
        poly = build_two_multicast_symmetric(4, 2, 3, ALPHA4, 4)
        coeffs, _ = poly.rows[0]
        assert coeffs[-2:] == (F(3), F(3))  # C(4,2)-C(3,2), C(4,3)-C(3,3)

    def test_last_row_gamma_count(self):
        poly = build_two_multicast_symmetric(4, 2, 3, ALPHA4, 4)
        assert poly.rows[-1][0][-1] == comb(4, 3)

    def test_rejects_equal_sizes(self):
        with pytest.raises(ValueError):
            build_two_multicast_symmetric(4, 3, 3, ALPHA4, 4)

    def test_zero_gamma_collapses_to_single_set(self):
        two = build_two_multicast_symmetric(4, 2, 3, ALPHA4, 2)
        collapsed = fix_variables(two, {"r_sym_3": 0})
        single = symmetric_projection(4, 2, ALPHA4, 2)
        assert collapsed.variables == single.variables[:-1] + ("r_sym_2",)
        assert [r for r in collapsed.rows] == [
            (coeffs, rhs) for coeffs, rhs in single.rows
        ]


class TestMissingMessageRegion:
    def test_leading_prefix_matches_projection(self):
        for s in (1, 2):
            missing = build_missing_message_region(4, 2, ALPHA4, list(range(1, s + 1)))
            projected = symmetric_projection(4, 2, ALPHA4, s)
            assert missing.rows == projected.rows

    def test_gapped_leaders_counts(self):
        poly = build_missing_message_region(4, 2, ALPHA4, [1, 3])
        assert [coeffs[-1] for coeffs, _ in poly.rows] == [3, 3, 5, 5]

    def test_requires_user_one(self):
        with pytest.raises(ValueError):
            build_missing_message_region(4, 2, ALPHA4, [2, 3])

    @pytest.mark.parametrize("leaders", [(1, 3), (1, 4), (1, 2, 4)])
    def test_at_least_min_count_rate(self, leaders):
        # achievable symmetric value is never below the min{k, N} closed form
        poly = build_missing_message_region(4, 2, ALPHA4, list(leaders))
        res = fix_variables(
            poly, {f"r_{k}": 0 for k in range(1, 5)}
        ).maximize({"r_sym": 1})
        n_leaders = len(leaders)
        floor = min(
            ALPHA4[k - 1] / (comb(4, 2) - comb(4 - min(k, n_leaders), 2))
            for k in range(1, 5)
        )
        assert res.status == "optimal" and res.value >= floor


class TestCumulativeRows:
    def test_rows_and_names(self):
        poly = cumulative_region((F(1, 3), F(1)), ["r_x"], lambda k: [10 * k])
        assert poly.variables == ("r_1", "r_2", "r_x")
        assert poly.rows == (((1, 0, 10), F(1, 3)), ((1, 1, 20), F(1)))

    def test_no_extra_rates(self):
        assert cumulative_region(ALPHA3).rows == tuple(
            (tuple(F(int(i < k)) for i in range(3)), a) for k, a in enumerate(ALPHA3, start=1)
        )

    def test_prefix_gaps(self):
        assert prefix_gaps(ALPHA3, None) == list(ALPHA3)
        assert prefix_gaps(ALPHA3, (F(1, 5), "1/2", 0)) == [F(1, 5), F(1, 5), F(3, 10)]
        assert prefix_gaps(ALPHA3, (F(1, 2), 0, 0)) == [0, F(2, 5), F(1, 2)]

    @pytest.mark.parametrize("r, message", [
        pytest.param((F(1, 5), F(-1, 10), 0), "r_2 must be at least 0, got -1/10", id="r0"),
        pytest.param((0, 0), "one unicast GDoF per user is required: K = 3, got 2", id="r1"),
        pytest.param((0, 0, 0, 0), "one unicast GDoF per user is required: K = 3, got 4", id="r2"),
    ])
    def test_prefix_gaps_refuses_bad_rates(self, r, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            prefix_gaps(ALPHA3, r)

    def test_prefix_gaps_refusal_messages(self):
        with pytest.raises(ValueError, match="^r_1 must be at least 0, got -1$"):
            prefix_gaps(ALPHA3, (F(-1), 0, 0))
        message = "one unicast GDoF per user is required: K = 3, got 2"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            prefix_gaps(ALPHA3, (F(-1), 0))  # the length is checked first

    def test_prefix_gaps_match_the_fraction_oracle(self):
        """The Fraction view of the integer gaps against gaps written out on
        Fractions: equal values, each a Fraction, with r = None, small tuples
        and tuples that exhaust a prefix or run past it."""
        rng = np.random.default_rng(23)
        for K in range(1, 9):
            for _ in range(6):
                alpha = random_strengths(rng, K)
                j = int(rng.integers(0, K))
                draws = [
                    None,
                    tuple(F(int(rng.integers(0, 4)), int(rng.integers(1, 30))) for _ in range(K)),
                    tuple(alpha[j] if i == j else F(0) for i in range(K)),  # exhausts prefix j + 1
                    tuple(alpha[j] + F(1, 7) if i == j else F(1, 9) for i in range(K)),
                    tuple(str(F(int(rng.integers(0, 3)), 20)) for _ in range(K)),
                ]
                for r in draws:
                    got = prefix_gaps(alpha, r)
                    want = oracle.unicast_gaps(SimpleNamespace(alpha=alpha, num_users=K), r)
                    assert got == want, (alpha, r)
                    assert all(type(g) is F for g in got)


class TestSymmetricKinds:
    """The three symmetric kinds share one group-size and coverage check and
    one closed-form count, which must match counting the groups directly."""

    @pytest.mark.parametrize("K", range(1, 7))
    def test_projection_is_the_leading_prefix_missing_region(self, K):
        rng = np.random.default_rng(K)
        alpha = random_strengths(rng, K)
        for sigma in range(1, K + 1):
            for s in range(1, K + 1):
                projected = symmetric_projection(K, sigma, alpha, s)
                missing = build_missing_message_region(K, sigma, alpha, range(1, s + 1))
                assert projected == missing, (sigma, s)

    @pytest.mark.parametrize("K", range(1, 7))
    def test_missing_counts_match_enumeration(self, K):
        rng = np.random.default_rng(30 + K)
        alpha = random_strengths(rng, K)
        for sigma in range(1, K + 1):
            for _ in range(4):
                others = [u for u in range(2, K + 1) if rng.random() < 0.5]
                leaders = [1, *others]
                poly = build_missing_message_region(K, sigma, alpha, leaders)
                groups = list(combinations(range(1, K + 1), sigma))
                expected = [
                    sum(1 for g in groups if any(u in g for u in leaders if u <= k))
                    for k in range(1, K + 1)
                ]
                assert [coeffs[-1] for coeffs, _ in poly.rows] == expected, (sigma, leaders)

    @pytest.mark.parametrize(
        "build",
        [
            lambda sigma: symmetric_projection(3, sigma, ALPHA3, 3),
            lambda sigma: build_missing_message_region(3, sigma, ALPHA3, [1, 2]),
            lambda sigma: max_symmetric_gdof(3, sigma, ALPHA3, 3, (0, 0, 0)),
        ],
        ids=["projection", "missing", "max-gdof"],
    )
    @pytest.mark.parametrize("sigma", [0, 4, 5])
    def test_group_size_outside_one_to_K(self, build, sigma):
        with pytest.raises(ValueError, match=r"group size must lie in \[1, 3\]"):
            build(sigma)

    def test_group_size_one_is_a_symmetric_kind(self):
        # sigma = 1: every leader prefix of size j meets j singletons
        assert [c[-1] for c, _ in symmetric_projection(3, 1, ALPHA3, 2).rows] == [1, 2, 2]
        assert max_symmetric_gdof(3, 1, ALPHA3, 3, (0, 0, 0)) == F(1, 3)

    @pytest.mark.parametrize("sigma", [1, 4])
    def test_full_and_beta_regions_need_two_to_K(self, sigma):
        with pytest.raises(ValueError, match=r"group size must lie in \[2, 3\]"):
            build_region(3, sigma, ALPHA3)
        with pytest.raises(ValueError, match=r"group size must lie in \[2, 3\]"):
            beta_parameterized_polytope(3, sigma, ALPHA3)

    @pytest.mark.parametrize(
        "build,message",
        [(lambda: symmetric_projection(3, 2, ALPHA3, True), "s must be an integer, got True"),
         (lambda: max_symmetric_gdof(3, 2, ALPHA3, True, (0, 0, 0)), "s must be an integer, got True"),
         (lambda: symmetric_projection(3, 2, ALPHA3, 2.0), "s must be an integer, got 2.0"),
         (lambda: build_missing_message_region(3, 2, ALPHA3, [True]), "leader must be an integer, got True"),
         (lambda: build_missing_message_region(3, 2, ALPHA3, [1.0]), "leader must be an integer, got 1.0"),
         (lambda: build_region(3.0, 2, ALPHA3), "user count must be an integer, got 3.0"),
         (lambda: build_region(3, 2.0, ALPHA3), "group size must be an integer, got 2.0"),
         (lambda: beta_parameterized_polytope(3, True, ALPHA3), "group size must be an integer, got True"),
         (lambda: symmetric_projection(3.0, 2, ALPHA3, 1), "user count must be an integer, got 3.0"),
         (lambda: symmetric_projection(3.0, 2, ALPHA3, 9), "user count must be an integer, got 3.0"),
         (lambda: build_missing_message_region(3, F(2), ALPHA3, [1]),
          "multicast group size must be an integer, got Fraction(2, 1)"),
         (lambda: build_two_multicast_symmetric(3, 2, 3.0, ALPHA3, 1),
          "multicast group size must be an integer, got 3.0"),
         (lambda: user_strengths(3.0, ALPHA3), "user count must be an integer, got 3.0"),
         (lambda: user_strengths(True, (F(1),)), "user count must be an integer, got True")],
        ids=["projection-s-bool", "max-gdof-s-bool", "projection-s-float", "leader-bool", "leader-float",
             "full-users-float", "full-size-float", "beta-size-bool", "projection-users-float",
             "projection-users-float-s-past-K",
             "missing-size-fraction", "two-multicast-gamma-float", "strengths-users-float",
             "strengths-users-bool"],
    )
    def test_integer_arguments_are_refused_by_name(self, build, message):
        """A bool is not read as 1, nor a float as an int: each is refused by its name."""
        with pytest.raises(ValueError, match=re.escape(message)):
            build()

    @pytest.mark.parametrize("r, message", [
        pytest.param((F(-1, 10), 0, 0), "r_1 must be at least 0, got -1/10", id="r0"),
        pytest.param((0, F(1, 10), F(-1, 20)), "r_3 must be at least 0, got -1/20", id="r1"),
        pytest.param((0, 0), "one unicast GDoF per user is required: K = 3, got 2", id="r2"),
    ])
    def test_max_gdof_refuses_bad_unicast_rates(self, r, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            max_symmetric_gdof(3, 2, ALPHA3, 3, r)


def in_levels(rates, beta) -> bool:
    """Is (rates, beta_2, beta_3) in the K = 3, sigma = 2 level system?  Rates
    left out carry zero."""
    system = beta_parameterized_polytope(3, 2, ALPHA3)
    values = {**rates, **dict(zip(beta_names(3), beta[1:]))}
    return system.contains({name: values.get(name, 0) for name in system.variables})


def one_rate_per_level(num_users, alpha) -> Polytope:
    """The level system over (r_1..r_K, betas) with one rate per level: at
    sigma = K the only group, r_1_..._K, is silenced."""
    system = beta_parameterized_polytope(num_users, num_users, alpha)
    return fix_variables(system, {"r_" + "_".join(map(str, range(1, num_users + 1))): 0})


class TestBetaRegions:
    def test_exponent_validation(self):
        # with every rate zero, the level rows admit valid exponents and refuse others
        assert in_levels({}, (0, F(1, 4), F(2, 5)))
        assert not in_levels({}, (0, F(1, 2), F(2, 5)))  # decreasing
        assert not in_levels({}, (0, F(1, 2), F(1)))  # beta_3 > a_2

    def test_zero_point_always_inside(self):
        assert in_levels({}, (0, F(1, 5), F(2, 5)))

    def test_slack_free_levels_and_perturbation(self):
        # levels exactly matched by loads: level widths 2/5, 1/4, and 1 - 13/20
        beta = (F(0), F(2, 5), F(13, 20))
        rates = {"r_1": F(1, 5), "r_2": F(1, 4), "r_3": F(7, 20), "r_1_2": F(1, 10),
                 "r_1_3": F(1, 10), "r_2_3": F(0)}
        assert in_levels(rates, beta)
        assert not in_levels({**rates, "r_1": F(1, 5) + F(1, 100)}, beta)

    def test_levels_built_from_loads_admit_the_point(self):
        # cumulative loads as exponents reproduce a feasible allocation
        rates = {"r_1": F(1, 10), "r_2": F(1, 10), "r_3": F(1, 10), "r_1_2": F(1, 10),
                 "r_1_3": F(0), "r_2_3": F(1, 5)}
        loads = [F(1, 10) + F(1, 10), F(1, 10) + F(1, 5), F(1, 10)]
        beta = (F(0), loads[0], loads[0] + loads[1])
        assert in_levels({}, beta)
        assert in_levels(rates, beta)

    def test_anchored_groups_share_levels(self):
        system = beta_parameterized_polytope(3, 2, ALPHA3)
        row0 = dict(zip(system.variables, system.rows[0][0]))
        assert row0["r_1"] == row0["r_1_2"] == row0["r_1_3"] == 1
        assert row0["r_2_3"] == 0
        row2 = dict(zip(system.variables, system.rows[2][0]))
        rates2 = {name: c for name, c in row2.items() if not name.startswith("beta")}
        assert rates2["r_3"] == 1 and sum(rates2.values()) == 1


class TestFourierMotzkin:
    def test_rho_projection_is_cumulative(self):
        projected = prune(eliminate(one_rate_per_level(3, ALPHA3), beta_names(3)))
        expected = Polytope(
            ("r_1", "r_2", "r_3"),
            [
                ((1, 0, 0), F(2, 5)),
                ((1, 1, 0), F(9, 10)),
                ((1, 1, 1), F(1)),
            ],
        )
        assert projected.variables == expected.variables
        assert canonical(projected).rows == canonical(expected).rows

    @pytest.mark.parametrize("num_users,sigma", [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (4, 4)])
    def test_projection_equals_triangular_region(self, num_users, sigma):
        rng = np.random.default_rng(10 * num_users + sigma)
        for _ in range(3):
            alpha = random_strengths(rng, num_users)
            theorem = build_region(num_users, sigma, alpha)
            system = beta_parameterized_polytope(num_users, sigma, alpha)
            projected = prune(eliminate(system, beta_names(num_users)))
            assert regions_equal(projected, theorem)

    def test_projection_holds_at_five_users(self):
        rng = np.random.default_rng(55)
        alpha = random_strengths(rng, 5)
        theorem = build_region(5, 3, alpha)
        system = beta_parameterized_polytope(5, 3, alpha)
        projected = prune(eliminate(system, beta_names(5)))
        assert regions_equal(projected, theorem)

    def test_projection_respects_substitution(self):
        # aggregate the group variables of the projected region per anchor user
        # and it must match the projection with one rate per level
        alpha = ALPHA4
        theorem = build_region(4, 2, alpha)
        groups = list(combinations(range(1, 5), 2))
        rho_proj = prune(eliminate(one_rate_per_level(4, alpha), beta_names(4)))
        # evaluate both on matched random points
        rng = np.random.default_rng(3)
        for _ in range(50):
            r = [F(int(rng.integers(0, 20)), 100) for _ in range(4)]
            g = {grp: F(int(rng.integers(0, 20)), 100) for grp in groups}
            point = {f"r_{k+1}": r[k] for k in range(4)}
            point.update({f"r_{'_'.join(map(str, grp))}": g[grp] for grp in groups})
            rho = {}
            for k in range(1, 5):
                total = r[k - 1]
                if k <= 3:  # anchored groups exist below the cutoff
                    total += sum(v for grp, v in g.items() if min(grp) == k)
                rho[f"r_{k}"] = total
            assert theorem.contains(point) == rho_proj.contains(rho)
