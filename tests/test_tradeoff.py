import math
import random
import re
from fractions import Fraction as F

import fraction_oracles as oracle
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cachecast.combinatorics import lower_convex_envelope, multicast_load_sequence
from cachecast.polytope import region_contains, vertices
from cachecast.regions import cumulative_region, user_strengths
from cachecast.tradeoff import (
    CONVERSE_FACTOR,
    INF,
    SystemConfig,
    _Curve,
    _max_terms,
    _ratio,
    bottleneck_user,
    gdof_region_inner,
    gndt_joint_two_set,
    gndt_lower_bound,
    gndt_memory_sharing,
    gndt_ub,
    topological_hole_region,
)

ALPHA3 = (F(2, 5), F(9, 10), F(1))
FIG_ALPHA = (F("0.45"), F("0.65"), F("0.85"), F(1))


def config(K, N, mu, alpha):
    return SystemConfig(num_users=K, num_files=N, mu=F(mu), alpha=alpha)


def chord_loads(cfg):
    """env_k(K*mu) per prefix k as Fractions: the config's `_chord`, integers P_k over one D."""
    scale, loads = cfg._chord
    assert type(scale) is int and all(type(p) is int for p in loads)
    return tuple(F(p, scale) for p in loads)


def tenths_strengths(rng, K):
    """Nondecreasing strengths on the grid 1/10..1 with alpha_K = 1, so that
    load-to-strength ratios often tie."""
    return tuple(F(int(c), 10) for c in sorted(rng.integers(1, 11, size=K - 1))) + (F(1),)


def random_config(rng, max_users=6, integer_budget=None):
    K = int(rng.integers(2, max_users + 1))
    N = int(rng.integers(1, 7))
    denom = int(rng.integers(8, 60))
    cuts = sorted(int(rng.integers(1, denom)) for _ in range(K - 1))
    alpha = tuple(F(c, denom) for c in cuts) + (F(1),)
    if integer_budget is True:
        mu = F(int(rng.integers(0, K + 1)), K)
    elif integer_budget is False:
        num = int(rng.integers(1, 4 * K))
        mu = F(num, 4 * K)
        if (K * mu).denominator == 1:
            mu += F(1, 8 * K)
    else:
        mu = F(int(rng.integers(0, 8 * K + 1)), 8 * K)
    return config(K, N, mu, alpha)


class TestPrefixLoads:
    @pytest.mark.parametrize("K", range(1, 9))
    def test_matches_per_prefix_envelope(self, K):
        """env_k(K*mu) against the generic hull of each prefix's load sequence,
        for every N up to K + 1 and every mu on a 1/(4K) grid."""
        alpha = tuple(F(k, K) for k in range(1, K + 1))
        budgets = set()
        for N in range(1, K + 2):
            for j in range(4 * K + 1):
                cfg = config(K, N, F(j, 4 * K), alpha)
                expected = tuple(
                    lower_convex_envelope(multicast_load_sequence(K, min(k, N)), K * cfg.mu)
                    for k in range(1, K + 1)
                )
                assert chord_loads(cfg) == expected
                budgets.add(cfg.integer_budget)
        assert budgets == {True, False}

    @pytest.mark.parametrize("K", range(9, 25))
    def test_matches_per_prefix_envelope_large(self, K):
        """The chord between neighbouring coded loads against the generic hull
        for larger K, on a coarse mu grid whose budgets K*mu have many
        different fractional parts."""
        alpha = tuple(F(k, K) for k in range(1, K + 1))
        for N in (1, K // 2, K + 1):
            for j in range(2 * K + 2):
                cfg = config(K, N, F(j, 2 * K + 1), alpha)
                envelopes = [
                    lower_convex_envelope(multicast_load_sequence(K, served), K * cfg.mu)
                    for served in range(1, min(K, N) + 1)
                ]
                expected = tuple(envelopes[min(k, N) - 1] for k in range(1, K + 1))
                assert chord_loads(cfg) == expected, (K, N, j)

    def test_config_holds_no_power(self):
        # the nominal power is an argument of the finite_snr builders alone
        assert SystemConfig._fields == ("num_users", "num_files", "mu", "alpha")

    def test_float_mu_is_refused(self):
        with pytest.raises(TypeError):
            SystemConfig(num_users=3, num_files=3, mu=0.1, alpha=ALPHA3)

    @pytest.mark.parametrize(
        "users,files,message",
        [(3, 2.5, "file count must be an integer, got 2.5"),
         (True, 2, "user count must be an integer, got True"),
         (3.0, 3, "user count must be an integer, got 3.0"),
         (3, False, "file count must be an integer, got False"),
         (0, 2, "user count must be a whole number of at least 1, got 0"),
         (3, 0, "file count must be a whole number of at least 1, got 0")],
        ids=["files-float", "users-bool", "users-float", "files-bool", "no-users", "no-files"],
    )
    def test_counts_must_be_ints(self, users, files, message):
        # a float count failed later in the count table, and True ran as K = 1
        with pytest.raises(ValueError, match=re.escape(message)):
            SystemConfig(num_users=users, num_files=files, mu=F(1, 3), alpha=ALPHA3)


class TestChord:
    @given(K=st.integers(2, 12), N=st.integers(1, 14), data=st.data())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_matches_the_fraction_chord(self, K, N, data):
        """At a non-integer K*mu, `_chord`'s integers over one denominator are
        the Fraction chord between the two neighbouring integer budgets, and
        the config's budget is K*mu in lowest terms, for mu whose denominator
        shares a factor with K or not."""
        g = data.draw(st.sampled_from([d for d in range(1, K + 1) if K % d == 0]))
        q = g * data.draw(st.integers(2, 10**4))
        mu = F(data.draw(st.integers(0, q)), q)
        budget = K * mu
        assume(budget.denominator > 1)
        cfg = config(K, N, mu, (F(1),) * K)
        low = budget.numerator // budget.denominator
        scale, loads = cfg._chord
        for k, load in enumerate(loads, start=1):
            seq = multicast_load_sequence(K, min(k, N))
            assert F(load, scale) == seq[low] + (budget - low) * (seq[low + 1] - seq[low]), k
        assert (cfg._budget, cfg.integer_budget) == ((budget.numerator, budget.denominator), False)


class TestUpperBound:
    def test_three_user_third_memory(self):
        cfg = config(3, 3, F(1, 3), ALPHA3)
        assert gndt_ub(cfg) == F(5, 3)

    def test_full_memory_is_free(self):
        cfg = config(3, 3, 1, ALPHA3)
        assert gndt_ub(cfg) == 0
        assert gndt_ub(cfg, (F(1, 10), F(1, 10), F(1, 10))) == 0

    def test_four_user_integer_points(self):
        expected = {0: F(4), 1: F(25, 13), 2: F(10, 9), 3: F(5, 9), 4: F(0)}
        for t, tau in expected.items():
            cfg = config(4, 4, F(t, 4), FIG_ALPHA)
            assert gndt_ub(cfg) == tau

    def test_exhausted_prefix_is_infinite(self):
        cfg = config(3, 3, F(1, 3), ALPHA3)
        assert gndt_ub(cfg, (F(2, 5), 0, 0)) == math.inf

    def test_unicast_loads_never_help(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            cfg = random_config(rng)
            r = tuple(F(int(rng.integers(0, 3)), 20) for _ in range(cfg.num_users))
            base = gndt_ub(cfg)
            loaded = gndt_ub(cfg, r)
            assert loaded >= base

    @given(num=st.integers(0, 24), bump=st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_memory(self, num, bump):
        mu_lo = F(num, 24)
        mu_hi = min(F(1), mu_lo + F(bump, 24))
        lo = gndt_ub(config(3, 3, mu_lo, ALPHA3))
        hi = gndt_ub(config(3, 3, mu_hi, ALPHA3))
        assert hi <= lo

    def test_monotone_in_strengths(self):
        weaker = config(3, 3, F(1, 3), (F(3, 10), F(1, 2), F(1)))
        stronger = config(3, 3, F(1, 3), (F(2, 5), F(9, 10), F(1)))
        assert gndt_ub(stronger) <= gndt_ub(weaker)


class TestIntegerForm:
    def test_agrees_with_envelope_form(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            cfg = random_config(rng, integer_budget=True)
            assert gndt_ub(cfg) == integer_oracle(cfg, None)

    def test_single_user_load(self):
        for mu in (F(0), F(1, 2), F(1)):
            cfg = config(1, 1, mu, (F(1),))
            assert gndt_ub(cfg) == 1 - mu

    def test_plentiful_files_reduce_to_prefix_count(self):
        # with N >= K the served count is k itself
        rng = np.random.default_rng(2)
        for _ in range(20):
            cfg = random_config(rng, integer_budget=True)
            big = config(cfg.num_users, cfg.num_users + 3, cfg.mu, cfg.alpha)
            K = big.num_users
            t = int(K * big.mu)
            direct = max(
                F(math.comb(K, t + 1) - math.comb(K - k, t + 1), math.comb(K, t)) / big.alpha[k - 1]
                for k in range(1, K + 1)
            )
            assert gndt_ub(big) == direct


class TestMemorySharing:
    def test_matches_at_integer_budgets(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            cfg = random_config(rng, integer_budget=True)
            assert gndt_memory_sharing(cfg) == gndt_ub(cfg)

    def test_interpolates_the_maxed_curve(self):
        cfg = config(4, 4, F(1, 8), FIG_ALPHA)  # budget 1/2
        assert gndt_memory_sharing(cfg) == (F(4) + F(25, 13)) / 2 == F(77, 26)

    def test_equal_strengths_close_the_gap(self):
        flat = (F(1), F(1), F(1), F(1))
        for num in range(0, 33):
            cfg = config(4, 4, F(num, 32), flat)
            assert gndt_memory_sharing(cfg) == gndt_ub(cfg)

    def test_never_below_joint_delivery(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            cfg = random_config(rng, integer_budget=False)
            assert gndt_joint_two_set(cfg) <= gndt_memory_sharing(cfg)


class TestJointDelivery:
    def test_rejects_integer_budget(self):
        with pytest.raises(ValueError, match=r"^cache budget K\*mu = 1 is an integer; no split needed$"):
            gndt_joint_two_set(config(4, 4, F(1, 4), FIG_ALPHA))

    def test_equals_envelope_form(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            cfg = random_config(rng, integer_budget=False)
            r = tuple(F(int(rng.integers(0, 2)), 30) for _ in range(cfg.num_users))
            assert gndt_joint_two_set(cfg, r) == gndt_ub(cfg, r)

    def test_strictly_better_than_memory_sharing_somewhere(self):
        seen_strict = False
        for num in range(1, 32):
            mu = F(num, 128)  # sweep K*mu through (0, 1)
            cfg = config(4, 4, mu, FIG_ALPHA)
            if cfg.integer_budget:
                continue
            joint = gndt_joint_two_set(cfg)
            shared = gndt_memory_sharing(cfg)
            assert joint <= shared
            seen_strict |= joint < shared
        assert seen_strict


def _curve_oracle(K, N, mu, alpha, r):
    """(ub, ms, lb, joint) from the load sequences, gaps and hulls, built afresh."""
    cfg = config(K, N, mu, alpha)
    loads = [lower_convex_envelope(seq, K * cfg.mu) for seq in oracle.load_sequences(cfg)]
    gaps = oracle.unicast_gaps(cfg, r)
    ub = max(oracle.ratio(load, gap) for load, gap in zip(loads, gaps))
    lb = max(oracle.ratio(load / CONVERSE_FACTOR, gap) for load, gap in zip(loads, gaps))
    ms = oracle.gndt_memory_sharing(cfg, r)
    return ub, ms, lb, None if cfg.integer_budget else ub


class TestSharedCurveData:
    """The four formulas keep what a curve's budgets share; every input
    change, one at a time, must reach every value.  Each strengths profile is
    one checked value, so the configs that keep it share the curve record."""

    A4 = user_strengths(4, (F(1, 5), F(2, 5), F(3, 5), F(1)))
    B4 = user_strengths(4, (F(1, 2), F(1, 2), F(3, 4), F(1)))
    A5 = user_strengths(5, (F(1, 5), F(2, 5), F(3, 5), F(4, 5), F(1)))
    R4 = (F(1, 5), F(1, 5), 0, 0)  # exhausts the first two prefixes of A4
    # (K, N, mu, alpha, r), each step changing the one input it names; a
    # change of K comes with strengths (and r) of the new length
    STEPS = [
        ("start", (4, 2, F(3, 8), A4, None)),
        ("mu", (4, 2, F(5, 8), A4, None)),
        ("N", (4, 4, F(5, 8), A4, None)),
        ("N", (4, 1, F(5, 8), A4, None)),
        ("alpha", (4, 1, F(5, 8), B4, None)),
        ("r", (4, 1, F(5, 8), B4, (F(1, 10), 0, 0, 0))),
        ("r", (4, 1, F(5, 8), B4, (0, 0, F(1, 10), 0))),
        ("N", (4, 3, F(5, 8), B4, (0, 0, F(1, 10), 0))),
        ("alpha", (4, 3, F(5, 8), A4, (0, 0, F(1, 10), 0))),
        ("r zero", (4, 3, F(5, 8), A4, (0, 0, 0, 0))),
        ("r None", (4, 3, F(5, 8), A4, None)),
        ("r zero", (4, 3, F(5, 8), A4, (F(0),) * 4)),
        ("r str", (4, 3, F(5, 8), A4, ("1/5", "0", "0", "0"))),
        ("r Fraction", (4, 3, F(5, 8), A4, (F(1, 5), 0, 0, 0))),
        ("r exhausts", (4, 3, F(5, 8), A4, R4)),
        ("mu", (4, 3, F(1), A4, R4)),
        ("K", (5, 3, F(1), A5, R4 + (0,))),
        ("mu", (5, 3, F(3, 10), A5, R4 + (0,))),
        ("K", (4, 3, F(3, 10), A4, R4)),
        ("r", (4, 3, F(3, 10), A4, None)),
        ("alpha", (4, 3, F(3, 10), B4, None)),
        ("N", (4, 2, F(3, 10), B4, None)),
        ("mu", (4, 2, F(0), B4, None)),
        ("K", (5, 2, F(0), A5, None)),
        ("mu", (5, 2, F(1, 2), A5, None)),
        ("K", (4, 2, F(1, 2), A4, None)),
    ]

    @pytest.mark.parametrize("order", ["forward", "backward"])
    def test_every_value_matches_a_fresh_oracle(self, order):
        steps = self.STEPS if order == "forward" else self.STEPS[::-1]
        for changed, (K, N, mu, alpha, r) in steps:
            cfg = config(K, N, mu, alpha)
            ub, ms, lb, joint = _curve_oracle(K, N, mu, alpha, r)
            got = (gndt_ub(cfg, r), gndt_memory_sharing(cfg, r), gndt_lower_bound(cfg, r))
            assert got == (ub, ms, lb), changed
            if joint is not None:
                assert gndt_joint_two_set(cfg, r) == joint, changed
            assert chord_loads(cfg) == tuple(
                lower_convex_envelope(multicast_load_sequence(K, min(k, N)), K * cfg.mu)
                for k in range(1, K + 1)
            ), changed

    def test_steps_change_one_input_each(self):
        names = ["K", "N", "mu", "alpha", "r"]
        for (_, before), (changed, after) in zip(self.STEPS, self.STEPS[1:]):
            moved = {n for n, a, b in zip(names, before, after) if a != b or type(a) is not type(b)}
            if changed == "K":
                assert moved == {"K", "alpha", "r"} or moved == {"K", "alpha"}, changed
            else:
                assert moved == {changed.split()[0]}, changed


class TestCurveRecordReuse:
    """A curve's record is reused only for the same checked strengths object
    and r None or the same tuple object; anything else is checked and computed
    afresh.  The strengths here are checked values, as the CLI's --alpha is."""

    A4 = TestSharedCurveData.A4
    FORMULAS = [gndt_ub, gndt_memory_sharing, gndt_lower_bound, gndt_joint_two_set]

    @pytest.mark.parametrize("formula", FORMULAS, ids=lambda f: f.__name__)
    def test_a_float_r_after_an_equal_fraction_tuple_is_refused(self, formula):
        cfg = config(4, 4, F(3, 8), self.A4)
        formula(cfg, (F(1, 8), 0, 0, 0))
        with pytest.raises(TypeError, match=r"^0\.125 is a float; pass an int, a Fraction"):
            formula(cfg, (0.125, 0, 0, 0))

    @pytest.mark.parametrize("formula", FORMULAS, ids=lambda f: f.__name__)
    def test_a_list_r_changed_in_place_gives_the_new_value(self, formula):
        cfg, r = config(4, 4, F(3, 8), self.A4), [F(1, 10), 0, 0, 0]
        for r1 in (F(1, 10), F(3, 20), 0):
            r[0] = r1
            ub, ms, lb, joint = _curve_oracle(4, 4, F(3, 8), self.A4, r)
            assert formula(cfg, r) == {gndt_ub: ub, gndt_memory_sharing: ms,
                                       gndt_lower_bound: lb, gndt_joint_two_set: joint}[formula], r1

    def test_a_change_of_N_alone_reaches_memory_sharing(self):
        """The integer-budget times belong to one min(K, N): the same checked
        strengths object and r None at another file count build their own."""
        B4 = TestSharedCurveData.B4
        for N in (2, 1, 4, 1):
            assert gndt_memory_sharing(config(4, N, F(3, 8), B4)) == _curve_oracle(4, N, F(3, 8), B4, None)[1], N

    def test_a_record_per_strengths_object(self):
        """Configs built from one checked value share one record; a fresh plain
        tuple per config is checked into a new object and gets a new record."""
        shared = [_Curve.of(config(4, 4, mu, self.A4), None) for mu in (F(1, 8), F(5, 8))]
        assert shared[0] is shared[1]
        fresh = [_Curve.of(config(4, 4, mu, tuple(self.A4)), None) for mu in (F(1, 8), F(5, 8))]
        assert fresh[0] is not fresh[1] and fresh[0].gaps == fresh[1].gaps == shared[0].gaps

    def test_the_converse_reads_its_own_configs_maximum(self):
        """`gndt_lower_bound` right after `gndt_ub` at another config of the
        same curve (one checked strengths object, r None) reads its own maximum."""
        for first, second in [(F(1, 8), F(5, 8)), (F(5, 8), F(1, 8)), (F(1, 4), F(3, 4))]:
            gndt_ub(config(4, 2, first, self.A4))
            assert gndt_lower_bound(config(4, 2, second, self.A4)) == _curve_oracle(4, 2, second, self.A4, None)[2]


def joint_two_set_oracle(cfg, r):
    budget = cfg.num_users * cfg.mu
    low = math.floor(budget)
    lam = low + 1 - budget
    return max(
        [F(0)]
        + [
            oracle.ratio(lam * seq[low] + (1 - lam) * seq[low + 1], gap)
            for seq, gap in zip(oracle.load_sequences(cfg), oracle.unicast_gaps(cfg, r))
        ]
    )


def integer_oracle(cfg, r):
    n = int(cfg.num_users * cfg.mu)
    pairs = zip(oracle.load_sequences(cfg), oracle.unicast_gaps(cfg, r))
    return max([F(0)] + [oracle.ratio(seq[n], gap) for seq, gap in pairs])


class TestAgainstFullSequenceOracles:
    """The paths that read single coded loads, or build min(K, N) sequences,
    against the formulations that build all K sequences."""

    @pytest.mark.parametrize("K,N", [(5, 2), (5, 5), (5, 8), (7, 3), (7, 10)])
    def test_memory_sharing_joint_and_integer(self, K, N):
        rng = np.random.default_rng(K * 100 + N)
        alpha = tuple(F(k + 1, K + 1) for k in range(1, K)) + (F(1),)
        exhausted_first = (alpha[0],) + (F(0),) * (K - 1)
        exhausted_last = (F(0),) * (K - 2) + (alpha[K - 2], F(1) - alpha[K - 2])
        seen_inf = False
        for j in range(4 * K + 1):
            cfg = config(K, N, F(j, 4 * K), alpha)
            small = tuple(F(int(rng.integers(0, 3)), 50) for _ in range(K))
            for r in (None, small, exhausted_first, exhausted_last):
                shared = gndt_memory_sharing(cfg, r)
                assert shared == oracle.gndt_memory_sharing(cfg, r), (j, r)
                seen_inf |= shared == math.inf
                if cfg.integer_budget:
                    assert gndt_ub(cfg, r) == integer_oracle(cfg, r), (j, r)
                else:
                    assert gndt_joint_two_set(cfg, r) == joint_two_set_oracle(cfg, r), (j, r)
        assert seen_inf


class TestIntegerViewAgainstFractionOracles:
    """The integer chords, gaps, hull and cross-multiplied maxima against the
    Fraction formulas they replaced, which take neither their gaps nor their
    hull from the package: equal values of equal type (a Fraction, or the
    float inf), on a seeded grid with N < K, mu = 0, mu = 1, fractional
    budgets on 1/(4K) and 1/100 grids, and unicast tuples that exhaust a
    prefix."""

    @staticmethod
    def draws():
        rng = np.random.default_rng(19)
        for K in range(1, 11):
            for N in sorted({1, max(1, K // 2), K, K + 2}):
                cuts = sorted(int(rng.integers(1, 40)) for _ in range(K - 1))
                alpha = tuple(F(c, 40) for c in cuts) + (F(1),)
                j = int(rng.integers(0, K))
                exhausting = tuple(alpha[j] if i == j else F(0) for i in range(K))
                small = tuple(F(int(rng.integers(0, 3)), 10 * K) for _ in range(K))
                mus = {F(0), F(1)} | {F(int(rng.integers(0, 4 * K + 1)), 4 * K) for _ in range(3)}
                mus |= {F(int(rng.integers(0, 101)), 100) for _ in range(3)}
                for mu in sorted(mus):
                    for r in (None, small, exhausting):
                        yield config(K, N, mu, alpha), r

    def test_every_formula_equals_its_oracle(self):
        seen = set()
        for cfg, r in self.draws():
            pairs = [
                (gndt_ub, oracle.gndt_ub),
                (gndt_lower_bound, oracle.gndt_lower_bound),
                (gndt_memory_sharing, oracle.gndt_memory_sharing),
            ]
            if not cfg.integer_budget:
                pairs.append((gndt_joint_two_set, oracle.gndt_joint_two_set))
            for fast, slow in pairs:
                got, want = fast(cfg, r), slow(cfg, r)
                assert (type(got), got) == (type(want), want), (fast.__name__, cfg, r)
                seen.add("inf" if got == math.inf else "zero" if got == 0 else "positive")
            assert chord_loads(cfg) == oracle.prefix_loads(cfg), cfg
        assert seen == {"inf", "zero", "positive"}


class TestMemosKeepRefusals:
    """A curve's one-entry memos are keyed by value; a bad input after a good
    one must still reach the check that refuses it."""

    @pytest.mark.parametrize(
        "formula", [gndt_ub, gndt_lower_bound, gndt_joint_two_set, gndt_memory_sharing]
    )
    def test_bad_unicast_tuple_after_a_good_one(self, formula):
        cfg = config(4, 3, F(3, 8), FIG_ALPHA)
        good = (F(1, 10), F(0), F(0), F(0))
        want = formula(cfg, good)
        with pytest.raises(ValueError, match="^r_1 must be at least 0, got -1/10$"):
            formula(cfg, (F(-1, 10), F(0), F(0), F(0)))
        short = f"^{re.escape('one unicast GDoF per user is required: K = 4, got 3')}$"
        with pytest.raises(ValueError, match=short):
            formula(cfg, good[:3])
        with pytest.raises(ValueError, match=short):
            formula(cfg, good[:3])  # a refusal leaves nothing behind
        assert formula(cfg, good) == want == getattr(oracle, formula.__name__)(cfg, good)

    @pytest.mark.parametrize(
        "K, alpha, message",
        [
            (3, (), "at least one channel strength is required"),
            (3, (F(0), F(1, 2), F(1)), "strengths must be positive"),
            (3, (F(1, 2), F(2, 5), F(1)), "strengths must be nondecreasing"),
            (3, (F(2, 5), F(9, 10), F(9, 10)), "normalized with alpha_K = 1"),
            (3, (F(0), F(1)), "strengths must be positive"),  # also one short: order kept
            (3, (F(9, 10), F(1)), "one channel strength per user is required: K = 3"),
            (2, ALPHA3, "one channel strength per user is required: K = 2"),
        ],
    )
    def test_bad_strengths_after_good_ones(self, K, alpha, message):
        good = config(3, 2, F(1, 2), ALPHA3)
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                config(K, 2, F(1, 2), alpha)
        assert config(3, 2, F(1, 2), ALPHA3) == good


class TestBottleneck:
    def test_weak_user_binds(self):
        assert bottleneck_user(config(3, 3, F(1, 3), ALPHA3)) == 1

    def test_middle_user_binds(self):
        # alpha_1 / 2 > alpha_2 / 3
        alpha = (F(7, 10), F(9, 10), F(1))
        assert bottleneck_user(config(3, 3, F(1, 3), alpha)) == 2

    def test_tie_goes_to_the_weakest(self):
        alpha = (F(2, 5), F(3, 5), F(1))  # 2/a1 == 3/a2 == 5
        assert bottleneck_user(config(3, 3, F(1, 3), alpha)) == 1

    def test_flat_strengths(self):
        flat = (F(1),) * 4
        for t in range(0, 4):
            cfg = config(4, 4, F(t, 4), flat)
            assert bottleneck_user(cfg) == 4 - t

    def test_requires_enough_files(self):
        with pytest.raises(ValueError, match="^the bottleneck user is defined for N >= K$"):
            bottleneck_user(config(3, 2, F(1, 3), ALPHA3))

    def test_requires_integer_budget(self):
        with pytest.raises(ValueError, match="^the bottleneck user is defined for integer cache budgets$"):
            bottleneck_user(config(3, 3, F(1, 2), ALPHA3))

    @pytest.mark.parametrize("K", range(2, 9))
    def test_matches_the_fraction_argmax_on_a_tenths_grid(self, K):
        """Every integer budget below K and N = K..K+2, ties included."""
        rng = np.random.default_rng(2700 + K)
        ties = 0
        for _ in range(25):
            alpha = tenths_strengths(rng, K)
            for N in range(K, K + 3):
                for t in range(K):
                    cfg = config(K, N, F(t, K), alpha)
                    assert bottleneck_user(cfg) == oracle.bottleneck_user(cfg), cfg
                    ratios = [load / a for load, a in zip(oracle.prefix_loads(cfg), alpha)]
                    ties += ratios.count(max(ratios)) > 1
        assert ties

    def test_binding_prefix_is_the_first_oracle_maximum(self):
        """`_ratio` of `_max_terms` is the oracle's time, and `_max_terms` names the
        first prefix whose oracle ratio equals it, over random budgets, file
        counts and unicast tuples, exhausted prefixes and ties included."""
        rng = np.random.default_rng(2727)
        seen = set()
        for _ in range(600):
            K = int(rng.integers(1, 8))
            N = int(rng.integers(1, K + 3))
            cfg = config(K, N, F(int(rng.integers(0, 4 * K + 1)), 4 * K), tenths_strengths(rng, K))
            r = None if rng.random() < 0.2 else tuple(F(int(v), 20) for v in rng.integers(0, 5, size=K))
            gaps = oracle.unicast_gaps(cfg, r)
            ratios = [oracle.ratio(load, gap) for load, gap in zip(oracle.prefix_loads(cfg), gaps)]
            top = max(ratios)
            args = (*cfg._chord, *_Curve.of(cfg, r).gaps)
            assert (_ratio(*_max_terms(*args)), _max_terms(*args)[2]) == (top, ratios.index(top) + 1), (cfg, r)
            assert _Curve.of(cfg, r).terms == _max_terms(*args), (cfg, r)
            seen.add("inf" if top == math.inf else "tie" if ratios.count(top) > 1 else "one")
        assert seen == {"inf", "tie", "one"}


class TestHoles:
    def test_worked_example_bounds(self):
        cfg = config(3, 3, F(1, 3), ALPHA3)
        region = topological_hole_region(cfg)
        assert region.rows == (
            ((F(1), F(0), F(0)), F(0)),
            ((F(0), F(1), F(0)), F(3, 10)),
            ((F(0), F(1), F(1)), F(3, 10)),
        )

    def test_worked_example_invariance(self):
        cfg = config(3, 3, F(1, 3), ALPHA3)
        base = gndt_ub(cfg)
        assert base == F(5, 3)
        assert gndt_ub(cfg, (0, F(3, 10), 0)) == base
        for vertex in vertices(topological_hole_region(cfg)):
            assert gndt_ub(cfg, vertex) == base

    def test_flat_strengths_leave_no_holes(self):
        cfg = config(3, 3, F(1, 3), (F(1), F(1), F(1)))
        region = topological_hole_region(cfg)
        assert vertices(region) == [(F(0), F(0), F(0))]

    def test_random_instances_vertex_invariance(self):
        rng = np.random.default_rng(6)
        done = 0
        while done < 25:
            K = int(rng.integers(2, 6))
            denom = int(rng.integers(8, 40))
            cuts = sorted(int(rng.integers(1, denom)) for _ in range(K - 1))
            alpha = tuple(F(c, denom) for c in cuts) + (F(1),)
            t = int(rng.integers(0, K))
            cfg = config(K, K, F(t, K), alpha)
            region = topological_hole_region(cfg)
            base = gndt_ub(cfg)
            for vertex in vertices(region):
                assert gndt_ub(cfg, vertex) == base
            done += 1

    def test_full_cache_rejected(self):
        with pytest.raises(ValueError, match="^a full cache leaves no content traffic to protect$"):
            topological_hole_region(config(3, 3, 1, ALPHA3))

    @pytest.mark.parametrize("N, mu, message", [(2, F(1, 3), "defined for N >= K"),
                                                (3, F(1, 2), "defined for integer cache budgets")])
    def test_refusals_are_the_bottleneck_users(self, N, mu, message):
        with pytest.raises(ValueError, match=message):
            topological_hole_region(config(3, N, mu, ALPHA3))


class TestLowerBound:
    def test_ratio_is_exactly_the_converse_factor(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            cfg = random_config(rng)
            ub = gndt_ub(cfg)
            lb = gndt_lower_bound(cfg)
            if ub == 0:
                assert lb == 0
            else:
                assert lb * CONVERSE_FACTOR == ub

    def test_full_memory(self):
        assert gndt_lower_bound(config(3, 3, 1, ALPHA3)) == 0

    def test_worked_example_is_pinned(self):
        # tau_ub = 5/3 divided by the converse constant 201/100, written out
        assert gndt_lower_bound(config(3, 3, F(1, 3), ALPHA3)) == F(500, 603)

    def test_flat_strengths_bind_at_the_last_prefix(self):
        flat = (F(1),) * 4
        cfg = config(4, 4, F(1, 4), flat)
        last_load = F(math.comb(4, 2) - math.comb(0, 2), math.comb(4, 1))
        assert gndt_lower_bound(cfg) == last_load / CONVERSE_FACTOR

    def test_sandwich(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            cfg = random_config(rng)
            assert gndt_lower_bound(cfg) <= gndt_ub(cfg)

    @given(K=st.integers(1, 7), N=st.integers(1, 9), data=st.data())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_is_the_upper_bound_over_the_factor(self, K, N, data):
        """The converse's integers give gndt_ub / CONVERSE_FACTOR exactly, inf
        on an exhausted prefix included."""
        cuts = data.draw(st.lists(st.integers(1, 10), min_size=K - 1, max_size=K - 1))
        alpha = tuple(F(c, 10) for c in sorted(cuts)) + (F(1),)
        mu = F(data.draw(st.integers(0, 4 * K)), 4 * K)
        r = data.draw(st.none() | st.lists(st.sampled_from([F(0), F(1, 20), F(1, 5), F(1, 2)]),
                                           min_size=K, max_size=K).map(tuple))
        cfg = config(K, N, mu, alpha)
        ub, lb = gndt_ub(cfg, r), gndt_lower_bound(cfg, r)
        assert lb == ub / CONVERSE_FACTOR and type(lb) is type(ub)
        assert (lb is INF) == (ub is INF)


class TestCutSetBound:
    def test_upper_bound_is_never_below_the_cut_set_bound(self):
        """`gndt_ub` >= the per-prefix cut-set bound of `oracle.cutset_lower_bound`,
        exactly as Fractions, inf where the bound is inf, over 3000 seeded configs:
        K 2..10, N 1..K+3, mu on a 1/(3K) grid (fractional budgets included),
        alpha on a 1/d grid, and one r_i in {1..4}/40 in about half of them.

        A `gndt_ub` below the bound is a bug.  A ratio above 2.01 is not: the
        cut-set bound is loose at scale, so it cannot check the converse
        factor by itself.  That the bound holds in the GDoF limit of the
        degraded channel is a proof step this test does not make: a human
        checks it against Maddah-Ali & Niesen, IEEE T-IT 2014, Thm. 2."""
        rng = random.Random(404)
        seen = {"inf": 0, "positive": 0, "zero": 0, "unicast": 0, "fractional": 0}
        for _ in range(3000):
            K = rng.randint(2, 10)
            N = rng.randint(1, K + 3)
            mu = F(rng.randint(0, 3 * K), 3 * K)
            d = rng.randint(K + 1, 60)
            alpha = tuple(F(c, d) for c in sorted(rng.randint(1, d) for _ in range(K - 1))) + (F(1),)
            r = None
            if rng.random() < 0.5:
                r = [F(0)] * K
                r[rng.randrange(K)] = F(rng.randint(1, 4), 40)
                seen["unicast"] += 1
            cfg = config(K, N, mu, alpha)
            bound, ub = oracle.cutset_lower_bound(cfg, r), gndt_ub(cfg, r)
            if bound == INF:
                assert ub == INF, (cfg, r)
                seen["inf"] += 1
            else:
                assert type(bound) is F and ub >= bound, (cfg, r, ub, bound)
                seen["positive" if bound else "zero"] += 1
            seen["fractional"] += not cfg.integer_budget
        assert min(seen.values()) > 0, seen


class TestDecomposition:
    def test_load_splits_into_size_and_rate(self):
        # tau * r_sym_max = 1 / C(K, sigma - 1) for N >= K, integer budget
        rng = np.random.default_rng(9)
        for _ in range(30):
            K = int(rng.integers(2, 6))
            denom = int(rng.integers(8, 40))
            cuts = sorted(int(rng.integers(1, denom)) for _ in range(K - 1))
            alpha = tuple(F(c, denom) for c in cuts) + (F(1),)
            t = int(rng.integers(0, K))
            cfg = config(K, K, F(t, K), alpha)
            tau = gndt_ub(cfg)
            best_sym = oracle.max_symmetric_gdof(K, t + 1, alpha, K, (0,) * K)
            assert tau * best_sym == F(1, math.comb(K, t))


class TestRegionRouteCrossCheck:
    """Derive the delivery time through the polytope instead of the formula.

    The best symmetric per-payload value comes from an LP over the projected
    region with the unicast tuple pinned; multiplying by the payload count
    per file must reproduce the closed-form delivery time exactly.
    """

    @pytest.mark.parametrize("trial", range(30))
    def test_integer_budget_delivery_time_via_lp(self, trial):
        from cachecast.polytope import fix_variables
        from cachecast.regions import symmetric_projection

        rng = np.random.default_rng(700 + trial)
        K = int(rng.integers(2, 6))
        N = int(rng.integers(1, 7))
        denom = int(rng.integers(8, 40))
        cuts = sorted(int(rng.integers(1, denom)) for _ in range(K - 1))
        alpha = tuple(F(c, denom) for c in cuts) + (F(1),)
        t = int(rng.integers(0, K))  # leaves at least one payload group
        cfg = config(K, N, F(t, K), alpha)
        cap = alpha[0] / (2 * K)
        r = tuple(cap * int(rng.integers(0, 3)) for _ in range(K))

        sigma = t + 1
        served = min(K, N)
        poly = symmetric_projection(K, sigma, alpha, served)
        pinned = fix_variables(poly, {f"r_{k}": r[k - 1] for k in range(1, K + 1)})
        res = pinned.maximize({"r_sym": 1})
        assert res.status == "optimal" and res.value > 0
        via_region = F(1, math.comb(K, sigma - 1)) / res.value
        assert via_region == gndt_ub(cfg, r)


class TestInnerRegion:
    def test_vertices_obey_the_delivery_time(self):
        cfg = config(3, 3, F(1, 3), ALPHA3)
        tau = gndt_ub(cfg)
        region = gdof_region_inner(tau, cfg)
        for vertex in vertices(region):
            assert gndt_ub(cfg, vertex) <= tau

    def test_rows_match_the_fraction_loads(self):
        """Row k's rhs is alpha_k - env_k(K*mu) / tau with the oracle's Fraction
        loads, at integer and fractional budgets and integer and fractional tau."""
        rng = np.random.default_rng(47)
        budgets = set()
        for _ in range(60):
            cfg = random_config(rng)
            tau = F(int(rng.integers(1, 40)), int(rng.integers(1, 7)))
            rhs = [a - load / tau for a, load in zip(cfg.alpha, oracle.prefix_loads(cfg))]
            assert gdof_region_inner(tau, cfg) == cumulative_region(rhs), (cfg, tau)
            budgets.add(cfg.integer_budget)
        assert budgets == {True, False}

    def test_nested_in_relaxed_region(self):
        cfg = config(4, 4, F(1, 2), FIG_ALPHA)
        tau = F(3, 2)
        inner = gdof_region_inner(tau, cfg)
        relaxed = gdof_region_inner(tau * CONVERSE_FACTOR, cfg)
        assert region_contains(relaxed, inner)

    def test_contains_hole_region(self):
        rng = np.random.default_rng(10)
        for _ in range(15):
            K = int(rng.integers(2, 5))
            denom = int(rng.integers(8, 40))
            cuts = sorted(int(rng.integers(1, denom)) for _ in range(K - 1))
            alpha = tuple(F(c, denom) for c in cuts) + (F(1),)
            t = int(rng.integers(0, K))
            cfg = config(K, K, F(t, K), alpha)
            tau = gndt_ub(cfg)
            inner = gdof_region_inner(tau, cfg)
            holes = topological_hole_region(cfg)
            assert region_contains(inner, holes)

    def test_requires_positive_delivery_time(self):
        with pytest.raises(ValueError, match="^delivery time must be positive, got 0$"):
            gdof_region_inner(0, config(3, 3, F(1, 3), ALPHA3))
