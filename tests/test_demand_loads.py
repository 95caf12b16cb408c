"""The bit-level pipeline against the delivery-time formulas, per demand tuple
and at fractional cache budgets.

Every count here comes from what `encode_multicast` sends (its payloads'
groups and `size` bits), never from `tradeoff`'s count table, and is compared
with the closed forms of `fraction_oracles` and with the formulas of
`cachecast.tradeoff`.  Per demand d with leader set L, the sent load at prefix
k is L_k(d) (Yu, Maddah-Ali & Avestimehr, IEEE T-IT 2018); at a fractional
budget K*mu = low + s/b each file is split into a (b - s)/b part placed at
order low and an s/b part at order low + 1, the paper's joint two-set
delivery sends both parts' payloads at once, and memory sharing (Maddah-Ali &
Niesen, IEEE T-IT 2014) sends them one after the other.
"""

import itertools
import math
import random
from fractions import Fraction as F

import fraction_oracles as oracle

from cachecast.caching import encode_multicast, end_to_end_verify, random_library, select_leaders
from cachecast.tradeoff import SystemConfig, gndt_joint_two_set, gndt_memory_sharing, gndt_ub


def sent_per_prefix(payloads, num_users, weight=lambda p: 1):
    """Per prefix k = 1..K, the summed weight of the payloads whose group's
    weakest member is at most k (groups are sorted, so that is group[0])."""
    by_weakest = [0] * (num_users + 1)
    for p in payloads:
        by_weakest[p.group[0]] += weight(p)
    return tuple(itertools.accumulate(by_weakest[1:]))


def demands(num_users, num_files):
    return itertools.product(range(1, num_files + 1), repeat=num_users)


def draw_strengths(rng, K):
    d = rng.randint(K + 1, 40)
    return tuple(F(c, d) for c in sorted(rng.randint(1, d) for _ in range(K - 1))) + (F(1),)


class TestPerDemandLoads:
    def test_sent_groups_per_prefix_match_the_closed_form(self):
        """For every tuple with K <= 5, N <= K + 1 and every t = 0..K, the
        payloads sent with weakest member <= k number L_k(d) at every k."""
        tuples = 0
        for K in range(1, 6):
            for N in range(1, K + 2):
                for t in range(K + 1):
                    lib = random_library(N, K, t, seed=0)
                    for d in demands(K, N):
                        got = sent_per_prefix(encode_multicast(d, lib, select_leaders(d)), K)
                        want = oracle.sent_loads(K, t, oracle.leaders_of(d))
                        assert got == want, (K, N, t, d)
                        tuples += 1
        assert tuples == 78549

    def test_worst_tuple_is_the_upper_bound(self):
        """max over d of max_k L_k(d) / (C(K, t) gap_k) is `gndt_ub` at mu = t/K,
        over 60 seeded configs, unicast tuples that exhaust a prefix included."""
        rng = random.Random(24)
        seen = set()
        for _ in range(60):
            K = rng.randint(2, 5)
            N = rng.randint(1, K + 1)
            t = rng.randint(0, K)
            cfg = SystemConfig(K, N, F(t, K), draw_strengths(rng, K))
            r = None if rng.random() < 0.7 else [F(rng.randint(0, 3), 20) for _ in range(K)]
            gaps = oracle.unicast_gaps(cfg, r)
            worst = max(oracle.demand_time(K, t, oracle.leaders_of(d), gaps) for d in demands(K, N))
            assert worst == gndt_ub(cfg, r), (cfg, r)
            seen.add("inf" if worst == math.inf else "zero" if worst == 0 else "positive")
        assert seen == {"inf", "zero", "positive"}

    def test_leader_set_average_is_the_mean_over_tuples(self):
        """The leader-set sum sum_L P(L) tau(L) equals the plain mean of tau(d)
        over all N^K demand tuples, exactly, over 60 seeded configs."""
        rng = random.Random(2018)
        for _ in range(60):
            K = rng.randint(2, 5)
            N = rng.randint(1, K + 1)
            t = rng.randint(0, K)
            gaps = oracle.unicast_gaps(SystemConfig(K, N, F(t, K), draw_strengths(rng, K)), None)
            times = [oracle.demand_time(K, t, oracle.leaders_of(d), gaps) for d in demands(K, N)]
            mean = sum(times, F(0)) / N**K
            assert oracle.average_demand_time(K, N, t, gaps) == mean, (K, N, t, gaps)


class TestFractionalBudgetOnBits:
    def test_split_library_stores_decodes_and_meets_the_formulas(self):
        """K*mu = low + s/b: a (b - s)/b B-bit library at order low and an
        s/b B-bit one at order low + 1.  Every cache holds mu N B bits, every
        tuple decodes on both parts, and, from the bits each part sends per
        prefix, the worst tuple's joint time max_k (sent_k / B) / alpha_k is
        `gndt_ub` and `gndt_joint_two_set`, and its time-sharing time, the sum of
        each part's own max, is `gndt_memory_sharing`.  40 configs of
        random.Random(77): K 2..5, N 1..K+1 with N^K <= 4000, b 2..4."""
        rng = random.Random(77)
        done = 0
        while done < 40:
            K = rng.randint(2, 5)
            N = rng.randint(1, K + 1)
            if N**K > 4000:
                continue
            b = rng.randint(2, 4)
            low, s = rng.randint(0, K - 1), rng.randint(1, b - 1)
            B = b * math.comb(K, low) * math.comb(K, low + 1) * rng.randint(1, 2)
            cfg = SystemConfig(K, N, F(low * b + s, b * K), draw_strengths(rng, K))
            parts = [random_library(N, K, low, (b - s) * B // b, seed=2 * done),
                     random_library(N, K, low + 1, s * B // b, seed=2 * done + 1)]
            for user in range(K):
                assert sum(lib.caches[user].stored_bits for lib in parts) == cfg.mu * N * B
            joint, shared = F(0), F(0)
            for d in demands(K, N):
                sent = []
                for lib in parts:
                    assert end_to_end_verify(K, N, lib.split_order, d=d, library=lib), (cfg, d)
                    payloads = encode_multicast(d, lib, select_leaders(d))
                    sent.append(sent_per_prefix(payloads, K, lambda p: p.size))
                per_part = [max(F(bits, B) / a for bits, a in zip(part, cfg.alpha)) for part in sent]
                joint = max(joint, max(F(x + y, B) / a for x, y, a in zip(*sent, cfg.alpha)))
                shared = max(shared, sum(per_part))
            assert joint == gndt_ub(cfg) == gndt_joint_two_set(cfg), cfg
            assert shared == gndt_memory_sharing(cfg), cfg
            done += 1
