"""Delivery-time / unicast-GDoF trade-off formulas, exact over rationals.

The central quantity is the normalized delivery time achieved by splitting
each file for an aggregate cache budget of K*mu and pushing the coded
multicast payloads plus the unicast traffic through the layered broadcast
channel.  With c_n(k) the coded load useful to the weakest min(k, N) users
(see `combinatorics.coded_load`) the achieved time is

    tau_ub(r) = max_k  env_k(K*mu) / (alpha_k - r_1 - ... - r_k)^+,

where env_k is the lower convex envelope of n -> c_n(k), evaluated at the
(possibly fractional) budget K*mu.  Every such sequence is convex: c_n(k) is
a sum of terms C(K-j, n) / C(K, n), each with a nonnegative second
difference in n (the lemma in `coded_load`).  So env_k(K*mu) is the chord
between c_floor(K*mu)(k) and c_ceil(K*mu)(k), with no hull built.

The formulas run on integers from the parsed input to the one Fraction per
answer.  c_n(k) is `cumulative_group_count(K, n + 1, k)` over C(K, n); the
count table `_count_table` holds those integers for every budget n = 0..K
and prefix k.  `SystemConfig._chord`, the one place env_k is computed, reads
two rows as integers P_k over one D, and `_scaled_gaps` takes the gaps from
`regions._integer_gaps` as integers G_k over one H.  `_max_ratio` compares
P_k G_j with P_j G_k and names the first prefix attaining the max, the
bottleneck user at r = 0.  The converse divides that same ratio by 2.01; the
chord's Fraction view `prefix_loads` feeds the hole and inner regions and the
finite-SNR rows.  `topological_hole_region` describes the unicast tuples that
ride along at no delivery-time cost.  Two relatives are separate code paths:

* naive memory sharing, which takes the envelope AFTER the max over k and is
  weaker at fractional budgets in asymmetric channels: one `_max_ratio` per
  integer budget, then the generic lower hull of those times (convex as a
  max of convex sequences, which this path does not lean on);
* the joint two-set delivery form, an explicit lambda-weighted integer
  combination of the two neighbouring integer budgets, which matches tau_ub.

A curve (`gndt` or `sweep-memory` over a mu grid) calls the formulas once
per mu with the same K, N, alpha and r.  One-entry memos, compared by value
(see `combinatorics._remember_last`), keep what those calls share: the
strengths check (`regions._checked_strengths`) each mu's config repeats, per
(K, N) the count table each chord reads, per (alpha, r) the scaled gaps each
time divides by, and for memory sharing the integer-budget times (`_maxed`)
and their lower hull.  Each config computes its chord once.

Delivery times are Fractions, with float('inf') when a positive load meets an
exhausted channel prefix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Sequence

from .combinatorics import (_checked_fraction, _checked_int, _remember_last, cumulative_group_count,
                            lower_convex_envelope)
from .lp import _frac
from .polytope import Polytope, _count_row
from .regions import ZERO, _integer_gaps, cumulative_region, unicast_name, user_strengths

INF = math.inf

#: converse constant: the information bounds give up this factor exactly
CONVERSE_FACTOR = Fraction(201, 100)
# (a sharper 2.00884 is known to hold; the round constant is used throughout)


@dataclass(frozen=True)
class SystemConfig:
    """Problem instance in the GDoF limit: K users, N files, cache fraction mu,
    strengths.  The finite-SNR refinement's nominal P is an argument of the
    `finite_snr` builders, not a field here."""

    num_users: int
    num_files: int
    mu: Fraction
    alpha: tuple[Fraction, ...]

    def __post_init__(self):
        _checked_int("file count", self.num_files, 1)  # K is checked by user_strengths below
        object.__setattr__(self, "mu", _checked_fraction("mu", self.mu, 0, 1))
        object.__setattr__(self, "alpha", user_strengths(self.num_users, self.alpha))

    @cached_property
    def cache_budget(self) -> Fraction:
        """Aggregate normalized cache size K*mu, computed once per config."""
        return self.num_users * self.mu

    @property
    def integer_budget(self) -> bool:
        return self.cache_budget.denominator == 1

    @cached_property
    def _chord(self) -> tuple[int, tuple[int, ...]]:
        """env_k(K*mu) for every user prefix k = 1..K, as (D, integers P_k over D), once per config.

        At K*mu = low + s/b the chord is ((b - s) c_low + s c_low+1) / b, so D is
        b C(K, low) C(K, low + 1), or C(K, low) at an integer budget.
        """
        K, budget = self.num_users, self.cache_budget
        table = _count_table(K, self.num_files)
        low, s = divmod(budget.numerator, budget.denominator)
        if not s:
            return math.comb(K, low), table[low]
        b, c0, c1 = budget.denominator, math.comb(K, low), math.comb(K, low + 1)
        w0, w1 = (b - s) * c1, s * c0
        return b * c0 * c1, tuple([w0 * g0 + w1 * g1 for g0, g1 in zip(table[low], table[low + 1])])


def _key(r: Sequence | None) -> tuple[Fraction, ...] | None:
    """The unicast tuple r as exact values, the key of the per-curve memos."""
    return None if r is None else tuple(map(_frac, r))


#: the prefix gaps as (H, integers G_k over H), kept for a curve's (alpha, r)
_scaled_gaps = _remember_last(_integer_gaps)


@_remember_last
def _count_table(num_users: int, num_files: int) -> tuple[tuple[int, ...], ...]:
    """Row n = 0..K holds C(K, n) * c_n for every prefix k = 1..K: the coded
    loads' numerators at every integer budget, built once per (K, N).

    A prefix longer than N serves the same N users as prefix N, so only
    min(K, N) counts are computed per row and the last one is repeated.
    """
    served = min(num_users, num_files)
    rows = [[cumulative_group_count(num_users, n + 1, k) for k in range(1, served + 1)]
            for n in range(num_users + 1)]
    return tuple(tuple(row + row[-1:] * (num_users - served)) for row in rows)


def prefix_loads(config: SystemConfig) -> tuple[Fraction, ...]:
    """env_k(K*mu) for every user prefix k = 1..K: the Fraction view of the
    config's `_chord`, which `gndt_ub` and the converse read as integers."""
    scale, loads = config._chord
    return tuple(Fraction(p, scale) for p in loads)


def _max_ratio(scale: int, loads: Sequence[int], height: int, gaps: Sequence[int]):
    """(max_k (loads_k / scale) / (gaps_k / height), the first k attaining it),
    with 0 / anything = 0 and positive / 0 = inf, comparing p_k g_j with p_j g_k.
    Ties go to the weakest user; an exhausted prefix k gives (inf, k)."""
    best, over, star, k = 0, 1, 1, 0
    for p, g in zip(loads, gaps):  # k by hand: enumerate's nested unpacking costs more
        k += 1
        if p and not g:
            return INF, k
        if p * over > best * g:
            best, over, star = p, g, k
    return Fraction(best * height, scale * over), star


@_remember_last
def _maxed(num_users: int, num_files: int, gaps: tuple) -> tuple[Fraction, ...] | None:
    """The delivery times at the integer budgets 0..K; None if a prefix is exhausted."""
    table = _count_table(num_users, num_files)
    times = tuple(_max_ratio(math.comb(num_users, n), row, *gaps)[0] for n, row in enumerate(table))
    return None if any(t is INF for t in times) else times


def gndt_ub(config: SystemConfig, r: Sequence | None = None):
    """Achievable delivery time, envelope taken inside the max over users."""
    return _max_ratio(*config._chord, *_scaled_gaps(config.alpha, _key(r)))[0]


def gndt_memory_sharing(config: SystemConfig, r: Sequence | None = None):
    """Naive memory sharing: envelope of the max-over-users sequence.

    Splitting the system into two independent integer-budget runs time-shares
    the channel, so the max over users is applied per integer budget first and
    the envelope interpolates afterwards.  Coincides with `gndt_ub` at integer
    budgets and is never below it elsewhere.
    """
    maxed = _maxed(config.num_users, config.num_files, _scaled_gaps(config.alpha, _key(r)))
    if maxed is None:
        # some prefix is exhausted: only the zero-load full-cache point is finite
        return ZERO if config.cache_budget == config.num_users else INF
    return lower_convex_envelope(maxed, config.cache_budget)


def gndt_joint_two_set(config: SystemConfig, r: Sequence | None = None):
    """Joint delivery of the two neighbouring integer-budget multicast sets.

    For a fractional budget the files are split between budgets floor(K*mu)
    and ceil(K*mu); delivering both coded sets simultaneously through the
    layered channel weights the two loads by the split fractions inside the
    max, which reproduces `gndt_ub` exactly.
    """
    budget = config.cache_budget
    if config.integer_budget:
        raise ValueError(f"cache budget K*mu = {budget} is an integer; no split needed")
    K, b = config.num_users, budget.denominator
    low = budget.numerator // b  # floor
    lam = b * (low + 1) - budget.numerator  # b times the weight of the floor budget
    table, c0, c1 = _count_table(K, config.num_files), math.comb(K, low), math.comb(K, low + 1)
    loads = [lam * c1 * g0 + (b - lam) * c0 * g1 for g0, g1 in zip(table[low], table[low + 1])]
    return _max_ratio(b * c0 * c1, loads, *_scaled_gaps(config.alpha, _key(r)))[0]


def gndt_lower_bound(config: SystemConfig, r: Sequence | None = None):
    """Converse delivery time, the tightest of the per-prefix bounds.

    For every user prefix [s] the information bound caps the unicast sum plus
    1/2.01 of the enveloped coded load by alpha_s; rearranged, each prefix
    yields a floor on the delivery time, and the tightest is `gndt_ub`'s
    ratio over 201/100 by construction (ROADMAP item 8: an independent converse).
    """
    return _max_ratio(*config._chord, *_scaled_gaps(config.alpha, _key(r)))[0] / CONVERSE_FACTOR


def bottleneck_user(config: SystemConfig) -> int:
    """Smallest user index whose load-to-strength ratio pins the delivery time:
    `_max_ratio`'s binding prefix at r = 0.  Defined for integer budgets with
    at least as many files as users."""
    if not config.integer_budget:
        raise ValueError("the bottleneck user is defined for integer cache budgets")
    if config.num_files < config.num_users:
        raise ValueError("the bottleneck user is defined for N >= K")
    return _max_ratio(*config._chord, *_scaled_gaps(config.alpha, None))[1]


def topological_hole_region(config: SystemConfig) -> Polytope:
    """Unicast tuples that keep the no-unicast delivery time unchanged.

    Nothing can be granted to the bottleneck user or anyone weaker; stronger
    users share the slack between channel strengths, discounted by how much
    extra load their prefix constraint carries relative to the bottleneck:

        r_{k*+1} + ... + r_k <= alpha_{k*+1} - alpha_{k*} * (load_k / load_k*).

    Defined where `bottleneck_user` is, short of a full cache.
    """
    star = bottleneck_user(config)
    K = config.num_users
    if config.cache_budget >= K:
        raise ValueError("a full cache leaves no content traffic to protect")
    loads = prefix_loads(config)
    names = [unicast_name(k) for k in range(1, K + 1)]
    rows = []
    for k in range(1, star + 1):  # r_k <= 0, i.e. r_k = 0 on the orthant
        rows.append(_count_row([int(i == k - 1) for i in range(K)], ZERO))
    for k in range(star + 1, K + 1):
        bound = config.alpha[star] - config.alpha[star - 1] * (loads[k - 1] / loads[star - 1])
        rows.append(_count_row([int(star <= i < k) for i in range(K)], bound))
    return Polytope(names, int_rows=rows)


def gdof_region_inner(tau, config: SystemConfig) -> Polytope:
    """Unicast region guaranteed at delivery time tau (inner description).

    Row k reserves 1/tau of the enveloped coded load inside strength alpha_k;
    the true region at tau sits between this and the same description at
    2.01 * tau.
    """
    tau = _frac(tau)
    if tau <= 0:  # inline: an open bound, which `_checked_fraction`'s closed range cannot state
        raise ValueError(f"delivery time must be positive, got {tau}")
    loads = prefix_loads(config)
    return cumulative_region([a - load / tau for a, load in zip(config.alpha, loads)])
