"""Delivery-time / unicast-GDoF trade-off formulas, exact over rationals.

The central quantity is the normalized delivery time achieved by splitting
each file for an aggregate cache budget of K*mu and pushing the coded
multicast payloads plus the unicast traffic through the layered broadcast
channel.  With c_n(k) the coded load useful to the weakest m = min(k, N)
users (the c_n of `combinatorics`, at the integer budget K*mu = n) the
achieved time is

    tau_ub(r) = max_k  env_k(K*mu) / (alpha_k - r_1 - ... - r_k)^+,

where env_k is the lower convex envelope of n -> c_n(k), evaluated at the
(possibly fractional) budget K*mu.  Every such sequence is convex.

Convexity lemma: c_n(k) = sum_{j=1..m} C(K-j, n) / C(K, n), the j-th term
counting the (n+1)-groups whose weakest member is j.  Each term
f_j(n) = prod_{i<n} (K-j-i)/(K-i) has second difference
f_j(n) j(j-1) / ((K-n)(K-n-1)) >= 0, so n -> c_n(k) is convex for every K
and every served count.  So env_k(K*mu) is the chord between
c_floor(K*mu)(k) and c_ceil(K*mu)(k), with no hull built.

The formulas run on integers from the parsed input to the one Fraction per
answer.  c_n(k) is `cumulative_group_count(K, n + 1, k)` over C(K, n); the
count table `_count_table` holds those integers for every budget n = 0..K
and prefix k.  Each config reduces K*mu = K p / q to integers with one
gcd(K, q), no Fraction product.  `SystemConfig._chord`, the one place env_k
is computed, reads two rows as integers P_k over one D, and the gaps come
from `regions._integer_gaps` as integers G_k over one H.  `_max_terms`
compares P_k G_j with P_j G_k and names the first prefix attaining the max,
`bottleneck_user`'s answer at r = 0 (no Fraction built); `_ratio` makes its
integers the answer's one Fraction, the converse with 2.01's numerator and
denominator its own.  The hole and inner regions and the finite-SNR rows
read the chord's integers too: a hole row's load ratio is P_k / P_k*, D
cancelling, and an inner row reserves P_k / (D tau).
`topological_hole_region` describes the unicast tuples that ride along at no
delivery-time cost.  Two relatives are separate code paths:

* naive memory sharing, which takes the envelope AFTER the max over k and is
  weaker at fractional budgets in asymmetric channels: one `_ratio` per
  integer budget, then the generic lower hull of those times (convex as a
  max of convex sequences, which this path does not lean on);
* the joint two-set delivery form, an explicit lambda-weighted integer
  combination of the two neighbouring integer budgets, which matches tau_ub.

A curve (`gndt` or `sweep-memory` over a mu grid) calls the formulas once
per mu with the same K, N, alpha and r.  A bounded LRU cache keeps the count
table per (K, min(K, N)).  One record (`_Curve`) keeps the rest for the most
recent (K, min(K, N), alpha, r): the checked gaps, memory sharing's
integer-budget times, built on first use, and the last config's `_max_terms`,
which `gndt_ub` and the converse share.  It is reused only for the same checked
strengths object, which the configs built from one `user_strengths` value share
(the CLI's --alpha, or a `config.alpha`), and r None or the same tuple object.

Delivery times are Fractions, with float('inf') when a positive load meets an
exhausted channel prefix.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from fractions import Fraction
from typing import Sequence

from .combinatorics import _Frozen, _checked_fraction, _checked_int, cumulative_group_count, lower_convex_envelope
from .lp import _frac
from .polytope import Polytope, _count_row
from .regions import ZERO, _integer_gaps, cumulative_region, unicast_name, user_strengths

INF = math.inf

#: converse constant: the information bounds give up this factor exactly
CONVERSE_FACTOR = Fraction(201, 100)
# (a sharper 2.00884 is known to hold; the round constant is used throughout)


class SystemConfig(_Frozen):
    """Problem instance in the GDoF limit: K users, N files, cache fraction mu,
    strengths.  The finite-SNR refinement's nominal P is an argument of the
    `finite_snr` builders, not a field here."""

    _fields = ("num_users", "num_files", "mu", "alpha")
    num_users: int
    num_files: int
    mu: Fraction
    alpha: tuple[Fraction, ...]

    def __init__(self, num_users: int, num_files: int, mu, alpha: Sequence):
        _checked_int("file count", num_files, 1)  # K is checked by user_strengths below
        mu = _checked_fraction("mu", mu, 0, 1)
        alpha = user_strengths(num_users, alpha)
        # _budget, not a field: K*mu in lowest terms as ints (a, b).  mu = p/q is
        # in lowest terms, so a = (K/g) p and b = q/g for g = gcd(K, q)
        K = num_users
        g = math.gcd(K, mu.denominator)
        self.__dict__.update(num_users=K, num_files=num_files, mu=mu, alpha=alpha,
                             _budget=(K // g * mu.numerator, mu.denominator // g))

    @property
    def integer_budget(self) -> bool:
        return self._budget[1] == 1

    @cached_property
    def _chord(self) -> tuple[int, tuple[int, ...]]:
        """env_k(K*mu) for every user prefix k = 1..K, as (D, integers P_k over D), once per config.

        At K*mu = low + s/b the chord is ((b - s) c_low + s c_low+1) / b, so D is
        b C(K, low) C(K, low + 1), or C(K, low) at an integer budget.
        """
        K, (a, b) = self.num_users, self._budget
        table = _count_table(K, min(K, self.num_files))
        low, s = divmod(a, b)
        if not s:
            return math.comb(K, low), table[low]
        c0, c1 = math.comb(K, low), math.comb(K, low + 1)
        w0, w1 = (b - s) * c1, s * c0
        return b * c0 * c1, tuple([w0 * g0 + w1 * g1 for g0, g1 in zip(table[low], table[low + 1])])


@lru_cache(maxsize=128)
def _count_table(num_users: int, served: int) -> tuple[tuple[int, ...], ...]:
    """Row n = 0..K holds C(K, n) * c_n for every prefix k = 1..K: the coded
    loads' numerators at every integer budget, for `served` = min(K, N).

    A prefix longer than N serves the same N users as prefix N, so only
    `served` counts are computed per row and the last one is repeated.  The
    cache keeps a table per (K, min(K, N)) across calls; 128 entries hold every
    served count for each K up to 15, and a table is O(K^2) ints.
    """
    rows = [[cumulative_group_count(num_users, n + 1, k) for k in range(1, served + 1)]
            for n in range(num_users + 1)]
    return tuple(tuple(row + row[-1:] * (num_users - served)) for row in rows)


def _max_terms(scale: int, loads: Sequence[int], height: int, gaps: Sequence[int]):
    """(T, B, the first k attaining the max) for T / B = max_k (loads_k / scale) /
    (gaps_k / height), with 0 / anything = 0 and positive / 0 = inf, comparing
    p_k g_j with p_j g_k.  Ties go to the weakest user; an exhausted prefix k
    gives (1, 0, k), B = 0 standing for inf."""
    best, over, star, k = 0, 1, 1, 0
    for p, g in zip(loads, gaps):  # k by hand: enumerate's nested unpacking costs more
        k += 1
        if p and not g:
            return 1, 0, k
        if p * over > best * g:
            best, over, star = p, g, k
    return best * height, scale * over, star


def _ratio(top: int, bottom: int, *star: int):
    """T / B as one Fraction, or inf at B = 0; the binding prefix of a `_max_terms` answer is ignored."""
    return Fraction(top, bottom) if bottom else INF


class _Curve:
    """One curve's shared data, kept by `of` per checked strengths object, r and min(K, N)."""

    kept: _Curve | None = None

    def __init__(self, config: SystemConfig, r: Sequence | None, served: int):
        self.alpha, self.r, self.served, self.config = config.alpha, r, served, None
        self.gaps = _integer_gaps(config.alpha, r)

    @classmethod
    def of(cls, config: SystemConfig, r: Sequence | None) -> _Curve:
        """The kept record if made from this `config.alpha` object, this r (None or the
        same tuple object) and min(K, N), else a new one; `terms` once per config."""
        served, c = min(config.num_users, config.num_files), cls.kept
        if not (c and c.alpha is config.alpha and c.r is r and c.served == served
                and (r is None or type(r) is tuple)):
            c = cls.kept = cls(config, r, served)
        if c.config is not config:
            c.config, c.terms = config, _max_terms(*config._chord, *c.gaps)
        return c

    @cached_property
    def times(self) -> tuple[Fraction, ...] | None:
        """The delivery times at the integer budgets 0..K; None if a prefix is exhausted."""
        K, table = len(self.alpha), _count_table(len(self.alpha), self.served)
        times = tuple(_ratio(*_max_terms(math.comb(K, n), row, *self.gaps)) for n, row in enumerate(table))
        return None if any(t is INF for t in times) else times


def gndt_ub(config: SystemConfig, r: Sequence | None = None):
    """Achievable delivery time, envelope taken inside the max over users."""
    return _ratio(*_Curve.of(config, r).terms)


def gndt_memory_sharing(config: SystemConfig, r: Sequence | None = None):
    """Naive memory sharing: envelope of the max-over-users sequence.

    Splitting the system into two independent integer-budget runs time-shares
    the channel, so the max over users is applied per integer budget first and
    the envelope interpolates afterwards.  Coincides with `gndt_ub` at integer
    budgets and is never below it elsewhere.
    """
    times = _Curve.of(config, r).times
    if times is None:
        # some prefix is exhausted: only the zero-load full-cache point is finite
        return ZERO if config.mu == 1 else INF
    return lower_convex_envelope(times, Fraction(*config._budget))


def gndt_joint_two_set(config: SystemConfig, r: Sequence | None = None):
    """Joint delivery of the two neighbouring integer-budget multicast sets.

    For a fractional budget the files are split between budgets floor(K*mu)
    and ceil(K*mu); delivering both coded sets simultaneously through the
    layered channel weights the two loads by the split fractions inside the
    max, which reproduces `gndt_ub` exactly.
    """
    K, (a, b) = config.num_users, config._budget
    if b == 1:
        raise ValueError(f"cache budget K*mu = {a} is an integer; no split needed")
    low = a // b  # floor
    lam = b * (low + 1) - a  # b times the weight of the floor budget
    table, c0, c1 = _count_table(K, min(K, config.num_files)), math.comb(K, low), math.comb(K, low + 1)
    loads = [lam * c1 * g0 + (b - lam) * c0 * g1 for g0, g1 in zip(table[low], table[low + 1])]
    return _ratio(*_max_terms(b * c0 * c1, loads, *_Curve.of(config, r).gaps))


def gndt_lower_bound(config: SystemConfig, r: Sequence | None = None):
    """Converse delivery time, the tightest of the per-prefix bounds.

    For every user prefix [s] the information bound caps the unicast sum plus
    1/2.01 of the enveloped coded load by alpha_s; rearranged, each prefix
    yields a floor on the delivery time, and the tightest is `gndt_ub`'s
    ratio over 201/100 by construction (ROADMAP item 8: an independent converse).
    """
    top, bottom, _ = _Curve.of(config, r).terms
    return _ratio(top * CONVERSE_FACTOR.denominator, bottom * CONVERSE_FACTOR.numerator)


def bottleneck_user(config: SystemConfig) -> int:
    """Smallest user index whose load-to-strength ratio pins the delivery time:
    `_max_terms`' binding prefix at r = 0.  Defined for integer budgets with
    at least as many files as users."""
    if not config.integer_budget:
        raise ValueError("the bottleneck user is defined for integer cache budgets")
    if config.num_files < config.num_users:
        raise ValueError("the bottleneck user is defined for N >= K")
    return _Curve.of(config, None).terms[2]


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
    if config.mu == 1:
        raise ValueError("a full cache leaves no content traffic to protect")
    loads = config._chord[1]  # the P_k: D cancels in load_k / load_k*
    names = [unicast_name(k) for k in range(1, K + 1)]
    rows = []
    for k in range(1, star + 1):  # r_k <= 0, i.e. r_k = 0 on the orthant
        rows.append(_count_row([int(i == k - 1) for i in range(K)], ZERO))
    for k in range(star + 1, K + 1):
        bound = config.alpha[star] - config.alpha[star - 1] * Fraction(loads[k - 1], loads[star - 1])
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
    scale, loads = config._chord
    return cumulative_region([a - Fraction(p, scale * tau) for a, p in zip(config.alpha, loads)])
