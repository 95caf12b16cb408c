"""GDoF regions of the degraded broadcast channel with unicast + multicast sets.

The channel serves K successively stronger users with strength exponents
0 < alpha_1 <= ... <= alpha_K = 1.  Alongside one unicast message per user it
carries multicast messages indexed by sigma-subsets of users.  Because the
channel is degraded, user k decodes everything intended to any group whose
weakest member is at most k, which makes the region description triangular:

    sum_{i<=k} r_i + sum_{S : min(S) <= k} r_S <= alpha_k,      k = 1..K.

This module builds that region and its relatives as exact `Polytope` objects:
the symmetric projection onto one shared multicast value, the two nested
multicast sets used for fractional cache budgets, the region with all-non-
leader messages silenced, and the power-exponent parameterized inner region
whose Fourier-Motzkin projection reproduces the triangular form.  Every
triangular region, here and in `tradeoff` and `finite_snr`, takes its rows from
the one row builder `cumulative_region` (its skeleton: names and integer
coefficient rows), and every per-prefix slack from `_integer_gaps`, as integers
over one denominator.  The full and power-exponent regions keep their skeletons,
which depend on (K, sigma) only, in bounded caches keyed on checked ints; each
call applies its strengths as the right-hand sides.  `user_strengths` checks
strengths once: the same checked strengths object comes back after a length check.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache
from itertools import accumulate, combinations
from typing import Callable, Sequence

from .combinatorics import Group, _checked_fraction, _checked_int, cumulative_group_count
from .lp import _integer_row
from .polytope import Polytope, _count_row

ZERO = Fraction(0)


class _Strengths(tuple):
    """Strengths that passed `user_strengths`' checks; only it builds one."""
    __slots__ = ()


def user_strengths(num_users: int, alpha: Sequence) -> _Strengths:
    """Exact strengths 0 < alpha_1 <= ... <= alpha_K = 1, one per user, as a `_Strengths`,
    which comes back as it is after a length check: pass it on, and a run checks its
    strengths once and its configs share one strengths object (see `tradeoff`)."""
    _checked_int("user count", num_users, 1)
    vals = alpha if type(alpha) is _Strengths else _Strengths(
        _checked_fraction(f"alpha_{k}", a) for k, a in enumerate(alpha, 1))
    if vals is not alpha:  # a new value: check it
        if not vals:
            raise ValueError("at least one channel strength is required")
        if vals[0].numerator <= 0:  # inline: an open bound, which `_checked_fraction`'s closed range cannot state
            raise ValueError(f"strengths must be positive, got alpha_1 = {vals[0]}")
        scale, ints = _integer_row(vals)  # compared as integers over one denominator
        for k in range(1, len(ints)):
            if ints[k - 1] > ints[k]:
                raise ValueError(f"strengths must be nondecreasing: alpha_{k + 1} = {vals[k]} "
                                 f"is below alpha_{k} = {vals[k - 1]}")
        if ints[-1] != scale:
            raise ValueError(f"strengths must be normalized with alpha_K = 1, got alpha_K = {vals[-1]}")
    if len(vals) != num_users:
        raise ValueError(f"one channel strength per user is required: K = {num_users}, got {len(vals)} strengths")
    return vals


unicast_name = cache("r_{}".format)  # r_k, formatted once per k: `_integer_gaps` names each entry it checks


def group_name(group: Group) -> str:
    return "r_" + "_".join(str(u) for u in group)


def cumulative_region(
    rhs: Sequence,
    extra_names: Sequence[str] = (),
    extra: Callable[[int], Sequence] = lambda k: (),
) -> Polytope:
    """The triangular rows every region here shares, over (r_1..r_K, *extra_names):

        r_1 + ... + r_k + <extra(k), extra rates> <= rhs[k - 1],    k = 1..K,

    with K = len(rhs), exact Fractions.  User k decodes the unicast messages of
    users 1..k, and extra(k) holds the integer coefficients of whatever else it
    decodes.
    """
    return _scaled(_cumulative_skeleton(len(rhs), extra_names, extra), rhs)


def _cumulative_skeleton(K: int, extra_names: Sequence[str], extra: Callable[[int], Sequence]) -> tuple:
    """`cumulative_region`'s (names, integer coefficient rows), before any rhs."""
    names = (*map(unicast_name, range(1, K + 1)), *extra_names)
    return names, tuple((*[1] * k, *[0] * (K - k), *extra(k)) for k in range(1, K + 1))


def _scaled(skeleton: tuple, rhs: Sequence) -> Polytope:
    """The rows <row_i, x> <= rhs[i] over a skeleton's (names, coefficient rows)."""
    return Polytope(skeleton[0], int_rows=map(_count_row, skeleton[1], rhs))


def _checked_gdofs(r: Sequence) -> list[Fraction]:
    """Each unicast GDoF r_k exact and nonnegative, refused under its name r_k."""
    return [_checked_fraction(unicast_name(k), x, 0) for k, x in enumerate(r, start=1)]


def _integer_gaps(alpha: Sequence[Fraction], r: Sequence | None) -> tuple[int, tuple[int, ...]]:
    """(alpha_k - r_1 - ... - r_k)^+ for every user k as (H, integers G_k over H),
    H the lcm of the denominators of the exact strengths `alpha` and of `r`, which
    must give one nonnegative GDoF r_k per user; r = None sends no unicast."""
    if r is not None and len(r) != len(alpha):
        raise ValueError(f"one unicast GDoF per user is required: K = {len(alpha)}, got {len(r)}")
    rt = [ZERO] * len(alpha) if r is None else _checked_gdofs(r)
    height, ints = _integer_row([*alpha, *rt])
    return height, tuple(max(0, a - p) for a, p in zip(ints, accumulate(ints[len(alpha):])))


def build_region(num_users: int, group_size: int, alpha: Sequence) -> Polytope:
    """Full unicast + sigma-multicast GDoF region (triangular rows)."""
    alphas = user_strengths(num_users, alpha)  # K checked first: sigma's bound is K
    sigma = _checked_int("group size", group_size, 2, num_users)  # before the lookup, which takes 2.0 for 2
    return _scaled(_full_skeleton(num_users, sigma), alphas)


@lru_cache(maxsize=32)
def _full_skeleton(K: int, sigma: int) -> tuple:
    groups = list(combinations(range(1, K + 1), sigma))
    return _cumulative_skeleton(K, [group_name(g) for g in groups], lambda k: [int(g[0] <= k) for g in groups])


def _covered(num_users: int, s: int) -> range:
    """The leaders [s] = 1..s of the symmetric kinds, s in [1, K]."""
    return range(1, _checked_int("s", s, 1, num_users) + 1)


def _shared_counts(num_users: int, group_size: int, leaders: Sequence[int]) -> list[int]:
    """Row k's shared-value coefficient: the sigma-groups meeting the leaders u <= k.

    j users meet C(K, sigma) - C(K - j, sigma) of the sigma-groups, whichever
    users they are.  Every symmetric kind checks its group size, in [1, K],
    and its leaders, which must include user 1, here, all of them ints; K is
    checked by `user_strengths`, which every caller calls first.
    """
    for u in leaders:
        _checked_int("leader", u)
    _checked_int("multicast group size", group_size, 1, num_users)
    lead = sorted(set(leaders))
    if lead and (lead[0] < 1 or lead[-1] > num_users):  # inline: it names the whole list, as given
        raise ValueError(f"leaders must be users in [1, {num_users}], got {leaders}")
    if not lead or lead[0] != 1:
        raise ValueError(f"the weakest user must lead, got leaders {leaders}")
    return [
        cumulative_group_count(num_users, group_size, sum(u <= k for u in lead))
        for k in range(1, num_users + 1)
    ]


def symmetric_projection(
    num_users: int, group_size: int, alpha: Sequence, s: int
) -> Polytope:
    """Region over (r_1..r_K, r_sym) when the groups meeting [s] share one value.

    Groups whose weakest member exceeds s carry nothing; the projected row k
    counts the shared-value groups decoded by user k:

        sum_{i<=k} r_i + [C(K,sigma) - C(K-min(k,s),sigma)] r_sym <= alpha_k.
    """
    leaders = _covered(_checked_int("user count", num_users, 1), s)  # K first: s's bound is K
    return build_missing_message_region(num_users, group_size, alpha, leaders)


def build_two_multicast_symmetric(
    num_users: int, sigma: int, gamma: int, alpha: Sequence, s: int
) -> Polytope:
    """Symmetric region with two nested multicast sets of sizes sigma < gamma."""
    alphas = user_strengths(num_users, alpha)
    if not 2 <= sigma < gamma <= num_users:  # inline: one condition on two sizes, named together
        raise ValueError(
            f"group sizes must satisfy 2 <= sigma < gamma <= {num_users}, "
            f"got sigma={sigma}, gamma={gamma}"
        )
    lead = _covered(num_users, s)
    low, high = (_shared_counts(num_users, size, lead) for size in (sigma, gamma))
    return cumulative_region(
        alphas, [f"r_sym_{sigma}", f"r_sym_{gamma}"], lambda k: [low[k - 1], high[k - 1]]
    )


def build_missing_message_region(
    num_users: int, group_size: int, alpha: Sequence, leaders: Sequence[int]
) -> Polytope:
    """Symmetric region when only groups meeting the leader set are sent.

    With leaders u_1 < u_2 < ..., the groups carrying the shared value and
    decoded by user k are those containing some leader u_i <= k (each group
    is anchored at the first leader it contains).  Row k therefore has an
    r_sym coefficient of |{S : S meets {u_1..u_j}}| where u_j is the last
    leader not exceeding k.
    """
    alphas = user_strengths(num_users, alpha)
    counts = _shared_counts(num_users, group_size, leaders)
    return cumulative_region(alphas, ["r_sym"], lambda k: [counts[k - 1]])


def beta_parameterized_polytope(
    num_users: int, group_size: int, alpha: Sequence
) -> Polytope:
    """Joint region over (r, r_S, beta_2..beta_K) before eliminating the betas.

    Level k carries r_k plus the groups anchored at user k (their weakest
    member), which exist only for k <= K - sigma + 1, within the width
    beta_{k+1} - beta_k, where beta_1 = 0 and beta_{K+1} = alpha_K; and
    beta_{k+1} <= alpha_k.  Eliminating the power exponents by Fourier-Motzkin
    projection must give back `build_region` exactly; that equality is the
    certification that the superposition scheme achieves the whole triangular
    region.
    """
    alphas = user_strengths(num_users, alpha)
    skeleton = _beta_skeleton(num_users, _checked_int("group size", group_size, 2, num_users))
    return _scaled(skeleton, [*[ZERO] * (num_users - 1), alphas[-1], *alphas[:-1]])


@lru_cache(maxsize=32)
def _beta_skeleton(K: int, sigma: int) -> tuple:
    """K level rows, then the K - 1 rows beta_{k+1} <= alpha_k."""
    groups = list(combinations(range(1, K + 1), sigma))
    names = (*map(unicast_name, range(1, K + 1)), *map(group_name, groups), *beta_names(K))
    betas = range(2, K + 1)
    levels = [(*(int(i == k) for i in range(1, K + 1)), *(int(g[0] == k) for g in groups),
               *(int(j == k) - int(j == k + 1) for j in betas)) for k in range(1, K + 1)]
    bounds = [(*[0] * (K + len(groups)), *(int(j == k + 1) for j in betas)) for k in range(1, K)]
    return names, (*levels, *bounds)


def beta_names(num_users: int) -> list[str]:
    return [f"beta_{k}" for k in range(2, num_users + 1)]
