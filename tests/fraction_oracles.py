"""Fraction reference implementations of the exact region and trade-off layers.

`cachecast.lp` and `cachecast.polytope` run on Python integers (integer-
preserving pivots, Fourier-Motzkin on primitive integer rows), and so do the
delivery-time maxima of `cachecast.tradeoff` (integer chords over one
denominator, cross-multiplied comparisons), memory sharing's maxima at the
integer budgets included.  The straightforward Fraction versions below are
what they replaced; the tests compare the two value for value and row for
row.  The simplex takes `lp`'s pivots on the unscaled Fraction tableau: a
phase 1 with one artificial variable when a rhs is negative, then Bland's
rule, so it returns `lp`'s maximizer too, a degenerate LP's included.
Memory sharing's oracle builds the max-over-users sequence from all K
Fraction load sequences and evaluates its lower hull, the Fraction monotone
chain that `cachecast.combinatorics` replaced by an integer one.  The
bottleneck user's oracle is the Fraction argmax of load_k / alpha_k that
`_max_terms`' binding prefix replaced.  The delivery-time oracles take
their gaps from `unicast_gaps`, not from `cachecast.regions._integer_gaps`,
and K*mu as `num_users * mu`, from the config's inputs, not from a budget,
chord or other view that `SystemConfig` derives; so none of them reads the
code it checks (`tests/test_oracle_independence.py` walks this file's syntax
tree to keep it so).  The per-demand loads are the closed form of Yu,
Maddah-Ali & Avestimehr (IEEE T-IT 2018), from a leader set worked out here,
with no count table, group count or leader selection of `cachecast`.  The
symmetric GDoF's closed form, checked against the LP over
`cachecast.regions.symmetric_projection`, takes its argument checks, group
counts and gaps from `cachecast.regions`, so it refuses what the projection
refuses, with the same messages.  The convexity check of a sequence states
the lemma the load-sequence tests check.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from cachecast.combinatorics import multicast_load_sequence
from cachecast.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LpResult
from cachecast.polytope import Polytope
from cachecast.regions import _covered, _integer_gaps, _shared_counts, user_strengths
from cachecast.tradeoff import CONVERSE_FACTOR

_ZERO = Fraction(0)
_ONE = Fraction(1)


# -- simplex -------------------------------------------------------------------


def _pivot(tab, basis, row, col):
    piv = tab[row][col]
    tab[row] = [v / piv for v in tab[row]]
    for i, r in enumerate(tab):
        if i != row and r[col] != 0:
            factor = r[col]
            tab[i] = [v - factor * p for v, p in zip(r, tab[row])]
    basis[row] = col


def _run_simplex(tab, basis):
    """Bland's rule on the objective row tab[-1]; every column but the rhs may enter."""
    m = len(tab) - 1
    while True:
        col = next((j for j in range(len(tab[-1]) - 1) if tab[-1][j] < 0), None)
        if col is None:
            return OPTIMAL
        best_ratio = None
        row = -1
        for i in range(m):
            if tab[i][col] > 0:
                ratio = tab[i][-1] / tab[i][col]
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[row])
                ):
                    best_ratio = ratio
                    row = i
        if row < 0:
            return UNBOUNDED
        _pivot(tab, basis, row, col)


def solve_max(objective, rows) -> LpResult:
    """Two-phase Fraction tableau: maximize objective . x over A x <= b, x >= 0.
    Phase 1, for a negative rhs, maximizes -x0 with the one artificial x0
    subtracted from every row; x0 enters on the most negative rhs (the first
    one on a tie), and the rows are infeasible iff the optimum is below 0."""
    n = len(objective)
    m = len(rows)
    tab = []
    for i, (coeffs, rhs) in enumerate(rows):
        row = [Fraction(c) for c in coeffs] + [_ZERO] * m + [Fraction(rhs)]
        row[n + i] = _ONE
        tab.append(row)
    basis = list(range(n, n + m))

    if any(rhs < 0 for _, rhs in rows):
        for row in tab:
            row.insert(n + m, -_ONE)
        tab.append([_ZERO] * (n + m) + [_ONE, _ZERO])
        _pivot(tab, basis, min(range(m), key=lambda i: tab[i][-1]), n + m)
        assert _run_simplex(tab, basis) == OPTIMAL
        if tab.pop()[-1] != 0:
            return LpResult(INFEASIBLE)
        if n + m in basis:
            i = basis.index(n + m)
            _pivot(tab, basis, i, next(j for j in range(n + m) if tab[i][j] != 0))
        for row in tab:
            del row[n + m]

    obj_row = [-Fraction(c) for c in objective] + [_ZERO] * (m + 1)
    for i, b in enumerate(basis):
        if obj_row[b] != 0:
            factor = obj_row[b]
            obj_row = [v - factor * t for v, t in zip(obj_row, tab[i])]
    tab.append(obj_row)

    if _run_simplex(tab, basis) == UNBOUNDED:
        return LpResult(UNBOUNDED)
    point = [_ZERO] * n
    for i, b in enumerate(basis):
        if b < n:
            point[b] = tab[i][-1]
    return LpResult(OPTIMAL, value=tab[-1][-1], point=tuple(point))


def solve_square(matrix, rhs):
    """Gauss-Jordan on Fractions; None if singular."""
    n = len(matrix)
    aug = [list(map(Fraction, row)) + [Fraction(b)] for row, b in zip(matrix, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        pval = aug[col][col]
        aug[col] = [v / pval for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [aug[r][-1] for r in range(n)]


# -- Fourier-Motzkin -----------------------------------------------------------


def _canonical_row(row):
    coeffs, rhs = row
    scale = next((abs(c) for c in coeffs if c != 0), None)
    if scale is None:
        scale = abs(rhs) if rhs != 0 else Fraction(1)
    return (tuple(c / scale for c in coeffs), rhs / scale)


def dedupe(rows):
    """Drop tautologies, exact (scaled) duplicates and 1-row dominated rows."""
    kept = []
    seen = set()
    for row in rows:
        coeffs, rhs = _canonical_row(row)
        if all(c == 0 for c in coeffs):
            if rhs < 0 and (coeffs, rhs) not in seen:
                seen.add((coeffs, rhs))
                kept.append((coeffs, rhs))
            continue
        if (coeffs, rhs) in seen:
            continue
        seen.add((coeffs, rhs))
        kept.append((coeffs, rhs))
    out = []
    for i, (c, d) in enumerate(kept):
        dominated = any(
            j != i
            and all(ci <= ai for ci, ai in zip(c, a))
            and d >= b
            and (c, d) != (a, b)
            for j, (a, b) in enumerate(kept)
        )
        if not dominated:
            out.append((c, d))
    return out


def eliminate(poly: Polytope, drop) -> Polytope:
    """Fourier-Motzkin on Fraction rows, deduplicated after each variable."""
    current = poly
    for name in drop:
        idx = current.index(name)
        upper, lower, rest = [], [], []
        for coeffs, rhs in current.rows:
            if coeffs[idx] > 0:
                upper.append((coeffs, rhs))
            elif coeffs[idx] < 0:
                lower.append((coeffs, rhs))
            else:
                rest.append((coeffs, rhs))
        zero_lb = tuple(
            Fraction(-1) if j == idx else Fraction(0)
            for j in range(len(current.variables))
        )
        lower.append((zero_lb, Fraction(0)))

        new_rows = list(rest)
        for ucoeffs, urhs in upper:
            uscale = ucoeffs[idx]
            for lcoeffs, lrhs in lower:
                lscale = -lcoeffs[idx]
                coeffs = tuple(u / uscale + lo / lscale for u, lo in zip(ucoeffs, lcoeffs))
                new_rows.append((coeffs, urhs / uscale + lrhs / lscale))

        keep = [j for j in range(len(current.variables)) if j != idx]
        current = Polytope(
            variables=tuple(current.variables[j] for j in keep),
            rows=tuple(
                (tuple(coeffs[j] for j in keep), rhs) for coeffs, rhs in dedupe(new_rows)
            ),
        )
    return current


# -- convexity of a sequence ---------------------------------------------------


def is_convex_sequence(values):
    """True iff successive differences of the sequence are nondecreasing: the
    convexity lemma the load-sequence tests state."""
    if len(values) < 3:
        raise ValueError("convexity of a sequence needs at least 3 points")
    vals = [Fraction(v) for v in values]
    diffs = [b - a for a, b in zip(vals, vals[1:])]
    return all(d2 >= d1 for d1, d2 in zip(diffs, diffs[1:]))


# -- lower convex envelope -----------------------------------------------------


def lower_hull(points):
    """Vertices (n, points[n]) of the lower convex hull: Andrew's monotone
    chain on Fractions, keeping right turns only."""
    hull = []
    for p in enumerate(points):
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop hull[-1] if it lies on or above chord hull[-2] -> p
            if (y2 - y1) * (p[0] - x1) >= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    return tuple(hull)


def lower_convex_envelope(values, x):
    """Lower convex envelope of {(n, values[n])} at x, evaluated on the hull."""
    points = tuple(Fraction(v) for v in values)
    xq = Fraction(x)
    if not points:
        raise ValueError("envelope needs at least one point")
    if not 0 <= xq <= len(points) - 1:
        raise ValueError(f"x = {x} outside the index range [0, {len(points) - 1}]")
    hull = lower_hull(points)
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        if xq <= x2:
            return y1 + (y2 - y1) * (xq - x1) / (x2 - x1)
    return hull[-1][1]  # a single point


# -- delivery-time formulas ----------------------------------------------------


def ratio(load, gap):
    """load / gap with the conventions 0/anything = 0 and positive/0 = inf."""
    if load == 0:
        return _ZERO
    if gap == 0:
        return math.inf
    return load / gap


def load_sequences(config):
    """One load sequence per prefix k = 1..K, the served count being min(k, N)."""
    return [
        multicast_load_sequence(config.num_users, min(k, config.num_files))
        for k in range(1, config.num_users + 1)
    ]


def unicast_gaps(config, r):
    """(alpha_k - r_1 - ... - r_k)^+ per prefix, written out without `prefix_gaps`."""
    rt = [Fraction(x) for x in r] if r else [_ZERO] * config.num_users
    return [max(_ZERO, a - sum(rt[:k], _ZERO)) for k, a in enumerate(config.alpha, start=1)]


def max_symmetric_gdof(num_users, group_size, alpha, s, r):
    """Largest symmetric multicast GDoF on top of a fixed unicast tuple.

    Closed form: min_k (alpha_k - sum_{i<=k} r_i)^+ over the group count of
    row k.  Clamps to zero when some prefix of the unicast tuple already
    exhausts a channel strength.
    """
    alphas = user_strengths(num_users, alpha)
    counts = _shared_counts(num_users, group_size, _covered(num_users, s))
    height, gaps = _integer_gaps(alphas, r)
    return min(Fraction(gap, height * count) for gap, count in zip(gaps, counts))


def prefix_loads(config):
    """env_k(K*mu) per prefix: the Fraction chord between the two integer budgets."""
    K, budget = config.num_users, config.num_users * config.mu
    low = budget.numerator // budget.denominator
    step = budget - low
    sequences = [multicast_load_sequence(K, m) for m in range(1, min(K, config.num_files) + 1)]
    loads = [seq[low] + step * (seq[low + 1] - seq[low]) if step else seq[low] for seq in sequences]
    return tuple(loads) + (loads[-1],) * (K - len(loads))


def cutset_lower_bound(config, r=None):
    """The per-prefix cut-set bound on the delivery time, written out from
    (K, N, mu, alpha, r) alone: no load sequence, chord or gap of `cachecast`.

    Users 1..k see degraded versions of user k's output, so for s <= min(k, N)
    users S of [k] the cut-set argument of Maddah-Ali & Niesen (IEEE T-IT 2014,
    Thm. 2) gives tau >= (s - s mu N / floor(N / s)) / (alpha_k - sum_{i in S} r_i):
    only the unicast of S is charged, since only those caches enter the cut.
    S is user k plus the s - 1 users of [k - 1] with the smallest r_i.  The
    max is over the (k, s) with a positive numerator, 0 if there is none, and
    inf if such a numerator meets a denominator <= 0.
    """
    K, N, mu = config.num_users, config.num_files, config.mu
    rt = [Fraction(x) for x in r] if r else [_ZERO] * K
    best = _ZERO
    for k in range(1, K + 1):
        for s in range(1, min(k, N) + 1):
            top = s - s * mu * N / (N // s)
            if top <= 0:
                continue
            gap = config.alpha[k - 1] - rt[k - 1] - sum(sorted(rt[: k - 1])[: s - 1], _ZERO)
            if gap <= 0:
                return math.inf
            best = max(best, top / gap)
    return best


def bottleneck_user(config):
    """The first user k maximizing load_k / alpha_k: `max` keeps the first
    maximum, so ties go to the weakest user."""
    loads = prefix_loads(config)
    return max(range(1, config.num_users + 1), key=lambda k: loads[k - 1] / config.alpha[k - 1])


def gndt_ub(config, r=None):
    gaps = unicast_gaps(config, r)
    return max(ratio(load, gap) for load, gap in zip(prefix_loads(config), gaps))


def gndt_lower_bound(config, r=None):
    gaps = unicast_gaps(config, r)
    return max(
        ratio(load / CONVERSE_FACTOR, gap) for load, gap in zip(prefix_loads(config), gaps)
    )


def gndt_joint_two_set(config, r=None):
    """The lambda-weighted Fraction loads of the two neighbouring integer budgets."""
    budget = config.num_users * config.mu
    low = budget.numerator // budget.denominator
    lam = low + 1 - budget
    K, N = config.num_users, config.num_files
    sequences = [multicast_load_sequence(K, m) for m in range(1, min(K, N) + 1)]
    best = _ZERO
    for k, gap in enumerate(unicast_gaps(config, r), start=1):
        seq = sequences[min(k, N) - 1]
        best = max(best, ratio(lam * seq[low] + (1 - lam) * seq[low + 1], gap))
    return best


def gndt_memory_sharing(config, r=None):
    """Lower hull, at K*mu, of the max over all K prefix sequences."""
    sequences, gaps = load_sequences(config), unicast_gaps(config, r)
    maxed = [
        max(ratio(seq[n], gap) for seq, gap in zip(sequences, gaps))
        for n in range(config.num_users + 1)
    ]
    budget = config.num_users * config.mu
    if math.inf in maxed:
        return _ZERO if budget == config.num_users else math.inf
    return lower_convex_envelope(maxed, budget)


# -- per-demand delivery -------------------------------------------------------


def leaders_of(d):
    """The users, 1-based, who ask for a file that no weaker user asked for."""
    return tuple(u for u in range(1, len(d) + 1) if d[u - 1] not in d[: u - 1])


def sent_loads(num_users, split_order, leaders):
    """L_k for k = 1..K: the (t+1)-groups sent for this leader set whose weakest
    member is at most k.  Of the C(K, t+1) - C(K-k, t+1) groups with weakest
    member <= k, the all-non-leader ones are never sent: with a_k non-leaders
    among users 1..k, C(K-|L|, t+1) - C(K-|L|-a_k, t+1) of them."""
    K, size, lead = num_users, split_order + 1, set(leaders)
    loads, a = [], 0
    for k in range(1, K + 1):
        a += k not in lead
        sent = math.comb(K, size) - math.comb(K - k, size)
        loads.append(sent - math.comb(K - len(lead), size) + math.comb(K - len(lead) - a, size))
    return tuple(loads)


def demand_time(num_users, split_order, leaders, gaps):
    """max_k L_k / (C(K, t) gap_k): the delivery time of a demand with this leader set."""
    subfiles = math.comb(num_users, split_order)
    loads = sent_loads(num_users, split_order, leaders)
    return max(ratio(Fraction(load, subfiles), gap) for load, gap in zip(loads, gaps))


def average_demand_time(num_users, num_files, split_order, gaps):
    """The mean delivery time over the N^K equally likely demands, one term per
    leader set L: user u leads with probability (N - j)/N when j users before
    it lead, so P(L) = prod_u ((N - j_u)/N if u in L else j_u/N)."""
    total = _ZERO
    for leads in itertools.product((True, False), repeat=num_users):
        p, j = _ONE, 0
        for led in leads:
            p *= Fraction(num_files - j if led else j, num_files)
            j += led
        if p:
            leaders = [u for u, led in enumerate(leads, 1) if led]
            total += p * demand_time(num_users, split_order, leaders, gaps)
    return total
