"""Fraction reference implementations of the exact region and trade-off layers.

`cachecast.lp` and `cachecast.polytope` run on Python integers (integer-
preserving pivots, Fourier-Motzkin on primitive integer rows), and so do the
delivery-time maxima of `cachecast.tradeoff` (integer chords over one
denominator, cross-multiplied comparisons), memory sharing's maxima at the
integer budgets included.  The straightforward Fraction versions below are
what they replaced; the tests compare the two value for value and row for
row.  Memory sharing's oracle builds the max-over-users sequence from all K
Fraction load sequences and evaluates its lower hull, the Fraction monotone
chain that `cachecast.combinatorics` replaced by an integer one.  The
bottleneck user's oracle is the Fraction argmax of load_k / alpha_k that
`_max_ratio`'s binding prefix replaced.  The delivery-time oracles take
their gaps from `unicast_gaps`, not from `cachecast.regions.prefix_gaps`, so
none of them reads the code it checks.
"""

from __future__ import annotations

import math
from fractions import Fraction

from cachecast.combinatorics import multicast_load_sequence
from cachecast.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LpResult
from cachecast.polytope import Polytope
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


def _run_simplex(tab, basis, n_enterable):
    """Bland's rule on the objective row tab[-1]; columns >= n_enterable never enter."""
    m = len(tab) - 1
    while True:
        col = next((j for j in range(n_enterable) if tab[-1][j] < 0), None)
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
    """Two-phase Fraction tableau: maximize objective . x over A x <= b, x >= 0."""
    n = len(objective)
    m = len(rows)
    obj = [Fraction(c) for c in objective]

    neg_rows = [i for i, (_, rhs) in enumerate(rows) if rhs < 0]
    n_art = len(neg_rows)
    art_col = {i: n + m + t for t, i in enumerate(neg_rows)}
    ncols = n + m + n_art + 1

    tab = []
    basis = []
    for i, (coeffs, rhs) in enumerate(rows):
        row = [Fraction(c) for c in coeffs] + [_ZERO] * (m + n_art) + [Fraction(rhs)]
        row[n + i] = _ONE
        if rhs < 0:
            row = [-v for v in row]
            row[art_col[i]] = _ONE
            basis.append(art_col[i])
        else:
            basis.append(n + i)
        tab.append(row)

    if n_art:
        phase1 = [_ZERO] * ncols
        for j in art_col.values():
            phase1[j] = _ONE
        for i, b in enumerate(basis):
            if phase1[b] != 0:
                factor = phase1[b]
                phase1 = [v - factor * t for v, t in zip(phase1, tab[i])]
        tab.append(phase1)
        status = _run_simplex(tab, basis, n + m)
        assert status == OPTIMAL
        if tab[-1][-1] != 0:
            return LpResult(INFEASIBLE)
        tab.pop()
        for i, b in enumerate(basis):
            if b >= n + m:
                col = next((j for j in range(n + m) if tab[i][j] != 0), None)
                if col is not None:
                    _pivot(tab, basis, i, col)
        keep = [i for i, b in enumerate(basis) if b < n + m]
        tab = [tab[i] for i in keep]
        basis = [basis[i] for i in keep]
        tab = [r[: n + m] + [r[-1]] for r in tab]
        ncols = n + m + 1

    obj_row = [-c for c in obj] + [_ZERO] * (ncols - n)
    for i, b in enumerate(basis):
        if obj_row[b] != 0:
            factor = obj_row[b]
            obj_row = [v - factor * t for v, t in zip(obj_row, tab[i])]
    tab.append(obj_row)

    status = _run_simplex(tab, basis, ncols - 1)
    if status == UNBOUNDED:
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


def prefix_loads(config):
    """env_k(K*mu) per prefix: the Fraction chord between the two integer budgets."""
    K, budget = config.num_users, config.cache_budget
    low = budget.numerator // budget.denominator
    step = budget - low
    sequences = [multicast_load_sequence(K, m) for m in range(1, min(K, config.num_files) + 1)]
    loads = [seq[low] + step * (seq[low + 1] - seq[low]) if step else seq[low] for seq in sequences]
    return tuple(loads) + (loads[-1],) * (K - len(loads))


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
    budget = config.cache_budget
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
    if math.inf in maxed:
        return _ZERO if config.cache_budget == config.num_users else math.inf
    return lower_convex_envelope(maxed, config.cache_budget)
