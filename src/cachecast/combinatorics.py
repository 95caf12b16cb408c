"""Exact combinatorial primitives shared by the caching and region machinery.

Users are indexed 1..K and a multicast group is a sorted tuple of users.
Groups of size sigma come in the lexicographic order of
`itertools.combinations` over 1..K, which fixes the message indexing used
everywhere else in the package and lists the groups by their weakest
(minimum) member.  Binomials are `math.comb`.  With Sigma_i the sigma-groups
whose weakest member is i, the cumulative count identity

    |Sigma_1 u ... u Sigma_j| = C(K, sigma) - C(K - j, sigma),

and the per-subfile coded load sequence

    c_n = (C(K, n+1) - C(K - m, n+1)) / C(K, n),    n = 0..K,

are the combinatorial backbone of the delivery-time formulas.  All arithmetic
is exact (ints and fractions.Fraction; the envelope's hull runs on integers);
floats only ever appear at output boundaries.  Each integer argument (a count,
size, index or seed) is refused by name through `_checked_int`, and each rational
one with a closed range (mu, r_k, a fixed value, x) through `_checked_fraction`.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Sequence

from .lp import _frac, _integer_row

Group = tuple[int, ...]


def _checked_int(name: str, value, low: int | None = None, high: int | None = None) -> int:
    """`value` if it is an int, not a bool, in [low, high]; otherwise a
    ValueError naming it.  `high` needs `low`; either bound may be left out."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if high is not None and not low <= value <= high:
        raise ValueError(f"{name} must lie in [{low}, {high}], got {value}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be a whole number of at least {low}, got {value}")
    return value


def _checked_fraction(name: str, value, low: int | None = None, high: int | None = None) -> Fraction:
    """`_frac(value)` in [low, high], compared as integers; otherwise a ValueError naming it."""
    q = _frac(value)
    if high is not None and not low * q.denominator <= q.numerator <= high * q.denominator:
        raise ValueError(f"{name} must lie in [{low}, {high}], got {q}")
    if low is not None and q.numerator < low * q.denominator:
        raise ValueError(f"{name} must be at least {low}, got {q}")
    return q


def cumulative_group_count(num_users: int, group_size: int, j: int) -> int:
    """Closed form for the number of sigma-groups with minimum member <= j."""
    _checked_int("j", j, 0, num_users)
    return math.comb(num_users, group_size) - math.comb(num_users - j, group_size)


def coded_load(num_users: int, served: int, n: int) -> Fraction:
    """Coded load c_n, in subfile units, with n cached subfiles per file.

    `served` is the number of users whose groups must be covered (the
    min{k, N} count in the delivery-time expressions); it must lie in [1, K].
    c_n counts the multicast messages useful to the first `served` users,
    normalized by the C(K, n) subfiles each file is split into.

    Convexity lemma: c_n = sum_{j=1..served} C(K-j, n) / C(K, n), the j-th
    term counting the (n+1)-groups whose weakest member is j.  Each term
    f_j(n) = prod_{i<n} (K-j-i)/(K-i) has second difference
    f_j(n) j(j-1) / ((K-n)(K-n-1)) >= 0, so n -> c_n is convex for every K
    and every served count, and its lower convex envelope at x is the chord
    between c_floor(x) and c_ceil(x).
    """
    _checked_int("user count", num_users, 1)
    _checked_int("served", served, 1, num_users)
    _checked_int("cached subfile count", n, 0, num_users)
    return Fraction(cumulative_group_count(num_users, n + 1, served), math.comb(num_users, n))


def multicast_load_sequence(num_users: int, served: int) -> list[Fraction]:
    """The coded loads c_0..c_K of `coded_load` for one served count."""
    _checked_int("user count", num_users, 1)
    return [coded_load(num_users, served, n) for n in range(num_users + 1)]


def _remember_last(func):
    """Keep `func`'s result for its most recent arguments, compared by ==.

    A one-entry cache: it cannot grow, and a call with any argument changed
    recomputes.  Keys are never hashed, since hashing a Fraction costs about
    as much as multiplying two.  A hit re-keys the entry with the caller's
    arguments, so passing the same objects again is an identity check.  A
    call that raises leaves the kept entry as it was.
    """
    last: list = []  # [(args, result)] once called

    @functools.wraps(func)
    def remembered(*args):
        result = last[0][1] if last and last[0][0] == args else func(*args)
        last[:] = [(args, result)]
        return result

    return remembered


@_remember_last
def _lower_hull(points: tuple[Fraction, ...]) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(L, vertices (n, L * points[n]) of the lower convex hull, left to right)
    for L the lcm of the denominators: Andrew's monotone chain on integers,
    keeping right turns only.  Scaling by L > 0 keeps every turn test's sign.
    """
    scale, ys = _integer_row(points)
    hull: list[tuple[int, int]] = []
    for p in enumerate(ys):
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop hull[-1] if it lies on or above chord hull[-2] -> p
            if (y2 - y1) * (p[0] - x1) >= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    return scale, tuple(hull)


def lower_convex_envelope(values: Sequence, x) -> Fraction:
    """Lower convex envelope of {(n, values[n]) : n = 0..K}, evaluated at x.

    Builds the 2-D lower hull, on integers, so no convexity of the input
    sequence is assumed, then evaluates the hull segment over x as one
    Fraction.  The hull of the most recent sequence is kept (see
    `_remember_last`), so evaluating one sequence over a grid of x builds its
    hull once.  For a convex sequence the envelope touches every point and
    evaluation reduces to linear interpolation between floor(x) and ceil(x).
    """
    points = tuple(map(_frac, values))
    if not points:
        raise ValueError("envelope needs at least one point")
    xq = _checked_fraction("x", x, 0, len(points) - 1)
    a, b = xq.numerator, xq.denominator  # x = a / b
    scale, hull = _lower_hull(points)
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        if a <= x2 * b:
            return Fraction(y1 * (x2 - x1) * b + (y2 - y1) * (a - x1 * b), scale * (x2 - x1) * b)
    return Fraction(hull[-1][1], scale)  # a single point


def is_convex_sequence(values: Sequence) -> bool:
    """True iff successive differences of the sequence are nondecreasing."""
    if len(values) < 3:
        raise ValueError("convexity of a sequence needs at least 3 points")
    vals = [_frac(v) for v in values]
    diffs = [b - a for a, b in zip(vals, vals[1:])]
    return all(d2 >= d1 for d1, d2 in zip(diffs, diffs[1:]))
