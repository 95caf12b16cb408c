"""Exact combinatorial primitives shared by the caching and region machinery.

Users are indexed 1..K and a multicast group is a sorted tuple of users.
Groups of size sigma come in the lexicographic order of
`itertools.combinations` over 1..K, which fixes the message indexing used
everywhere else in the package and lists the groups by their weakest
(minimum) member.  Binomials are `math.comb`.  With Sigma_i the sigma-groups
whose weakest member is i, the cumulative count identity

    |Sigma_1 u ... u Sigma_j| = C(K, sigma) - C(K - j, sigma),

and the per-subfile coded load sequence for m served users,

    c_n = (C(K, n+1) - C(K - m, n+1)) / C(K, n),    n = 0..K,

are the combinatorial backbone of the delivery-time formulas.
`multicast_load_sequence` is the Fraction view of c_n; `tradeoff` reads the
counts as integers and states the lemma that makes n -> c_n convex.  All
arithmetic is exact (ints and fractions.Fraction; the envelope's hull runs on
integers); floats only ever appear at output boundaries.  Each integer
argument (a count, size, index or seed) is refused by name through
`_checked_int`, and each rational one with a closed range (mu, r_k, a fixed
value, x) through `_checked_fraction`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .lp import _frac, _integer_row

Group = tuple[int, ...]


class _Frozen:
    """A value over the attributes `_fields` names, as a frozen dataclass is:
    equal only to the same class with equal fields, hashed and shown by them,
    and never reassigned or deleted.  Each subclass's `__init__` checks its
    arguments and stores the fields in `__dict__`, where `cached_property`
    also writes."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


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
    try:
        q = _frac(value)
    except (ValueError, ZeroDivisionError):  # text such as 'abc' or '1/0'
        raise ValueError(f"{name} must be a rational number, got {value!r}") from None
    if high is not None and not low * q.denominator <= q.numerator <= high * q.denominator:
        raise ValueError(f"{name} must lie in [{low}, {high}], got {q}")
    if low is not None and q.numerator < low * q.denominator:
        raise ValueError(f"{name} must be at least {low}, got {q}")
    return q


def cumulative_group_count(num_users: int, group_size: int, j: int) -> int:
    """Closed form for the number of sigma-groups with minimum member <= j."""
    _checked_int("j", j, 0, num_users)
    return math.comb(num_users, group_size) - math.comb(num_users - j, group_size)


def multicast_load_sequence(num_users: int, served: int) -> list[Fraction]:
    """The coded loads c_0..c_K, in subfile units, for one served count.

    `served` is the number of users whose groups must be covered (the
    min{k, N} count in the delivery-time expressions); it must lie in [1, K].
    c_n counts the multicast messages useful to the first `served` users at
    the integer cache budget K*mu = n, normalized by the C(K, n) subfiles
    each file is split into.
    """
    _checked_int("user count", num_users, 1)
    _checked_int("served", served, 1, num_users)
    return [Fraction(cumulative_group_count(num_users, n + 1, served), math.comb(num_users, n))
            for n in range(num_users + 1)]


_kept_hull: list = [None, None, None]  # the tuple the kept hull came from, its scale L and its vertices


def lower_convex_envelope(values: Sequence, x) -> Fraction:
    """Lower convex envelope of {(n, values[n]) : n = 0..K}, evaluated at x.

    Builds the 2-D lower hull by Andrew's monotone chain on integers, the
    points times L, the lcm of their denominators (L > 0 keeps every turn
    test's sign), so no convexity of the input sequence is assumed, then
    evaluates the hull segment over x as one Fraction.  The hull is kept with
    the tuple it came from: that same tuple object again is neither converted
    nor compared, so a sequence evaluated over a grid of x is hulled once; a
    list or a new tuple is converted and checked afresh.  For a convex
    sequence the envelope touches every point and evaluation reduces to
    linear interpolation between floor(x) and ceil(x).
    """
    if values is not _kept_hull[0] or type(values) is not tuple:
        points = tuple(map(_frac, values))
        if not points:
            raise ValueError("envelope needs at least one point")
        scale, ys = _integer_row(points)
        hull: list[tuple[int, int]] = []
        for p in enumerate(ys):  # keeping right turns only
            while len(hull) >= 2:
                (x1, y1), (x2, y2) = hull[-2], hull[-1]
                # drop hull[-1] if it lies on or above chord hull[-2] -> p
                if (y2 - y1) * (p[0] - x1) >= (p[1] - y1) * (x2 - x1):
                    hull.pop()
                else:
                    break
            hull.append(p)
        _kept_hull[:] = values, scale, hull
    _, scale, hull = _kept_hull
    xq = _checked_fraction("x", x, 0, hull[-1][0])  # the last point is the hull's last vertex
    a, b = xq.numerator, xq.denominator  # x = a / b
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        if a <= x2 * b:
            return Fraction(y1 * (x2 - x1) * b + (y2 - y1) * (a - x1 * b), scale * (x2 - x1) * b)
    return Fraction(hull[-1][1], scale)  # a single point
