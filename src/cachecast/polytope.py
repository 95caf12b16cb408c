"""Rational polytopes in the nonnegative orthant.

A region here is a finite list of rows ``<coeffs, x> <= rhs`` over named
coordinates, with every coordinate implicitly >= 0 and every number an exact
Fraction.  On top of that sit the operations the region proofs need:

* Fourier-Motzkin elimination (exact projection onto a subset of variables),
* containment and equality certified row by row: each outer row by one
  dominating inner row where one exists, by the LP oracle otherwise,
* redundancy pruning, LP-certified,
* vertex enumeration by the double-description method.

A polytope stores one form of its rows, `int_rows`: row i as (l_i, l_i *
[coeffs..., rhs]), l_i the lcm of its denominators, a form unique for each
rational row; `rows` is its Fraction view, built on first read.

Fourier-Motzkin carries each row as a primitive integer vector (coeffs...,
rhs), the positive multiple whose entries have gcd 1, which stands for the
same half-space.  Combining an upper and a lower bound on the eliminated
coordinate takes integer products and one gcd instead of Fraction divisions,
and two rows are the same half-space iff their primitive vectors are equal
tuples, so deduplication is hashing.  The rows handed back are the canonical
rows (first nonzero coefficient +-1).  Eliminating one coordinate costs U * L
combinations for U upper and L lower bounds, each O(n) integer products and a
gcd, plus O(R^2 n) integer comparisons for the dominance test over the R rows
kept.

One-row dominance is the one cheap certificate, shared by the Fourier-Motzkin
dedupe and containment: on x >= 0, a row <a, x> <= b implies <c, x> <= d when
c <= a entrywise and d >= b, compared on one integer scale (each row's
canonical Fraction row times the lcm of the canonical scales).  It certifies
the implication with one multiplier, 1 on that scale, and needs no simplex.  A
containment solves only the outer rows that no single inner row dominates,
through `lp.maximize_each`, all on one tableau; with none left it solves no LP.

Nothing here knows about channels or caches; this is the generic half of the
region apparatus.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import gcd, lcm
from operator import le
from typing import Iterable, Mapping, Sequence

from .combinatorics import _checked_fraction, _checked_int
from .lp import INFEASIBLE, OPTIMAL, IntRow, _frac, _integer_row, maximize_each, solve_max

Row = tuple[tuple[Fraction, ...], Fraction]


@dataclass(frozen=True, init=False)
class Polytope:
    """{x >= 0 : <coeffs, x> <= rhs for every row}, all entries rational: the
    (coeffs, rhs) rows checked and coerced by `_frac`, or `int_rows` trusted."""

    variables: tuple[str, ...]
    int_rows: tuple[IntRow, ...]  # (l, l * [coeffs..., rhs]), l the lcm of the denominators

    def __init__(self, variables: Sequence[str], rows: Iterable = (), *,
                 int_rows: Iterable[IntRow] | None = None):
        vs = tuple(variables)
        if len(set(vs)) < len(vs):
            raise ValueError(f"variable names must be distinct, got {vs}")
        if int_rows is None:
            int_rows = []
            for i, (coeffs, rhs) in enumerate(rows, 1):
                if len(coeffs) != len(vs):
                    raise ValueError(f"row {i}: row length does not match variable count, "
                                     f"{len(coeffs)} coefficients for {len(vs)} variables")
                int_rows.append(_integer_row([*map(_frac, coeffs), _frac(rhs)]))
        object.__setattr__(self, "variables", vs)
        object.__setattr__(self, "int_rows", tuple(int_rows))

    @cached_property
    def rows(self) -> tuple[Row, ...]:
        """The Fraction view of `int_rows`."""
        return tuple(map(_fraction_row, self.int_rows))

    def index(self, name: str) -> int:
        """The position of variable `name`: every lookup of a name goes through here."""
        if name not in self.variables:
            raise ValueError(f"{name!r} is not a variable of the region {self.variables}")
        return self.variables.index(name)

    def contains(self, point) -> bool:
        """Row evaluation; `point` maps every variable name to its value, or is a value vector."""
        if isinstance(point, Mapping):
            for name in point:  # refuses a name that is not a variable
                self.index(name)
            missing = set(self.variables) - set(point)
            if missing:
                raise ValueError(f"point is missing coordinates {sorted(missing)}")
            values = tuple(_frac(point[v]) for v in self.variables)
        else:
            values = tuple(_frac(p) for p in point)
            if len(values) != len(self.variables):
                raise ValueError("point length does not match variable count")
        if any(v < 0 for v in values):
            return False
        return all(sum(v * c for v, c in zip(values, ints)) <= ints[-1] for _, ints in self.int_rows)

    def maximize(self, objective: Mapping[str, object]):
        """LP-maximize a linear objective, {variable name: coefficient}, over the region (exact)."""
        if not isinstance(objective, Mapping):
            raise TypeError(f"objective must map variable names to coefficients, got {objective!r}")
        coeffs = [0] * len(self.variables)
        for name, c in objective.items():
            coeffs[self.index(name)] = c
        return solve_max(coeffs, self.rows)

    def is_empty(self) -> bool:  # iff the rows imply 0 <= -1
        return _implies(len(self.variables), self.int_rows, [(1, (0,) * len(self.variables) + (-1,))])

    def payload(self) -> dict:
        """What `to_json` dumps: rational rows as numerator/denominator pairs."""
        return {"variables": list(self.variables),
                "rows": [{"coeffs": [[c.numerator, c.denominator] for c in coeffs],
                          "rhs": [rhs.numerator, rhs.denominator]} for coeffs, rhs in self.rows]}

    def to_json(self) -> str:
        """`payload()` as indented JSON."""
        return json.dumps(self.payload(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Polytope":
        """Load a `to_json` dump, its rows checked by the constructor: each entry a
        [numerator, denominator] pair of integers, the denominator at least 1."""
        def entry(pair, name):
            if not (isinstance(pair, list) and len(pair) == 2):
                raise ValueError(f"{name} must be a [numerator, denominator] pair, got {pair!r}")
            n, d = pair
            return Fraction(_checked_int(f"{name} numerator", n), _checked_int(f"{name} denominator", d, 1))

        payload = json.loads(text)
        rows = (([entry(c, f"row {i} coefficient {j}") for j, c in enumerate(row["coeffs"], 1)],
                 entry(row["rhs"], f"row {i} rhs")) for i, row in enumerate(payload["rows"], 1))
        return cls(payload["variables"], rows)


def _primitive(ints: Sequence[int]) -> tuple[int, ...]:
    """The integer vector divided by the gcd of its entries."""
    g = gcd(*ints)
    return tuple(v // g for v in ints) if g > 1 else tuple(ints)


def _fraction_row(row: IntRow) -> Row:
    """The Fraction row (coeffs, rhs) of an integer row (l, l * [coeffs..., rhs])."""
    scale, ints = row
    return tuple(Fraction(c, scale) for c in ints[:-1]), Fraction(ints[-1], scale)


def _canonical_row(row: tuple[int, ...]) -> IntRow:
    """(scale, row), scale = |first nonzero coefficient|, else |rhs|, else 1:
    for a primitive row (entries of gcd 1), the integer form of its canonical
    row, row / scale (first nonzero coefficient +-1)."""
    return abs(next(filter(None, row[:-1]), row[-1])) or 1, row


def _count_row(coeffs: Sequence[int], rhs: Fraction) -> IntRow:
    """The integer form of <coeffs, x> <= rhs for integer coeffs: a region builder's row."""
    scale = rhs.denominator
    return scale, (*(c * scale for c in coeffs), rhs.numerator)


def _implies(n: int, rows: Sequence[IntRow], targets: Sequence[IntRow]) -> bool:
    """True iff the rows imply every target row: one LP per target, all on one
    warm-started tableau, up to the first target that fails.  No targets, no
    tableau."""
    if not targets:
        return True
    results = maximize_each(n, rows, ((scale, ints[:-1]) for scale, ints in targets))
    return all(r.status == INFEASIBLE or (r.status == OPTIMAL and r.value * scale <= ints[-1])
               for r, (scale, ints) in zip(results, targets))


def _on_one_scale(rows: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Integer rows (coeffs..., rhs) as (coeffs..., -rhs), each its canonical
    row (first nonzero coefficient +-1) times the lcm L of the canonical scales,
    so that `_dominated` compares them entrywise."""
    scales = [_canonical_row(row)[0] for row in rows]
    big = lcm(*scales)
    factors = [big // k for k in scales]
    return [(*[v * f for v in row[:-1]], -f * row[-1]) for row, f in zip(rows, factors)]


def _dominated(c: tuple[int, ...], rows: Sequence[tuple[int, ...]]) -> bool:
    """True iff a row a of `rows` other than `c` itself dominates c, rows as
    `_on_one_scale` stores them: c <= a entrywise, so <c, x> <= <a, x> <= b <= d
    on x >= 0."""
    return any(all(map(le, c, a)) for a in rows if a is not c)


def _dedupe(rows: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Drop tautologies, duplicates and 1-row dominated rows.

    Rows are primitive integer vectors (coeffs..., rhs), so two rows are the
    same half-space iff they are equal tuples, and two kept rows are never
    equal on one scale.
    """
    kept: list[tuple[int, ...]] = []
    seen = set()
    for row in rows:
        if row in seen:
            continue
        if not any(row[:-1]) and row[-1] >= 0:
            continue  # 0 <= rhs; 0 <= -1 stays, so emptiness is detectable downstream
        seen.add(row)
        kept.append(row)
    scaled = _on_one_scale(kept)
    return [row for row, c in zip(kept, scaled) if not _dominated(c, scaled)]


def eliminate(poly: Polytope, drop: Sequence[str]) -> Polytope:
    """Fourier-Motzkin projection of the region onto the remaining variables.

    The implicit nonnegativity of the eliminated coordinate enters as a lower
    bound, so the result is the true projection of the nonnegative-orthant
    region.  Rows are carried as primitive integer vectors (coeffs..., rhs):
    an upper row u (u[idx] > 0) and a lower row l (l[idx] < 0) combine to
    u * (-l[idx]) + l * u[idx], divided by its gcd.  Syntactically redundant
    rows are pruned after each elimination; call `prune(...)` afterwards for
    an LP-certified minimal description.  The result holds canonical rows
    (first nonzero coefficient +-1).
    """
    if not drop:
        return poly
    if len({poly.index(name) for name in drop}) < len(drop):  # each name checked up front
        raise ValueError(f"eliminate drops each variable once, got {list(drop)}")
    names = list(poly.variables)
    rows = [_primitive(ints) for _, ints in poly.int_rows]
    for name in drop:
        idx = names.index(name)
        upper = [r for r in rows if r[idx] > 0]
        lower = [r for r in rows if r[idx] < 0]
        new_rows = [r for r in rows if r[idx] == 0]
        # x_idx >= 0 is one more lower bound
        lower.append(tuple(-int(j == idx) for j in range(len(names) + 1)))
        for u in upper:
            uscale = u[idx]
            for lo in lower:
                lscale = -lo[idx]
                new_rows.append(_primitive([a * lscale + b * uscale for a, b in zip(u, lo)]))
        del names[idx]
        rows = [r[:idx] + r[idx + 1 :] for r in _dedupe(new_rows)]
    return Polytope(names, int_rows=map(_canonical_row, rows))


def prune(poly: Polytope) -> Polytope:
    """Drop every row implied by the remaining ones (LP-certified)."""
    ints = list(poly.int_rows)
    i = 0
    while i < len(ints):
        if _implies(len(poly.variables), ints[:i] + ints[i + 1 :], ints[i : i + 1]):
            del ints[i]
        else:
            i += 1
    return Polytope(poly.variables, int_rows=ints)


def canonical(poly: Polytope) -> Polytope:
    """Scaled, sorted and pruned row list, for stable dumps and comparisons."""
    pruned = prune(poly)
    rows = (_canonical_row(_primitive(ints)) for _, ints in pruned.int_rows)
    return Polytope(pruned.variables, int_rows=sorted(rows, key=_fraction_row))


def region_contains(outer: Polytope, inner: Polytope) -> bool:
    """True iff `inner` is a subset of `outer` (same variables required).

    Each outer row is certified by one inner row that dominates it where one
    exists (`_dominated`, integer comparisons only), and by the LP otherwise;
    when every outer row has its dominating row, no LP runs."""
    if outer.variables != inner.variables:
        raise ValueError("regions must share an identical variable tuple")
    scaled = _on_one_scale([ints for _, ints in outer.int_rows + inner.int_rows])
    inner_scaled = scaled[len(outer.int_rows):]
    left = [row for row, c in zip(outer.int_rows, scaled) if not _dominated(c, inner_scaled)]
    return _implies(len(inner.variables), inner.int_rows, left)


def regions_equal(a: Polytope, b: Polytope) -> bool:
    """Mutual containment: each row of either region certified by one
    dominating row of the other where one exists, by the LP otherwise."""
    return region_contains(a, b) and region_contains(b, a)


def fix_variables(poly: Polytope, assignment: Mapping[str, object]) -> Polytope:
    """Substitute fixed values for some coordinates and drop them."""
    fixed = {poly.index(k): _checked_fraction(k, v, 0) for k, v in assignment.items()}
    keep = [j for j in range(len(poly.variables)) if j not in fixed]
    rows = []
    for _, ints in poly.int_rows:
        rhs = ints[-1] - sum(ints[j] * v for j, v in fixed.items())
        rows.append(_primitive(_integer_row([*(ints[j] for j in keep), rhs])[1]))
    return Polytope([poly.variables[j] for j in keep], int_rows=map(_canonical_row, _dedupe(rows)))


def vertices(poly: Polytope) -> list[tuple[Fraction, ...]]:
    """All vertices of the region, sorted, by exact double description
    (Fukuda & Prodon 1996) of the cone {(x, t) >= 0 : <a, x> - b t <= 0}.

    The orthant's n + 1 unit rays start it; each row keeps the rays on its
    side and joins each (+, -) pair that is adjacent: a common zero set of at
    least n - 1 constraints that no third ray's zero set contains.  Vertices
    are x / t over rays with t > 0 (rays with t = 0 are recession directions).
    Rays are primitive integer vectors.  A row costs O(P * M * R) bitmask tests
    for P and M rays on either side of it out of R, plus O(R * n) integer
    products.  An empty region gives [], so test `is_empty()` if it matters.
    """
    n = len(poly.variables)
    # each ray carries a bitmask of its tight constraints: bits 0..n are the
    # facets x_j >= 0 and t >= 0, bit n + 1 + i is row i
    rays = [(tuple(int(i == j) for i in range(n + 1)), ((1 << (n + 1)) - 1) ^ (1 << j))
            for j in range(n + 1)]
    for k, (_, ints) in enumerate(poly.int_rows, start=n + 1):
        row, bit = (*ints[:-1], -ints[-1]), 1 << k
        values = [sum(c * y for c, y in zip(row, ray)) for ray, _ in rays]
        kept = [(ray, zero | bit if v == 0 else zero)
                for (ray, zero), v in zip(rays, values) if v <= 0]
        pos = [(ray, zero, v) for (ray, zero), v in zip(rays, values) if v > 0]
        neg = [(ray, zero, v) for (ray, zero), v in zip(rays, values) if v < 0]
        for (p, zp, vp), (q, zq, vq) in product(pos, neg):
            common = zp & zq  # adjacent iff only p and q contain it
            if common.bit_count() >= n - 1 and sum(z & common == common for _, z in rays) == 2:
                kept.append((_primitive([vp * b - vq * a for a, b in zip(p, q)]), common | bit))
        rays = kept
    return sorted({tuple(Fraction(x, ray[-1]) for x in ray[:-1]) for ray, _ in rays if ray[-1] > 0})
