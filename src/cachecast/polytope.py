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
same half-space, together with its canonical scale (|first nonzero
coefficient|).  Combining an upper and a lower bound on the eliminated
coordinate takes integer products and one gcd instead of Fraction divisions,
and two rows are the same half-space iff their primitive vectors are equal
tuples, so deduplication is hashing.  A row's scale is computed once, when the
row is made, and carried through every `_dedupe` step into the canonical rows
handed back (first nonzero coefficient +-1).  Eliminating one coordinate costs
U * L combinations for U upper and L lower bounds, each O(n) integer products
and a gcd, plus O(R^2 n) integer comparisons for the dominance test over the R
rows kept.

One-row dominance is the one cheap certificate, shared by the Fourier-Motzkin
dedupe and containment: on x >= 0, a row <a, x> <= b implies <c, x> <= d when
c <= a entrywise and d >= b, compared on one integer scale (each row's
canonical Fraction row times the lcm of the canonical scales).  It certifies
the implication with one multiplier, 1 on that scale, and needs no simplex.  A
containment solves one LP (`lp.maximize_scaled`) per outer row that no single
inner row dominates; with none left it solves no LP.

Nothing here knows about channels or caches; this is the generic half of the
region apparatus.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import gcd, lcm
from operator import le
from typing import Iterable, Mapping, Sequence

from .combinatorics import _Frozen, _checked_fraction, _checked_int
from .lp import INFEASIBLE, OPTIMAL, IntRow, _frac, _integer_row, maximize_scaled, solve_max

Row = tuple[tuple[Fraction, ...], Fraction]


class Polytope(_Frozen):
    """{x >= 0 : <coeffs, x> <= rhs for every row}, all entries rational: the
    (coeffs, rhs) rows checked and coerced by `_checked_fraction`, or `int_rows` trusted."""

    _fields = ("variables", "int_rows")
    variables: tuple[str, ...]
    int_rows: tuple[IntRow, ...]  # (l, l * [coeffs..., rhs]), l the lcm of the denominators

    def __init__(self, variables: Sequence[str], rows: Iterable = (), *,
                 int_rows: Iterable[IntRow] | None = None):
        if isinstance(variables, str):
            raise TypeError(f"variables must be a sequence of names, not the string {variables!r}")
        vs = tuple(variables)
        if len(set(vs)) < len(vs):
            raise ValueError(f"variable names must be distinct, got {vs}")
        if int_rows is None:
            int_rows = []
            for i, (coeffs, rhs) in enumerate(rows, 1):
                if len(coeffs) != len(vs):
                    raise ValueError(f"row {i}: row length does not match variable count, "
                                     f"{len(coeffs)} coefficients for {len(vs)} variables")
                named = [*((f"row {i} coefficient {j}", c) for j, c in enumerate(coeffs, 1)), (f"row {i} rhs", rhs)]
                int_rows.append(_integer_row([_checked_fraction(*entry) for entry in named]))
        self.__dict__.update(variables=vs, int_rows=tuple(int_rows))

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
        """Load a `to_json` dump, its rows checked by the constructor.  A piece of the
        wrong shape is refused by name: the document (an object with "variables" and "rows"
        lists), a variable name (a string), a row (an object with a "coeffs" list and an
        "rhs") or an entry (a [numerator, denominator] pair of integers, the denominator at
        least 1)."""
        def entry(pair, name):
            if not (isinstance(pair, list) and len(pair) == 2):
                raise ValueError(f"{name} must be a [numerator, denominator] pair, got {pair!r}")
            n, d = pair
            return Fraction(_checked_int(f"{name} numerator", n), _checked_int(f"{name} denominator", d, 1))

        def row_of(i, row):
            if not (isinstance(row, dict) and {"coeffs", "rhs"} <= row.keys() and isinstance(row["coeffs"], list)):
                raise ValueError(f'row {i} must be an object with a "coeffs" list and an "rhs", got {row!r}')
            coeffs = [entry(c, f"row {i} coefficient {j}") for j, c in enumerate(row["coeffs"], 1)]
            return coeffs, entry(row["rhs"], f"row {i} rhs")

        payload = json.loads(text)
        for key in ("variables", "rows"):
            if not (isinstance(payload, dict) and isinstance(payload.get(key), list)):
                raise ValueError(f'"{key}" must be a list in a region dump object')
        for i, name in enumerate(payload["variables"], 1):
            if not isinstance(name, str):
                raise ValueError(f"variable {i} must be a string, got {name!r}")
        return cls(payload["variables"], (row_of(i, row) for i, row in enumerate(payload["rows"], 1)))


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
    return abs(next(filter(None, row), 1)), row


def _count_row(coeffs: Sequence[int], rhs: Fraction) -> IntRow:
    """The integer form of <coeffs, x> <= rhs for integer coeffs: a region builder's row."""
    scale = rhs.denominator
    return scale, (*(c * scale for c in coeffs), rhs.numerator)


def _implies(n: int, rows: Sequence[IntRow], targets: Sequence[IntRow]) -> bool:
    """True iff the rows imply every target row: one LP per target, up to the
    first target that fails."""
    results = ((maximize_scaled(n, rows, (scale, ints[:-1])), scale, ints) for scale, ints in targets)
    return all(r.status == INFEASIBLE or (r.status == OPTIMAL and r.value * scale <= ints[-1])
               for r, scale, ints in results)


def _on_one_scale(rows: Sequence[IntRow]) -> list[tuple[int, ...]]:
    """Rows (canonical scale, (coeffs..., rhs)) as the vectors (coeffs..., -rhs)
    of their canonical rows (first nonzero coefficient +-1) times the lcm L of
    the scales, for `_dominated`; a row of scale L is only negated."""
    big = lcm(*(k for k, _ in rows))
    scaled = [row if k == big else [v * (big // k) for v in row] for k, row in rows]
    return [(*row[:-1], -row[-1]) for row in scaled]


def _dominated(c: tuple[int, ...], rows: Sequence[tuple[int, ...]]) -> bool:
    """True iff a row a of `rows` other than `c` itself dominates c, rows as
    `_on_one_scale` stores them: c <= a entrywise, so <c, x> <= <a, x> <= b <= d
    on x >= 0."""
    for a in rows:
        if a is not c and all(map(le, c, a)):
            return True
    return False


def _dedupe(rows: Iterable[IntRow]) -> list[IntRow]:
    """Drop tautologies, duplicates and 1-row dominated rows of (scale, row)
    pairs, row a primitive integer vector (coeffs..., rhs) and scale its
    canonical scale, so two rows are the same half-space iff they are equal
    tuples, and two kept rows are never equal on one scale."""
    kept: dict[tuple[int, ...], int] = {}
    for scale, row in rows:
        # 0 <= rhs is dropped; 0 <= -1 stays, so emptiness is detectable downstream
        if row not in kept and (any(row[:-1]) or row[-1] < 0):
            kept[row] = scale
    pairs = [(scale, row) for row, scale in kept.items()]
    scaled = _on_one_scale(pairs)
    return [pair for pair, c in zip(pairs, scaled) if not _dominated(c, scaled)]


def eliminate(poly: Polytope, drop: Sequence[str]) -> Polytope:
    """Fourier-Motzkin projection of the region onto the remaining variables.

    The implicit nonnegativity of the eliminated coordinate enters as a lower
    bound, so the result is the true projection of the nonnegative-orthant
    region.  Rows are carried as primitive integer vectors (coeffs..., rhs)
    with their canonical scales, each computed once: an upper row u (u[idx] >
    0) and a lower row l (l[idx] < 0) combine to u * (-l[idx]) + l * u[idx],
    and u and x_idx >= 0 to u with u[idx] set to 0, each divided by its gcd.
    Syntactically redundant rows are pruned after each elimination; call
    `prune(...)` afterwards for an LP-certified minimal description.  The
    result holds canonical rows (first nonzero coefficient +-1).
    """
    if isinstance(drop, str):
        raise TypeError(f"drop must be a sequence of variable names, not the string {drop!r}")
    if not drop:
        return poly
    if len({poly.index(name) for name in drop}) < len(drop):  # each name checked up front
        raise ValueError(f"eliminate drops each variable once, got {list(drop)}")
    names = list(poly.variables)
    rows = [_canonical_row(_primitive(ints)) for _, ints in poly.int_rows]
    for name in drop:
        idx = names.index(name)
        del names[idx]
        # each row without its x_idx entry: uppers and lowers with that entry's size
        upper = [(r[idx], r[:idx] + r[idx + 1 :]) for _, r in rows if r[idx] > 0]
        lower = [(-r[idx], r[:idx] + r[idx + 1 :]) for _, r in rows if r[idx] < 0]
        new_rows = [(k, r[:idx] + r[idx + 1 :]) for k, r in rows if r[idx] == 0]  # scale carried over
        for uc, u in upper:
            for lc, lo in lower:
                new_rows.append(_canonical_row(_primitive([a * lc + b * uc for a, b in zip(u, lo)])))
            new_rows.append(_canonical_row(_primitive(u)))  # x_idx >= 0 is the last lower bound
        rows = _dedupe(new_rows)
    return Polytope(names, int_rows=rows)


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
    """True iff `inner` is a subset of `outer` (same variables required)."""
    return next(_containments(outer, inner))


def regions_equal(a: Polytope, b: Polytope) -> bool:
    """Mutual containment, both directions read off one scaling of the rows."""
    return all(_containments(a, b))


def _containments(a: Polytope, b: Polytope):
    """Whether b lies within a, then whether a lies within b, lazily, on one scaling
    of both regions' rows: each outer row certified by one dominating inner row
    where one exists (`_dominated`, no LP), by the LP otherwise."""
    if a.variables != b.variables:
        raise ValueError("regions must share an identical variable tuple")
    scaled = _on_one_scale([_canonical_row(ints) for _, ints in a.int_rows + b.int_rows])
    sa, sb = scaled[:len(a.int_rows)], scaled[len(a.int_rows):]
    for outer, inner, above, below in (a, b, sa, sb), (b, a, sb, sa):
        left = [row for row, c in zip(outer.int_rows, above) if not _dominated(c, below)]
        yield _implies(len(a.variables), inner.int_rows, left)


def fix_variables(poly: Polytope, assignment: Mapping[str, object]) -> Polytope:
    """Substitute fixed values for some coordinates and drop them."""
    fixed = {poly.index(k): _checked_fraction(k, v, 0) for k, v in assignment.items()}
    keep = [j for j in range(len(poly.variables)) if j not in fixed]
    rows = []
    for _, ints in poly.int_rows:
        rhs = ints[-1] - sum(ints[j] * v for j, v in fixed.items())
        rows.append(_canonical_row(_primitive(_integer_row([*(ints[j] for j in keep), rhs])[1])))
    return Polytope([poly.variables[j] for j in keep], int_rows=_dedupe(rows))


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
