"""Rational polytopes in the nonnegative orthant.

A region here is a finite list of rows ``<coeffs, x> <= rhs`` over named
coordinates, with every coordinate implicitly >= 0 and every number an exact
Fraction.  On top of that sit the operations the region proofs need:

* Fourier-Motzkin elimination (exact projection onto a subset of variables),
* containment and equality certified row-by-row through the LP oracle,
* redundancy pruning, again LP-certified,
* vertex enumeration by the double-description method.

Nothing here knows about channels or caches; this is the generic half of the
region apparatus.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Mapping, Sequence

from .lp import INFEASIBLE, UNBOUNDED, solve_max

Row = tuple[tuple[Fraction, ...], Fraction]


def _frac(x) -> Fraction:
    """x as an exact Fraction; a float is refused, never rounded."""
    if isinstance(x, float):
        raise TypeError(f"{x!r} is a float; pass an int, a Fraction or a string such as '1/10'")
    return Fraction(x)


@dataclass(frozen=True)
class Polytope:
    """{x >= 0 : <coeffs, x> <= rhs for every row}, all entries rational."""

    variables: tuple[str, ...]
    rows: tuple[Row, ...]

    @classmethod
    def build(cls, variables: Sequence[str], rows: Iterable) -> "Polytope":
        vs = tuple(variables)
        clean = []
        for coeffs, rhs in rows:
            if len(coeffs) != len(vs):
                raise ValueError("row length does not match variable count")
            clean.append((tuple(_frac(c) for c in coeffs), _frac(rhs)))
        return cls(variables=vs, rows=tuple(clean))

    def index(self, name: str) -> int:
        return self.variables.index(name)

    def point_values(self, point: Mapping[str, object]) -> tuple[Fraction, ...]:
        missing = set(self.variables) - set(point)
        if missing:
            raise ValueError(f"point is missing coordinates {sorted(missing)}")
        return tuple(_frac(point[v]) for v in self.variables)

    def contains(self, point) -> bool:
        """Row evaluation; `point` is a mapping from names or a value vector."""
        if isinstance(point, Mapping):
            values = self.point_values(point)
        else:
            values = tuple(_frac(p) for p in point)
            if len(values) != len(self.variables):
                raise ValueError("point length does not match variable count")
        if any(v < 0 for v in values):
            return False
        return all(
            sum(c * v for c, v in zip(coeffs, values)) <= rhs
            for coeffs, rhs in self.rows
        )

    def maximize(self, objective: Mapping[str, object] | Sequence):
        """LP-maximize a linear objective over the region (exact)."""
        if isinstance(objective, Mapping):
            obj = [_frac(objective.get(v, 0)) for v in self.variables]
        else:
            obj = [_frac(c) for c in objective]
        return solve_max(obj, self.rows)

    def implies_row(self, coeffs: Sequence[Fraction], rhs: Fraction) -> bool:
        """True iff every point of the region satisfies <coeffs, x> <= rhs."""
        result = solve_max([_frac(c) for c in coeffs], self.rows)
        if result.status == UNBOUNDED:
            return False
        if result.status == INFEASIBLE:
            return True
        return result.value <= _frac(rhs)

    def is_empty(self) -> bool:
        return solve_max([Fraction(0)] * len(self.variables), self.rows).status == INFEASIBLE

    def to_json(self) -> str:
        """Dump with rational rows as numerator/denominator pairs."""
        payload = {
            "variables": list(self.variables),
            "rows": [
                {
                    "coeffs": [[c.numerator, c.denominator] for c in coeffs],
                    "rhs": [rhs.numerator, rhs.denominator],
                }
                for coeffs, rhs in self.rows
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Polytope":
        payload = json.loads(text)
        rows = [
            (
                tuple(Fraction(n, d) for n, d in row["coeffs"]),
                Fraction(*row["rhs"]),
            )
            for row in payload["rows"]
        ]
        return cls(variables=tuple(payload["variables"]), rows=tuple(rows))


def _canonical_row(row: Row) -> Row:
    coeffs, rhs = row
    scale = next((abs(c) for c in coeffs if c != 0), None)
    if scale is None:
        scale = abs(rhs) if rhs != 0 else Fraction(1)
    return (tuple(c / scale for c in coeffs), rhs / scale)


def _dedupe(rows: list[Row]) -> list[Row]:
    """Drop tautologies, exact (scaled) duplicates and 1-row dominated rows."""
    kept: list[Row] = []
    seen = set()
    for row in rows:
        coeffs, rhs = _canonical_row(row)
        if all(c == 0 for c in coeffs):
            if rhs < 0 and (coeffs, rhs) not in seen:
                # infeasible row: keep it so emptiness is detectable downstream
                seen.add((coeffs, rhs))
                kept.append((coeffs, rhs))
            continue
        if (coeffs, rhs) in seen:
            continue
        seen.add((coeffs, rhs))
        kept.append((coeffs, rhs))
    # dominance against a single other row (t = 1 after canonical scaling):
    # <a, x> <= b makes <c, x> <= d redundant on x >= 0 when c <= a and d >= b
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


def eliminate(poly: Polytope, drop: Sequence[str]) -> Polytope:
    """Fourier-Motzkin projection of the region onto the remaining variables.

    The implicit nonnegativity of the eliminated coordinate enters as a lower
    bound, so the result is the true projection of the nonnegative-orthant
    region.  Syntactically redundant rows are pruned after each elimination;
    call `prune(...)` afterwards for an LP-certified minimal description.
    """
    current = poly
    for name in drop:
        idx = current.index(name)
        upper: list[Row] = []
        lower: list[Row] = []
        rest: list[Row] = []
        for coeffs, rhs in current.rows:
            if coeffs[idx] > 0:
                upper.append((coeffs, rhs))
            elif coeffs[idx] < 0:
                lower.append((coeffs, rhs))
            else:
                rest.append((coeffs, rhs))
        # x_idx >= 0 is one more lower bound
        zero_lb = tuple(
            Fraction(-1) if j == idx else Fraction(0)
            for j in range(len(current.variables))
        )
        lower.append((zero_lb, Fraction(0)))

        new_rows: list[Row] = list(rest)
        for ucoeffs, urhs in upper:
            uscale = ucoeffs[idx]
            for lcoeffs, lrhs in lower:
                lscale = -lcoeffs[idx]
                coeffs = tuple(
                    u / uscale + lo / lscale
                    for u, lo in zip(ucoeffs, lcoeffs)
                )
                new_rows.append((coeffs, urhs / uscale + lrhs / lscale))

        keep = [j for j in range(len(current.variables)) if j != idx]
        current = Polytope(
            variables=tuple(current.variables[j] for j in keep),
            rows=tuple(
                (tuple(coeffs[j] for j in keep), rhs)
                for coeffs, rhs in _dedupe(new_rows)
            ),
        )
    return current


def prune(poly: Polytope) -> Polytope:
    """Drop every row implied by the remaining ones (LP-certified)."""
    rows = list(poly.rows)
    i = 0
    while i < len(rows):
        candidate = rows[i]
        others = rows[:i] + rows[i + 1 :]
        trimmed = Polytope(variables=poly.variables, rows=tuple(others))
        if trimmed.implies_row(*candidate):
            rows = others
        else:
            i += 1
    return Polytope(variables=poly.variables, rows=tuple(rows))


def canonical(poly: Polytope) -> Polytope:
    """Scaled, sorted and pruned row list, for stable dumps and comparisons."""
    pruned = prune(poly)
    rows = sorted(_canonical_row(r) for r in pruned.rows)
    return Polytope(variables=pruned.variables, rows=tuple(rows))


def region_contains(outer: Polytope, inner: Polytope) -> bool:
    """True iff `inner` is a subset of `outer` (same variables required)."""
    if outer.variables != inner.variables:
        raise ValueError("regions must share an identical variable tuple")
    return all(inner.implies_row(coeffs, rhs) for coeffs, rhs in outer.rows)


def regions_equal(a: Polytope, b: Polytope) -> bool:
    """Mutual row implication, each direction certified by the LP oracle."""
    return region_contains(a, b) and region_contains(b, a)


def fix_variables(poly: Polytope, assignment: Mapping[str, object]) -> Polytope:
    """Substitute fixed values for some coordinates and drop them."""
    fixed = {poly.index(k): _frac(v) for k, v in assignment.items()}
    if any(v < 0 for v in fixed.values()):
        raise ValueError("fixed values must be nonnegative")
    keep = [j for j in range(len(poly.variables)) if j not in fixed]
    rows = []
    for coeffs, rhs in poly.rows:
        shift = sum(coeffs[j] * v for j, v in fixed.items())
        rows.append((tuple(coeffs[j] for j in keep), rhs - shift))
    return Polytope(
        variables=tuple(poly.variables[j] for j in keep),
        rows=tuple(_dedupe(rows)),
    )


def vertices(poly: Polytope) -> list[tuple[Fraction, ...]]:
    """All vertices of the region, sorted, by exact double description
    (Fukuda & Prodon 1996) of the cone {(x, t) >= 0 : <a, x> - b t <= 0}.

    The orthant's n + 1 unit rays start it; each row keeps the rays on its
    side and joins each (+, -) pair that is adjacent: a common zero set of at
    least n - 1 constraints that no third ray's zero set contains.  Vertices
    are x / t over rays with t > 0 (rays with t = 0 are recession directions).
    A row costs O(P * M * R) bitmask tests for P and M rays on either side of
    it out of R, plus O(R * n) Fraction products.  An empty region gives [],
    so a caller that needs a nonempty one must test `is_empty()`.
    """
    n = len(poly.variables)
    # each ray carries a bitmask of its tight constraints: bits 0..n are the
    # facets x_j >= 0 and t >= 0, bit n + 1 + i is row i
    rays = [(tuple(Fraction(int(i == j)) for i in range(n + 1)), ((1 << (n + 1)) - 1) ^ (1 << j))
            for j in range(n + 1)]
    for k, (coeffs, rhs) in enumerate(poly.rows, start=n + 1):
        row, bit = coeffs + (-rhs,), 1 << k
        values = [sum(c * y for c, y in zip(row, ray)) for ray, _ in rays]
        kept = [(ray, zero | bit if v == 0 else zero)
                for (ray, zero), v in zip(rays, values) if v <= 0]
        pos = [(ray, zero, v) for (ray, zero), v in zip(rays, values) if v > 0]
        neg = [(ray, zero, v) for (ray, zero), v in zip(rays, values) if v < 0]
        for (p, zp, vp), (q, zq, vq) in product(pos, neg):
            common = zp & zq  # adjacent iff only p and q contain it
            if common.bit_count() >= n - 1 and sum(z & common == common for _, z in rays) == 2:
                kept.append((tuple(vp * b - vq * a for a, b in zip(p, q)), common | bit))
        rays = kept
    return sorted({tuple(x / ray[-1] for x in ray[:-1]) for ray, _ in rays if ray[-1] > 0})
