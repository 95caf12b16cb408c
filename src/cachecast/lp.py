"""Exact linear programming over rationals.

A deliberately small dense-tableau simplex for the region certification work:
maximize c.x subject to A x <= b and x >= 0, every input an exact rational (int,
Fraction or a string such as '1/10'; a float or a bool is refused).  Dimensions
in this package stay below ~25 variables and ~30 rows, so a two-phase tableau
with Bland's rule (anti-cycling) is both fast enough and exactly correct -- no
tolerances anywhere.

The tableau holds Python integers only (the integer-preserving pivots of
Edmonds 1967 and Bareiss 1968).  Each row is scaled by the lcm of its
denominators, so the slack (and artificial) start basis is the identity and
the common denominator is D = 1.  Pivoting on p = T[r][c] leaves row r as it
is and replaces every other row, the objective row included, by
(T[i][j] * p - T[i][c] * T[r][j]) // D; then D = p, and the whole tableau is
negated when p < 0 so that D > 0.  The rational tableau is T / D (the
objective row T / (D * s), for the objective's integer scale s).  The division
is exact because every entry is a minor of the scaled integer matrix, D
included (Cramer's rule), so entries grow like determinants instead of like
products of reduced fractions.  A pivot costs O(m * n) integer products and no
gcd; ratio tests compare by cross-multiplication.  The positive row scales
change neither a sign nor the order of a ratio test, so Bland's rule takes the
same pivots as on the unscaled Fraction tableau, and the value and maximizer
are read as exact Fractions at the end.

`solve_max` scales its rows for the integer core `maximize_each`, which takes
k objectives over one scaled row set: one phase 1, then each phase 2 from the
last optimal basis, so an objective costs O(m * n) and the pivots between optima.

The solver reports one of three statuses: "optimal" (with value and a
maximizer), "unbounded", or "infeasible".
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Sequence

IntRow = tuple[int, tuple[int, ...]]  # (s, s * values), s > 0 and every entry an integer
OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"


def _frac(x) -> Fraction:
    """x as an exact Fraction; a float is refused, never rounded, and so is a bool, never read as 1."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (float, bool)):
        raise TypeError(f"{x!r} is a {type(x).__name__}; pass an int, a Fraction or a string such as '1/10'")
    return Fraction(x)


def _integer_row(values: Sequence[Fraction]) -> IntRow:
    """(s, s * values) for s the lcm of the values' denominators."""
    dens = [v.denominator for v in values]
    scale = lcm(*dens)
    if scale == 1:
        return 1, tuple(v.numerator for v in values)
    return scale, tuple(v.numerator * (scale // k) for v, k in zip(values, dens))


@dataclass(frozen=True)
class LpResult:
    status: str
    value: Fraction | None = None
    point: tuple[Fraction, ...] | None = None


def _pivot(tab: list[list[int]], basis: list[int], row: int, col: int, d: int) -> int:
    """Integer-preserving pivot on tab[row][col]; returns the new denominator."""
    prow = tab[row]
    p = prow[col]
    for i, r in enumerate(tab):
        if i != row:
            f = r[col]
            if f:
                tab[i] = [(v * p - f * w) // d for v, w in zip(r, prow)]
            elif p != d:
                tab[i] = [v * p // d for v in r]
    basis[row] = col
    if p < 0:
        for i, r in enumerate(tab):
            tab[i] = [-v for v in r]
        return -p
    return p


def _run_simplex(tab: list[list[int]], basis: list[int], n_enterable: int, d: int) -> tuple[str, int]:
    """Pivot until the (maximization) objective row has no negative entry.

    The objective row is tab[-1]; the last column is the rhs.  Only the first
    `n_enterable` columns may enter the basis (this keeps artificials out
    during phase 1).  Bland's rule throughout: entering column is the
    lowest-index negative reduced cost, leaving row is the lowest-index basic
    variable among the minimum-ratio rows.  Returns the status and the
    denominator D.
    """
    m = len(tab) - 1
    while True:
        obj = tab[-1]
        col = next((j for j in range(n_enterable) if obj[j] < 0), None)
        if col is None:
            return OPTIMAL, d
        row = -1
        for i in range(m):
            a = tab[i][col]
            if a > 0:
                if row < 0:
                    row = i
                    continue
                # tab[i][-1] / a against the best ratio, both denominators > 0
                here = tab[i][-1] * tab[row][col]
                best = tab[row][-1] * a
                if here < best or (here == best and basis[i] < basis[row]):
                    row = i
        if row < 0:
            return UNBOUNDED, d
        d = _pivot(tab, basis, row, col, d)


def solve_max(objective: Sequence[Fraction], rows: Sequence[tuple[Sequence[Fraction], Fraction]]) -> LpResult:
    """Maximize objective . x subject to the rows and x >= 0."""
    obj = [_frac(c) for c in objective]
    scaled = [_integer_row([*map(_frac, coeffs), _frac(rhs)]) for coeffs, rhs in rows]
    if any(len(ints) != len(obj) + 1 for _, ints in scaled):
        raise ValueError("row length does not match the objective's length")
    return next(maximize_each(len(obj), scaled, [_integer_row(obj)]))


def maximize_each(n: int, rows: Sequence[IntRow], objectives: Iterable[IntRow]) -> Iterator[LpResult]:
    """Lazily maximize each objective (s, s * c) over the rows (lambda, lambda
    * [coeffs..., rhs]), lambda and s > 0.  Bland's rule terminates from any
    feasible basis and the optimum value is unique, so a warm-started value is
    the cold one; the first objective takes the pivots of `solve_max`."""
    m = len(rows)
    neg_rows = [i for i, (_, row) in enumerate(rows) if row[-1] < 0]
    n_art = len(neg_rows)
    art_col = {i: n + m + t for t, i in enumerate(neg_rows)}

    tab: list[list[int]] = []
    basis: list[int] = []
    for i, (_, ints) in enumerate(rows):
        row = [*ints[:-1], *[0] * (m + n_art), ints[-1]]
        row[n + i] = 1  # slack
        if row[-1] < 0:
            row = [-v for v in row]
            row[art_col[i]] = 1
            basis.append(art_col[i])
        else:
            basis.append(n + i)
        tab.append(row)
    d = 1

    if n_art:
        # phase 1: maximize -(sum of the unscaled rows' artificials).  Row i
        # was scaled by lambda_i, so its artificial costs 1 / lambda_i, and
        # the phase-1 row is scaled by s1 = lcm of those lambda_i.
        s1 = lcm(*(rows[i][0] for i in neg_rows))
        phase1 = [0] * (n + m + n_art + 1)
        for i in neg_rows:
            phase1[art_col[i]] = s1 // rows[i][0]
        # express in terms of the current basis (artificials are basic)
        for i in neg_rows:
            w = phase1[art_col[i]]
            phase1 = [v - w * t for v, t in zip(phase1, tab[i])]
        tab.append(phase1)
        status, d = _run_simplex(tab, basis, n + m, d)
        assert status == OPTIMAL  # phase-1 objective is bounded below by 0
        if tab[-1][-1] != 0:
            yield from (LpResult(INFEASIBLE) for _ in objectives)
            return
        tab.pop()
        # drive each degenerate artificial out of the basis; it always can go:
        # S is invertible, so row i of B^-1 [A | S | Art] has a nonzero slack entry
        for i, b in enumerate(basis):
            if b >= n + m:
                col = next(j for j in range(n + m) if tab[i][j] != 0)
                d = _pivot(tab, basis, i, col, d)
        tab = [r[: n + m] + [r[-1]] for r in tab]

    for s, cint in objectives:
        # objective row (s * D) * (c_B B^-1 [A | S | b] - c)
        obj_row = [-v * d for v in cint] + [0] * (m + 1)
        for i, b in enumerate(basis):
            if b < n and cint[b]:
                f = cint[b]
                obj_row = [v + f * t for v, t in zip(obj_row, tab[i])]
        tab.append(obj_row)
        status, d = _run_simplex(tab, basis, n + m, d)
        value = tab.pop()[-1]
        if status == UNBOUNDED:
            yield LpResult(UNBOUNDED)
            continue
        point = [Fraction(0)] * n
        for i, b in enumerate(basis):
            if b < n:
                point[b] = Fraction(tab[i][-1], d)
        yield LpResult(OPTIMAL, value=Fraction(value, d * s), point=tuple(point))


def solve_square(matrix: list[list[Fraction]], rhs: list[Fraction]):
    """Solve a square rational linear system exactly; None if singular.

    Bareiss forward elimination on the rows scaled to integers, then integer
    back substitution for y = det * x (Cramer: each y_i is a determinant of
    the scaled matrix, so every division is exact).
    """
    n = len(matrix)
    aug = [_integer_row([*map(_frac, row), _frac(b)])[1] for row, b in zip(matrix, rhs)]
    prev = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        prow = aug[col]
        p = prow[col]
        for r in range(col + 1, n):
            f = aug[r][col]
            aug[r] = [(v * p - f * w) // prev for v, w in zip(aug[r], prow)]
        prev = p
    det = prev
    y = [0] * n
    for i in range(n - 1, -1, -1):
        row = aug[i]
        y[i] = (det * row[-1] - sum(row[j] * y[j] for j in range(i + 1, n))) // row[i]
    return [Fraction(v, det) for v in y]
