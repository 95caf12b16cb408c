"""Exact linear programming over rationals.

A deliberately small dense-tableau simplex for the region certification work:
maximize c.x subject to A x <= b and x >= 0, every input an exact rational (int,
Fraction or a string such as '1/10'; a float or a bool is refused).  A region
certification's largest LP has 26 variables and 5 rows, so a tableau with
Bland's rule (anti-cycling) and, for a negative rhs, a phase 1 with a single
artificial variable (Chvatal, Linear Programming, 1983, ch. 8; CLRS section
29.5) is both fast enough and exactly correct -- no tolerances anywhere.

The tableau holds Python integers only (the integer-preserving pivots of
Edmonds 1967 and Bareiss 1968).  Each row is scaled by the lcm of its
denominators, so the slack start basis is the identity and the common
denominator is D = 1.  Pivoting on p = T[r][c] leaves row r as it
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

`solve_max` scales its rows and objective for the integer core `maximize_scaled`.

The solver reports one of three statuses: "optimal" (with value and a
maximizer), "unbounded", or "infeasible".
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple, Sequence

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


class LpResult(NamedTuple):
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


def _run_simplex(tab: list[list[int]], basis: list[int], d: int) -> tuple[str, int]:
    """Pivot until the (maximization) objective row has no negative entry.

    The objective row is tab[-1]; the last column is the rhs, and every other
    column may enter.  Bland's rule throughout: entering column is the
    lowest-index negative reduced cost, leaving row is the lowest-index basic
    variable among the minimum-ratio rows.  Returns the status and the
    denominator D.
    """
    m = len(tab) - 1
    n_cols = len(tab[-1]) - 1
    while True:
        obj = tab[-1]
        col = next((j for j in range(n_cols) if obj[j] < 0), None)
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
    return maximize_scaled(len(obj), scaled, _integer_row(obj))


def maximize_scaled(n: int, rows: Sequence[IntRow], objective: IntRow) -> LpResult:
    """Maximize the objective (s, s * c) over the rows (lambda, lambda * [coeffs...,
    rhs]), lambda and s > 0.  Phase 1 (Chvatal 1983, ch. 8) maximizes -x0 for x0
    subtracted from each unscaled row, -lambda_i x0 from scaled row i; x0 enters
    on the most negative unscaled rhs, leaving every rhs >= 0, and the rows are
    infeasible iff the optimum is below 0.  Bland's rule terminates from any
    feasible basis."""
    m = len(rows)
    tab = [[*ints[:-1], *[0] * m, ints[-1]] for _, ints in rows]
    for i, row in enumerate(tab):
        row[n + i] = 1  # slack
    basis = list(range(n, n + m))
    d = 1

    neg_rhs = [i for i, (_, ints) in enumerate(rows) if ints[-1] < 0]
    if neg_rhs:
        for row, (lam, _) in zip(tab, rows):
            row.insert(-1, -lam)
        tab.append([0] * (n + m) + [1, 0])  # the objective row -c of c = -x0, scale 1
        first = min(neg_rhs, key=lambda i: Fraction(rows[i][1][-1], rows[i][0]))
        d = _pivot(tab, basis, first, n + m, d)
        status, d = _run_simplex(tab, basis, d)
        assert status == OPTIMAL  # -x0 <= 0
        if tab.pop()[-1]:
            return LpResult(INFEASIBLE)
        if n + m in basis:
            # x0 basic at 0 leaves on any nonzero entry of its row; the slack
            # columns hold D * B^-1, whose row i is not 0
            i = basis.index(n + m)
            d = _pivot(tab, basis, i, next(j for j in range(n + m) if tab[i][j]), d)
        for row in tab:
            del row[n + m]

    # objective row (s * D) * (c_B B^-1 [A | S | b] - c)
    s, cint = objective
    obj_row = [-v * d for v in cint] + [0] * (m + 1)
    for i, b in enumerate(basis):
        if b < n and (f := cint[b]):
            obj_row = [v + f * t for v, t in zip(obj_row, tab[i])]
    tab.append(obj_row)
    status, d = _run_simplex(tab, basis, d)
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED)
    point = [Fraction(0)] * n
    for i, b in enumerate(basis):
        if b < n:
            point[b] = Fraction(tab[i][-1], d)
    return LpResult(OPTIMAL, value=Fraction(tab[-1][-1], d * s), point=tuple(point))


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
