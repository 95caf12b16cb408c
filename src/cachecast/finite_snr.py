"""Finite-power rate regions and constant-gap certificates.

At finite nominal power P the layered transmission loses at most one bit per
decoding stage, so the cumulative rows of the GDoF region turn into

    sum_{i<=k} R_i + sum_{S: min(S)<=k} R_S <= (alpha_k log2 P - k)^+,

while the plain cut-set outer bound keeps the full log2(1 + P^alpha_k) on the
right.  The two descriptions pinch the capacity region to within 2 bits per
dimension, and the certificate implemented here checks exactly that statement
pointwise: push a boundary point of the inner region up by 2 bits in every
coordinate and it must fall outside the outer region, a pair built once and
shared by every point.  The delay-rate variant additionally divides the
delivery time by the converse constant 2.01.  Both refuse, through one check
(`_on_boundary`), a point outside their inner region or tight on no row.

The regions are float views of the exact integer rows of `regions`, which
supply variables and 0/1 coefficients and validate the strengths exactly;
only right-hand sides become non-integer floats, held in plain tuples that
compare and hash by value.  Boundary points are drawn from any source with
`.random()`.  The nominal power P is an argument of every builder, checked
by `_checked_power` alone, which the command line's --P calls too: P outside
(1, inf), nan included, is refused.
Rates are bits per channel use (all logs base 2); comparisons use a 1e-9 tolerance.
"""

from __future__ import annotations

import csv
import math
import numbers
from typing import IO, Callable, NamedTuple, Sequence

from .polytope import Polytope
from .regions import build_region, cumulative_region
from .tradeoff import SystemConfig

TOL = 1e-9
GAP_BITS = 2.0


class RateRegion(NamedTuple):
    """Float row system <coeffs, R> <= rhs over named nonnegative rates, as tuples that compare by value."""

    variables: tuple[str, ...]
    coeffs: tuple[tuple[float, ...], ...]
    rhs: tuple[float, ...]

    def lhs(self, point: Sequence[float]) -> list[float]:
        return [sum(c * x for c, x in zip(row, point, strict=True)) for row in self.coeffs]

    def contains(self, point: Sequence[float]) -> bool:  # each x >= -TOL: a nan anywhere is refused
        return all(x >= -TOL for x in point) and all(y <= r + TOL for y, r in zip(self.lhs(point), self.rhs))

    def slack(self, point: Sequence[float]) -> list[float]:
        return [r - y for r, y in zip(self.rhs, self.lhs(point))]


def _checked_power(name: str, value) -> float:
    """`value` as a float power in (1, inf), or a ValueError naming it."""
    try:
        power = float(value)
    except (TypeError, ValueError, OverflowError):  # text, a JSON list, an int past any float
        power = math.nan
    if not 1 < power < math.inf:  # also refuses nan
        raise ValueError(f"{name} must be a finite power above 1, got {value}")
    return power


def _float_view(exact: Polytope, rhs: Callable[[int, float], float]) -> RateRegion:
    """The exact region's integer rows (l, l * [coeffs..., b]) as floats, each
    entry over l once (int true division rounds correctly), with rhs(k, b_k)
    in place of row k's exact right-hand side b_k."""
    rows = [[v / scale for v in ints] for scale, ints in exact.int_rows]
    return RateRegion(
        variables=exact.variables,
        coeffs=tuple(tuple(row[:-1]) for row in rows),
        rhs=tuple(rhs(k, row[-1]) for k, row in enumerate(rows, start=1)),
    )


def inner_rate_region(
    num_users: int, group_size: int, alpha: Sequence, power: float
) -> RateRegion:
    """Explicit achievable region: the rows of `regions.build_region` with
    rhs (a_k log2 P - k)^+ in place of alpha_k."""
    log_p = math.log2(_checked_power("P", power))
    return _float_view(build_region(num_users, group_size, alpha), lambda k, a: max(0.0, a * log_p - k))


def outer_rate_region(
    num_users: int, group_size: int, alpha: Sequence, power: float
) -> RateRegion:
    """Cut-set outer bound: the same rows with rhs log2(1 + P^{a_k})."""
    power = _checked_power("P", power)
    return _float_view(build_region(num_users, group_size, alpha), lambda k, a: math.log2(1.0 + power**a))


def sample_boundary_point(region: RateRegion, rng) -> list[float]:
    """Scale a random nonnegative direction until the first row goes tight: `rng`
    is any `.random()` source, such as `random.Random`, drawn once per coordinate.
    The coefficients are nonnegative, so a row with rhs below -TOL leaves no
    point to sample: it is refused by name, before any draw."""
    for k, r in enumerate(region.rhs, start=1):
        if r < -TOL:
            raise ValueError(f"row {k} has rhs {r!r} < 0: the region holds no point to sample")
    direction = [rng.random() + 1e-3 for _ in region.variables]
    scales = [r / d for r, d in zip(region.rhs, region.lhs(direction)) if d > TOL]
    t = max(0.0, min(scales)) if scales else 0.0
    return [t * x for x in direction]


def _on_boundary(region: RateRegion, boundary: Sequence[float], name: str) -> list[float]:
    """`boundary` as a float list, refused unless it lies in the `name`
    region with at least one row tight within TOL: a certificate's usage check."""
    point = [float(x) for x in boundary]
    if not region.contains(point):
        raise ValueError(f"certificate point must lie inside the {name} region")
    if not any(abs(s) <= TOL for s in region.slack(point)):
        raise ValueError(f"certificate point must lie on the {name} boundary")
    return point


def constant_gap_certificate(
    inner: RateRegion, outer: RateRegion, boundary: Sequence[float]
) -> bool:
    """Does boundary + 2 bits per dimension escape the outer region?

    `inner` and `outer` are one channel's `inner_rate_region` and
    `outer_rate_region`, built once and shared by every point certified
    against them.  `boundary` must lie on the boundary of the inner region (at
    least one row tight within 1e-9); anything else is a usage error, not a
    failed certificate.
    """
    if inner.variables != outer.variables:
        raise ValueError("the inner and outer regions must share their variables")
    point = _on_boundary(inner, boundary, "inner")
    return any(s < -TOL for s in outer.slack([x + GAP_BITS for x in point]))


def _delay_rate_view(delay: float, config: SystemConfig, power: float, rhs) -> RateRegion:
    """The rows of `regions.cumulative_region(alpha)` with rhs(k, alpha_k log2 P, load_k / delay)."""
    if isinstance(delay, bool) or not isinstance(delay, numbers.Real):
        raise ValueError(f"delay must be a number, got {delay!r}")
    if not delay > 0:  # inline: an open bound on a float, not a rational argument; also refuses nan
        raise ValueError(f"delay must be positive, got {delay}")
    log_p = math.log2(_checked_power("P", power))
    scale, loads = config._chord  # load_k = P_k / D, the int quotient correctly rounded
    return _float_view(cumulative_region(config.alpha),
                       lambda k, a: rhs(k, a * log_p, loads[k - 1] / scale / delay))


def delay_rate_inner_region(delay: float, config: SystemConfig, power: float) -> RateRegion:
    """Unicast rates achievable alongside content delivered in `delay`.

    Row k reserves 1/delay of the enveloped coded load inside the effective
    level budget (alpha_k log2 P - k)^+.  `delay` is a positive real number;
    delay = inf reserves no load, leaving the budgets themselves.
    """
    return _delay_rate_view(delay, config, power, lambda k, y, reserved: max(0.0, y - k) - reserved)


def delay_rate_gap_certificate(
    delay: float, config: SystemConfig, power: float, boundary: Sequence[float]
) -> bool:
    """Rates + 2 bits with delay / 2.01 must break the converse rows.

    The converse keeps every achievable tuple below
    alpha_k log2 P + 1 - load_k / (2.01 * delay'') per prefix k; with
    delay'' = delay / 2.01 the reserved load term is load_k / delay again.  A
    row breaks when its sum exceeds that rhs minus TOL, so a point tight on
    row 1 (with alpha_1 log2 P >= 1), which the shift puts exactly on row 1's
    converse rhs, passes only through TOL unless another row breaks.
    """
    point = _on_boundary(delay_rate_inner_region(delay, config, power), boundary, "delay-rate")
    converse = _delay_rate_view(delay, config, power, lambda k, y, reserved: y + 1.0 - reserved)
    return any(y > r - TOL for y, r in zip(converse.lhs([x + GAP_BITS for x in point]), converse.rhs))


def write_region_csv(named: dict[str, RateRegion], stream: IO[str]) -> None:
    """Regions over one variable tuple as CSV: one line per inequality, the
    region's name (under a `region` column), coefficients, then rhs.  An empty
    mapping, or a region whose variables differ from the first one's, is refused."""
    if not named:
        raise ValueError("write_region_csv needs at least one region, got none")
    variables = next(iter(named.values())).variables
    for name, reg in named.items():
        if reg.variables != variables:
            raise ValueError(f"region {name!r} must share the variables {variables}, got {reg.variables}")
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["region", *variables, "rhs"])
    for name, reg in named.items():
        for row, rhs in zip(reg.coeffs, reg.rhs):
            writer.writerow([name, *(f"{v:.12g}" for v in row), f"{rhs:.12g}"])
