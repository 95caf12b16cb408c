"""The finite-power story: the asymptotic analysis is 2 bits from capacity.

At a nominal power of P = 2^20 the achievable region loses k bits on the k-th
cumulative row relative to the cut-set bound.  Pushing any boundary point up
by 2 bits per dimension lands outside the outer bound -- checked here on a
batch of random boundary points, together with the delay-rate variant where
the delivery time additionally shrinks by the converse factor 2.01.
"""

import random
from fractions import Fraction

from cachecast import (
    SystemConfig,
    constant_gap_certificate,
    delay_rate_gap_certificate,
    delay_rate_inner_region,
    inner_rate_region,
    outer_rate_region,
)
from cachecast.finite_snr import sample_boundary_point

ALPHA = (Fraction("0.4"), Fraction("0.9"), Fraction(1))
POWER = 2.0**20

inner = inner_rate_region(3, 2, ALPHA, POWER)
outer = outer_rate_region(3, 2, ALPHA, POWER)
print("cumulative row budgets (bits/channel use):")
for k, (lo, hi) in enumerate(zip(inner.rhs, outer.rhs), start=1):
    print(f"  row {k}: inner {lo:8.3f}   outer {hi:8.3f}   gap {hi - lo:5.3f} <= {k + 1}")

rng = random.Random(0)
passed = 0
for _ in range(100):
    point = sample_boundary_point(inner, rng)
    passed += constant_gap_certificate(inner, outer, point)
print(f"\nrate certificates: {passed}/100 boundary points escape the outer bound at +2 bits")

cfg = SystemConfig(num_users=3, num_files=3, mu=Fraction(1, 3), alpha=ALPHA)
delay = 0.25
region = delay_rate_inner_region(delay, cfg, POWER)
print(f"\ndelay-rate region at delay {delay}: rhs = {[round(x, 3) for x in region.rhs]}")
passed = 0
for _ in range(100):
    point = sample_boundary_point(region, rng)
    passed += delay_rate_gap_certificate(delay, cfg, POWER, point)
print(f"delay-rate certificates (+2 bits, delay / 2.01): {passed}/100 pass")
