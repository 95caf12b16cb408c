"""Superposition power exponents vanish under exact projection.

The achievable region of the layered scheme is naturally written with power
exponents beta_2 <= ... <= beta_K as auxiliary coordinates.  Eliminating them
by Fourier-Motzkin over exact rationals leaves precisely the triangular
region description -- certified here by mutual row implication in exact
integers, so the equality is bit-true, not numerically approximate.  Every row
of either region is dominated by one row of the other, so no LP is needed.
"""

from fractions import Fraction

from cachecast import beta_parameterized_polytope, build_region
from cachecast.polytope import canonical, eliminate, prune, regions_equal
from cachecast.regions import beta_names

ALPHA = (Fraction("0.45"), Fraction("0.65"), Fraction("0.85"), Fraction(1))
K, SIGMA = 4, 2

system = beta_parameterized_polytope(K, SIGMA, ALPHA)
print(f"joint system: {len(system.variables)} variables, {len(system.rows)} rows")
print(f"auxiliary coordinates: {beta_names(K)}")

projected = prune(eliminate(system, beta_names(K)))
print(f"after projection: {len(projected.variables)} variables, {len(projected.rows)} rows")

theorem = build_region(K, SIGMA, ALPHA)
equal = regions_equal(projected, theorem)
print(f"\nregions equal (each row dominated by one row of the other): {equal}")

print("\nprojected rows (canonical form):")
poly = canonical(projected)
for coeffs, rhs in poly.rows:
    terms = " + ".join(n for n, c in zip(poly.variables, coeffs) if c != 0)
    print(f"  {terms} <= {rhs}")
