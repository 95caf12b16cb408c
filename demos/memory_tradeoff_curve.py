"""Delivery time versus cache size, three delivery strategies compared.

K = N = 4 with strengths (0.45, 0.65, 0.85, 1).  At integer cache budgets all
strategies agree; between them, naive memory sharing (time-share the two
neighbouring integer-budget systems) is strictly slower than delivering both
coded sets jointly through superposition.  The converse floor sits exactly a
factor 2.01 below the achieved curve.
"""

from fractions import Fraction

from cachecast import SystemConfig, gndt_lower_bound, gndt_memory_sharing, gndt_ub
from cachecast.regions import user_strengths

# checked once: every config below shares this one strengths object, and with it
# the formulas' per-curve record; a fresh tuple per config would be checked again
ALPHA = user_strengths(4, (Fraction("0.45"), Fraction("0.65"), Fraction("0.85"), Fraction(1)))

print(f"{'mu':>6} {'K*mu':>6} {'tau_ub':>10} {'tau_ms':>10} {'tau_lb':>10}  note")
worst_gap = Fraction(0)
for step in range(0, 33):
    mu = Fraction(step, 32)
    cfg = SystemConfig(num_users=4, num_files=4, mu=mu, alpha=ALPHA)
    achieved = gndt_ub(cfg)
    shared = gndt_memory_sharing(cfg)
    floor = gndt_lower_bound(cfg)
    gap = shared - achieved
    worst_gap = max(worst_gap, gap)
    note = ""
    if cfg.integer_budget:
        note = "integer budget"
    elif gap > 0:
        note = f"sharing loses {float(gap):.4f}"
    print(
        f"{float(mu):6.3f} {float(cfg.num_users * mu):6.2f} "
        f"{float(achieved):10.6f} {float(shared):10.6f} {float(floor):10.6f}  {note}"
    )

print()
print(f"largest memory-sharing penalty on this grid: {float(worst_gap):.6f} time slots")
cfg = SystemConfig(num_users=4, num_files=4, mu=Fraction(1, 4), alpha=ALPHA)
ratio = gndt_ub(cfg) / gndt_lower_bound(cfg)
print(f"achieved / converse ratio (exact): {ratio} = {float(ratio)}")
