"""Acceptance suite: one test per headline claim, at the stated tolerances.

Each test prints a single PASS/FAIL line so the suite doubles as a checklist
(run with capture off to see the lines as they happen):

    pytest -v -s tests/test_acceptance.py

A failing criterion carries its line in the assertion message either way.
"""

import itertools
import math
import sys
import time
from fractions import Fraction as F

import numpy as np
from fraction_oracles import is_convex_sequence, max_symmetric_gdof

from cachecast.caching import end_to_end_verify
from cachecast.combinatorics import multicast_load_sequence
from cachecast.finite_snr import (
    constant_gap_certificate,
    delay_rate_gap_certificate,
    delay_rate_inner_region,
    inner_rate_region,
    outer_rate_region,
    sample_boundary_point,
)
from cachecast.polytope import eliminate, fix_variables, prune, regions_equal, vertices
from cachecast.regions import (
    beta_names,
    beta_parameterized_polytope,
    build_region,
    symmetric_projection,
)
from cachecast.tradeoff import (
    SystemConfig,
    bottleneck_user,
    gndt_joint_two_set,
    gndt_lower_bound,
    gndt_memory_sharing,
    gndt_ub,
    topological_hole_region,
)

FIG_ALPHA = (F("0.45"), F("0.65"), F("0.85"), F(1))
#: the converse constant by value, so criterion 6 does not read it from the code it checks
FACTOR = F(201, 100)


def report(criterion: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def random_strengths(rng, num_users, denom_hi=60):
    denom = int(rng.integers(8, denom_hi))
    cuts = sorted(int(rng.integers(1, denom)) for _ in range(num_users - 1))
    return tuple(F(c, denom) for c in cuts) + (F(1),)


def test_criterion_1_memory_tradeoff_curve():
    start = time.monotonic()
    expected = {0: F(4), 1: F(25, 13), 2: F(10, 9), 3: F(5, 9), 4: F(0)}
    exact_ok = True
    for t, tau in expected.items():
        cfg = SystemConfig(4, 4, F(t, 4), FIG_ALPHA)
        exact_ok &= gndt_ub(cfg) == tau

    dominated = True
    strict = False
    for step in range(0, 101):
        mu = F(step, 100)
        cfg = SystemConfig(4, 4, mu, FIG_ALPHA)
        shared = gndt_memory_sharing(cfg)
        if cfg.integer_budget:
            dominated &= gndt_ub(cfg) == shared
            continue
        joint = gndt_joint_two_set(cfg)
        dominated &= joint <= shared
        strict |= joint < shared
    elapsed = time.monotonic() - start
    ok = exact_ok and dominated and strict and elapsed < 1.0
    report(
        "criterion 1 (memory trade-off curve)",
        ok,
        f"integer points exact={exact_ok}, joint<=shared={dominated}, "
        f"strict somewhere={strict}, runtime={elapsed:.2f}s (< 1s)",
    )


def test_criterion_2_bit_exact_delivery():
    start = time.monotonic()
    runs = failures = 0
    for K in range(1, 5):
        for N in range(1, 5):
            for split in range(0, K + 1):
                for d in itertools.product(range(1, N + 1), repeat=K):
                    runs += 1
                    if not end_to_end_verify(K, N, split, d=d, seed=runs):
                        failures += 1
    spot_checks = [
        (5, 2, 1, (1, 2, 2, 1, 1)),
        (5, 2, 3, (2, 1, 1, 2, 2)),
        (5, 3, 2, (1, 2, 3, 1, 2)),
        (5, 4, 1, (4, 3, 2, 1, 4)),
        (5, 5, 4, (1, 2, 3, 4, 5)),
    ]
    for K, N, split, d in spot_checks:
        runs += 1
        if not end_to_end_verify(K, N, split, d=d, seed=runs):
            failures += 1
    elapsed = time.monotonic() - start
    ok = failures == 0 and elapsed < 60.0
    report(
        "criterion 2 (bit-exact coded delivery)",
        ok,
        f"{runs} demand tuples, {failures} failures, runtime={elapsed:.1f}s (< 60s)",
    )


def test_criterion_3_power_allocation_projection():
    start = time.monotonic()
    rng = np.random.default_rng(31)
    checked = failures = 0
    for K in (2, 3, 4):
        for sigma in range(2, K + 1):
            for _ in range(20):
                alpha = random_strengths(rng, K)
                theorem = build_region(K, sigma, alpha)
                system = beta_parameterized_polytope(K, sigma, alpha)
                projected = prune(eliminate(system, beta_names(K)))
                checked += 1
                if not regions_equal(projected, theorem):
                    failures += 1
    elapsed = time.monotonic() - start
    ok = failures == 0 and elapsed < 30.0
    report(
        "criterion 3 (projection equals triangular region)",
        ok,
        f"{checked} instances LP-certified, {failures} failures, "
        f"runtime={elapsed:.1f}s (< 30s)",
    )


def test_criterion_4_symmetric_value_oracle():
    rng = np.random.default_rng(41)
    checked = failures = 0
    while checked < 110:
        K = int(rng.integers(2, 6))
        sigma = int(rng.integers(2, K + 1))
        s = int(rng.integers(1, K + 1))
        alpha = random_strengths(rng, K)
        # keep the pinned region feasible so the LP optimum exists
        cap = alpha[0] / (2 * K)
        r = tuple(
            F(int(rng.integers(0, 4)), 3) * cap for _ in range(K)
        )
        closed = max_symmetric_gdof(K, sigma, alpha, s, r)
        poly = symmetric_projection(K, sigma, alpha, s)
        pinned = fix_variables(poly, {f"r_{k}": r[k - 1] for k in range(1, K + 1)})
        res = pinned.maximize({"r_sym": 1})
        checked += 1
        if res.status != "optimal" or res.value != closed:
            failures += 1
    ok = failures == 0
    report(
        "criterion 4 (symmetric value LP equivalence)",
        ok,
        f"{checked} random instances exact, {failures} failures",
    )


def test_criterion_5_topological_holes():
    alpha = (F(2, 5), F(9, 10), F(1))
    cfg = SystemConfig(3, 3, F(1, 3), alpha)
    star = bottleneck_user(cfg)
    region = topological_hole_region(cfg)
    base = gndt_ub(cfg)
    worked = (
        star == 1
        and base == F(5, 3)
        and region.rows[1] == ((F(0), F(1), F(0)), F(3, 10))
        and region.rows[2] == ((F(0), F(1), F(1)), F(3, 10))
        and all(gndt_ub(cfg, v) == base for v in vertices(region))
    )

    rng = np.random.default_rng(51)
    random_ok = True
    for _ in range(50):
        K = int(rng.integers(2, 6))
        N = K + int(rng.integers(0, 3))
        alpha = random_strengths(rng, K, denom_hi=40)
        t = int(rng.integers(0, K))
        rcfg = SystemConfig(K, N, F(t, K), alpha)
        rbase = gndt_ub(rcfg)
        for vertex in vertices(topological_hole_region(rcfg)):
            random_ok &= gndt_ub(rcfg, vertex) == rbase
    ok = worked and random_ok
    report(
        "criterion 5 (topological holes)",
        ok,
        f"worked example={worked}, 50 random N>=K instances vertex-invariant={random_ok}",
    )


def test_criterion_6_order_optimality_ratio():
    rng = np.random.default_rng(61)
    checked = failures = 0
    while checked < 60:
        K = int(rng.integers(2, 6))
        N = int(rng.integers(1, 7))
        alpha = random_strengths(rng, K)
        mu = F(int(rng.integers(0, 6 * K)), 6 * K)  # exclude mu = 1
        cfg = SystemConfig(K, N, mu, alpha)
        r = tuple(alpha[0] / (4 * K) * int(rng.integers(0, 3)) for _ in range(K))
        ub = gndt_ub(cfg, r)
        lb = gndt_lower_bound(cfg, r)
        # independent assembly of the per-prefix converse rows
        per_prefix = []
        prefix = F(0)
        for s in range(1, K + 1):
            prefix += r[s - 1]
            gap = max(F(0), alpha[s - 1] - prefix)
            seq = multicast_load_sequence(K, min(s, N))
            budget = K * mu
            low = budget.numerator // budget.denominator
            lam = low + 1 - budget if budget.denominator != 1 else F(1)
            load = seq[low] if budget.denominator == 1 else lam * seq[low] + (1 - lam) * seq[low + 1]
            if load == 0:
                per_prefix.append(F(0))
            elif gap == 0:
                per_prefix.append(math.inf)
            else:
                per_prefix.append(load / FACTOR / gap)
        checked += 1
        if max(per_prefix) != lb:
            failures += 1
        elif ub == math.inf or lb == math.inf:
            if not (ub == math.inf and lb == math.inf):
                failures += 1
        elif lb * FACTOR != ub:
            failures += 1
    ok = failures == 0
    report(
        "criterion 6 (converse within the exact factor 201/100)",
        ok,
        f"{checked} instances, per-prefix assembly matches and ratio exact, "
        f"{failures} failures",
    )


def test_criterion_7_constant_gap_certificates():
    rng = np.random.default_rng(71)
    rate_checked = rate_failures = 0
    while rate_checked < 100:
        K = int(rng.integers(2, 5))
        sigma = int(rng.integers(2, K + 1))
        alpha = random_strengths(rng, K, denom_hi=20)
        power = 2.0 ** float(rng.integers(4, 41))
        inner = inner_rate_region(K, sigma, alpha, power)
        outer = outer_rate_region(K, sigma, alpha, power)
        point = sample_boundary_point(inner, rng)
        rate_checked += 1
        if not constant_gap_certificate(inner, outer, point):
            rate_failures += 1

    delay_checked = delay_failures = 0
    while delay_checked < 50:
        K = int(rng.integers(2, 5))
        N = int(rng.integers(1, 6))
        alpha = random_strengths(rng, K, denom_hi=20)
        power = 2.0 ** float(rng.integers(6, 41))
        mu = F(int(rng.integers(0, 2 * K + 1)), 2 * K)
        cfg = SystemConfig(K, N, mu, alpha)
        delay = 1.0
        while np.any(np.array(delay_rate_inner_region(delay, cfg, power).rhs) < 0):
            delay *= 2.0
        region = delay_rate_inner_region(delay, cfg, power)
        point = sample_boundary_point(region, rng)
        delay_checked += 1
        if not delay_rate_gap_certificate(delay, cfg, power, point):
            delay_failures += 1
    ok = rate_failures == 0 and delay_failures == 0
    report(
        "criterion 7 (constant-gap certificates)",
        ok,
        f"{rate_checked} rate certificates ({rate_failures} failed), "
        f"{delay_checked} delay-rate certificates ({delay_failures} failed)",
    )


def test_criterion_8_load_sequence_convexity():
    checked = failures = 0
    for K in range(2, 13):
        for N in range(1, K + 1):
            for k in range(1, K + 1):
                seq = multicast_load_sequence(K, min(k, N))
                checked += 1
                if not is_convex_sequence(seq):
                    failures += 1
    ok = failures == 0
    report(
        "criterion 8 (coded load sequence convexity)",
        ok,
        f"{checked} sequences K <= 12 all convex, {failures} failures",
    )
