import io
import math
import random
import re
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest

from cachecast import finite_snr
from cachecast.finite_snr import (
    RateRegion,
    constant_gap_certificate,
    delay_rate_gap_certificate,
    delay_rate_inner_region,
    inner_rate_region,
    outer_rate_region,
    sample_boundary_point,
    write_region_csv,
)
from cachecast.tradeoff import SystemConfig, prefix_loads

ALPHA2 = (F(1, 2), F(1))
ALPHA3 = (F(2, 5), F(9, 10), F(1))
ALPHA4 = (F("0.45"), F("0.65"), F("0.85"), F(1))


def cfg(K, N, mu, alpha):
    return SystemConfig(num_users=K, num_files=N, mu=F(mu), alpha=alpha)


class TestInnerOuter:
    def test_two_user_worked_rhs(self):
        region = inner_rate_region(2, 2, ALPHA2, 2.0**20)
        assert np.allclose(region.rhs, [9.0, 18.0])

    def test_small_power_zero_region(self):
        region = inner_rate_region(2, 2, ALPHA2, 2.0)
        assert np.allclose(region.rhs, 0.0)

    def test_unit_power_flagged(self):
        with pytest.raises(ValueError, match=r"^P must be a finite power above 1, got 1\.0$"):
            inner_rate_region(2, 2, ALPHA2, 1.0)

    def test_outer_exact_power_of_two(self):
        region = outer_rate_region(2, 2, (F(1), F(1)), 1023.0)
        assert np.allclose(region.rhs, [10.0, 10.0])

    def test_nesting_and_gap(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            K = int(rng.integers(2, 5))
            sigma = int(rng.integers(2, K + 1))
            cuts = np.sort(rng.integers(2, 20, size=K - 1))
            alpha = tuple(F(int(c), 20) for c in cuts) + (F(1),)
            power = 2.0 ** float(rng.integers(4, 41))
            inner = inner_rate_region(K, sigma, alpha, power)
            outer = outer_rate_region(K, sigma, alpha, power)
            assert np.all(np.array(inner.rhs) <= np.array(outer.rhs) + 1e-9)
            for k in range(1, K + 1):
                gap = outer.rhs[k - 1] - inner.rhs[k - 1]
                assert gap <= k + 1 + 1e-9

    def test_outer_monotone_in_power(self):
        lo = outer_rate_region(2, 2, ALPHA2, 2.0**10)
        hi = outer_rate_region(2, 2, ALPHA2, 2.0**12)
        assert len(hi.rhs) == len(lo.rhs) == 2
        assert all(h >= lo_row for h, lo_row in zip(hi.rhs, lo.rhs, strict=True))

    def test_equal_regions_compare_equal_and_hash_alike(self):
        a = inner_rate_region(2, 2, ["1/2", 1], 2**20)
        b = inner_rate_region(2, 2, ["1/2", 1], 2**20)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a.coeffs == ((1.0, 0.0, 1.0), (1.0, 1.0, 1.0)) and a.rhs == (9.0, 18.0)
        assert a != inner_rate_region(2, 2, ["1/2", 1], 2**21)
        assert a != outer_rate_region(2, 2, ["1/2", 1], 2**20)

    @pytest.mark.parametrize("position", range(3))
    @pytest.mark.parametrize("rows", ["none", "inner"])
    def test_contains_refuses_a_nan_in_any_position(self, rows, position):
        # a row-free region is the whole orthant: only the coordinate test sees the nan
        region = RateRegion(("r_1", "r_2", "r_1_2"), (), ()) if rows == "none" else \
            inner_rate_region(2, 2, ALPHA2, 2.0**20)
        point = [0.5, 0.5, 0.5]
        assert region.contains(point)
        point[position] = math.nan
        assert not region.contains(point)

    def test_point_length_must_match_the_variables(self):
        region = inner_rate_region(2, 2, ALPHA2, 2.0**20)
        for probe in (region.lhs, region.slack, region.contains):
            with pytest.raises(ValueError):
                probe([1.0, 1.0])

    def test_gdof_consistency(self):
        for exponent in (10, 20, 40):
            power = 2.0**exponent
            inner = inner_rate_region(3, 2, ALPHA3, power)
            for k, (rhs, a) in enumerate(zip(inner.rhs, ALPHA3), start=1):
                assert abs(rhs / exponent - float(a)) <= k / exponent + 1e-12


class TestCertificates:
    @pytest.mark.parametrize("trial", range(25))
    def test_random_boundary_points(self, trial):
        rng = np.random.default_rng(100 + trial)
        K = int(rng.integers(2, 5))
        sigma = int(rng.integers(2, K + 1))
        cuts = np.sort(rng.integers(4, 20, size=K - 1))
        alpha = tuple(F(int(c), 20) for c in cuts) + (F(1),)
        power = 2.0 ** float(rng.integers(4, 41))
        inner = inner_rate_region(K, sigma, alpha, power)
        outer = outer_rate_region(K, sigma, alpha, power)
        point = sample_boundary_point(inner, rng)
        assert constant_gap_certificate(inner, outer, point)

    def test_sampling_draws_once_per_coordinate_from_any_source(self):
        inner = inner_rate_region(3, 2, ALPHA3, 2.0**20)
        draw, source = random.Random(5), random.Random(5)
        direction = [draw.random() + 1e-3 for _ in inner.variables]
        point = sample_boundary_point(inner, source)
        assert source.random() == draw.random()  # one draw per coordinate, no more
        assert isinstance(point, list) and all(type(x) is float for x in point)
        # the direction, scaled until the first row goes tight
        assert point == pytest.approx([point[0] / direction[0] * d for d in direction], rel=1e-12)
        assert min(map(abs, inner.slack(point))) <= 1e-9 and inner.contains(point)
        # a numpy Generator's scalar draws are its vector draw
        vector = np.random.default_rng(3).random(len(inner.variables)) + 1e-3
        sampled = sample_boundary_point(inner, np.random.default_rng(3))
        assert sampled == pytest.approx([sampled[0] / vector[0] * v for v in vector], rel=1e-12)

    def test_sampling_refuses_a_region_that_excludes_the_origin(self):
        """At delay 0.05 the reserved load exceeds every row budget, so no
        nonnegative point lies in the region: the sampler names row 1, its
        first broken row, and draws nothing, rather than return the origin."""
        config = cfg(3, 3, 0, (F(2, 5), F(9, 10), F(1)))
        region = delay_rate_inner_region(0.05, config, 2.0**20)
        assert region.rhs == (-13.0, -24.0, -43.0)
        source = random.Random(7)
        message = "row 1 has rhs -13.0 < 0: the region holds no point to sample"
        with pytest.raises(ValueError, match=re.escape(message)):
            sample_boundary_point(region, source)
        assert source.random() == random.Random(7).random()

    def test_interior_point_rejected(self):
        inner = inner_rate_region(2, 2, ALPHA2, 2.0**20)
        interior = np.full(len(inner.variables), 0.1)
        assert inner.contains(interior)
        outer = outer_rate_region(2, 2, ALPHA2, 2.0**20)
        with pytest.raises(ValueError, match="^certificate point must lie on the inner boundary$"):
            constant_gap_certificate(inner, outer, interior)

    def test_outside_point_rejected(self):
        inner = inner_rate_region(2, 2, ALPHA2, 2.0**20)
        outer = outer_rate_region(2, 2, ALPHA2, 2.0**20)
        with pytest.raises(ValueError, match="^certificate point must lie inside the inner region$"):
            constant_gap_certificate(inner, outer, [100.0, 100.0, 100.0])

    def test_regions_over_different_variables_are_refused(self):
        inner = inner_rate_region(2, 2, ALPHA2, 2.0**20)
        outer = outer_rate_region(3, 2, ALPHA3, 2.0**20)
        point = sample_boundary_point(inner, random.Random(0))
        with pytest.raises(ValueError, match="^the inner and outer regions must share their variables$"):
            constant_gap_certificate(inner, outer, point)

    def test_origin_certifies_when_region_is_zero(self):
        # every rhs clamps to zero; the origin is the whole region
        point = np.zeros(3)
        inner = inner_rate_region(2, 2, ALPHA2, 2.0)
        outer = outer_rate_region(2, 2, ALPHA2, 2.0)
        assert constant_gap_certificate(inner, outer, point)


class TestDelayRate:
    def test_full_memory_is_pure_unicast(self):
        config = cfg(3, 3, 1, ALPHA3)
        region = delay_rate_inner_region(1.0, config, 2.0**20)
        expected = [max(0.0, float(a) * 20 - k) for k, a in enumerate(ALPHA3, 1)]
        assert np.allclose(region.rhs, expected)

    def test_load_term_scales_with_delay(self):
        config = cfg(3, 3, F(1, 3), ALPHA3)
        tight = delay_rate_inner_region(1.0, config, 2.0**20)
        slack = delay_rate_inner_region(2.0, config, 2.0**20)
        # doubling the delay returns half the reserved load to the rates
        diff = np.array(slack.rhs) - np.array(tight.rhs)
        base = [max(0.0, float(a) * 20 - k) for k, a in enumerate(ALPHA3, 1)]
        reserved = np.array(base) - tight.rhs
        assert np.allclose(diff, reserved / 2)

    @pytest.mark.parametrize("trial", range(15))
    def test_gap_certificates(self, trial):
        rng = np.random.default_rng(300 + trial)
        K = int(rng.integers(2, 5))
        N = int(rng.integers(1, 6))
        cuts = np.sort(rng.integers(4, 20, size=K - 1))
        alpha = tuple(F(int(c), 20) for c in cuts) + (F(1),)
        power = 2.0 ** float(rng.integers(6, 41))
        mu = F(int(rng.integers(0, 2 * K + 1)), 2 * K)
        config = cfg(K, N, mu, alpha)
        delay = nonnegative_delay(config, power)
        region = delay_rate_inner_region(delay, config, power)
        point = sample_boundary_point(region, rng)
        assert delay_rate_gap_certificate(delay, config, power, point)

    @pytest.mark.parametrize("point,message", [
        ((0.0, 0.0, 0.0), "certificate point must lie on the delay-rate boundary"),
        ((100.0, 100.0, 100.0), "certificate point must lie inside the delay-rate region"),
    ], ids=["interior", "outside"])
    def test_certificate_refuses_a_point_off_the_boundary(self, point, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            delay_rate_gap_certificate(1.0, cfg(3, 3, 1, ALPHA3), 2.0**20, point)

    def test_rejects_nonpositive_delay(self):
        with pytest.raises(ValueError, match="^delay must be positive, got 0.0$"):
            delay_rate_inner_region(0.0, cfg(3, 3, F(1, 3), ALPHA3), 2.0**20)

    @pytest.mark.parametrize("delay,message", [
        (True, "delay must be a number, got True"),
        (False, "delay must be a number, got False"),
        ("1", "delay must be a number, got '1'"),
        (None, "delay must be a number, got None"),
        (math.nan, "delay must be positive, got nan"),
        (-math.inf, "delay must be positive, got -inf"),
        (-1, "delay must be positive, got -1"),
    ], ids=["true", "false", "text", "none", "nan", "minus-inf", "negative-int"])
    @pytest.mark.parametrize("probe", ["region", "certificate"])
    def test_delay_must_be_a_positive_number(self, probe, delay, message):
        config = cfg(3, 3, F(1, 3), ALPHA3)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            if probe == "region":
                delay_rate_inner_region(delay, config, 2.0**20)
            else:
                delay_rate_gap_certificate(delay, config, 2.0**20, [0.0] * 3)

    def test_infinite_delay_reserves_no_load(self):
        config = cfg(3, 3, F(1, 3), ALPHA3)
        assert delay_rate_inner_region(math.inf, config, 2.0**20).rhs == (7.0, 16.0, 17.0)
        assert delay_rate_inner_region(F(1, 4), config, 2.0**20) == delay_rate_inner_region(0.25, config, 2.0**20)

    def test_certificate_matches_the_prefix_sum_loop(self):
        rng = np.random.default_rng(2026)
        checked = 0
        for _ in range(60):
            K = int(rng.integers(2, 6))
            N = int(rng.integers(1, 7))
            cuts = np.sort(rng.integers(4, 20, size=K - 1))
            alpha = tuple(F(int(c), 20) for c in cuts) + (F(1),)
            power = 2.0 ** float(rng.integers(4, 41))
            config = cfg(K, N, F(int(rng.integers(0, 2 * K + 1)), 2 * K), alpha)
            base = nonnegative_delay(config, power)
            for delay in (base, 2 * base, 4 * base):
                region = delay_rate_inner_region(delay, config, power)
                budgets = [max(0.0, float(a) * math.log2(power) - k) - float(load) / delay
                           for k, (a, load) in enumerate(zip(alpha, prefix_loads(config)), start=1)]
                assert list(region.rhs) == budgets
                for _ in range(5):
                    point = sample_boundary_point(region, rng)
                    assert delay_rate_gap_certificate(delay, config, power, point) == \
                        prefix_sum_certificate(delay, config, power, point), (config, power, delay, point)
                    checked += 1
        assert checked == 900


def nonnegative_delay(config, power: float) -> float:
    """The first delay 1, 2, 4, ... that keeps every row budget nonnegative."""
    delay = 1.0
    while np.any(np.array(delay_rate_inner_region(delay, config, power).rhs) < 0):
        delay *= 2.0
    return delay


def prefix_sum_certificate(delay: float, config, power: float, point) -> bool:
    """Oracle for `delay_rate_gap_certificate` on a boundary point: the converse
    written out as one prefix sum of the shifted point per user prefix."""
    log_p = math.log2(power)
    shifted = np.asarray(point, dtype=float) + 2.0
    for k, load in enumerate(prefix_loads(config), start=1):
        lhs = float(np.sum(shifted[:k])) + float(load) / delay
        if lhs > float(config.alpha[k - 1]) * log_p + 1.0 - 1e-9:
            return True
    return False


class TestShiftNegativeControls:
    """Without the 2-bit shift a point of the inner region lies inside the
    outer region and below the converse, so both certificates must fail on
    every boundary point; with the shift the same points pass."""

    @staticmethod
    def checks():
        """(certificate, args) on boundary points over K = 2..4 and P = 2^10,
        2^20, 2^40: every sigma for the constant gap, and mu 0, 1/3, 2/3 with
        delay 1/4, 1, 4 for the delay-rate certificate."""
        rng = np.random.default_rng(21)
        for K in range(2, 5):
            alpha = tuple(F(k + 1, K + 1) for k in range(1, K)) + (F(1),)
            for power in (2.0**10, 2.0**20, 2.0**40):
                for sigma in range(2, K + 1):
                    inner = inner_rate_region(K, sigma, alpha, power)
                    outer = outer_rate_region(K, sigma, alpha, power)
                    for _ in range(10):
                        point = sample_boundary_point(inner, rng)
                        yield constant_gap_certificate, (inner, outer, point)
                for mu in (F(0), F(1, 3), F(2, 3)):
                    config = cfg(K, K, mu, alpha)
                    for delay in (0.25, 1.0, 4.0):
                        region = delay_rate_inner_region(delay, config, power)
                        if np.any(np.array(region.rhs) < 0):
                            continue  # the reserved load exceeds a row budget: no boundary
                        for _ in range(3):
                            point = sample_boundary_point(region, rng)
                            yield delay_rate_gap_certificate, (delay, config, power, point)

    @pytest.mark.parametrize("shift, passes", [(0.0, False), (2.0, True)])
    def test_points_fail_without_the_shift_and_pass_with_it(self, monkeypatch, shift, passes):
        monkeypatch.setattr(finite_snr, "GAP_BITS", shift)
        verdicts = Counter(
            (certificate.__name__, certificate(*args)) for certificate, args in self.checks()
        )
        assert verdicts == {
            ("constant_gap_certificate", passes): 180,
            ("delay_rate_gap_certificate", passes): 234,
        }


POWER_BUILDERS = {
    "inner": lambda power: inner_rate_region(2, 2, ALPHA2, power),
    "outer": lambda power: outer_rate_region(2, 2, ALPHA2, power),
    "delay-inner": lambda power: delay_rate_inner_region(1.0, cfg(3, 3, 1, ALPHA3), power),
    "delay-cert": lambda power: delay_rate_gap_certificate(1.0, cfg(3, 3, 1, ALPHA3), power, [0.0] * 3),
}


class TestPowerRefusal:
    @pytest.mark.parametrize("power", [1.0, 0.5, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("builder", sorted(POWER_BUILDERS))
    def test_power_must_be_finite_and_above_one(self, builder, power):
        with pytest.raises(ValueError, match=f"^{re.escape(f'P must be a finite power above 1, got {power}')}$"):
            POWER_BUILDERS[builder](power)


def two_user_exact_rates(q: float, alpha, power: float) -> tuple[float, float]:
    """K = 2 exact superposition rates for one power split q in [0, 1].

    Returns (A, B): A caps R_12 + R_1, B caps R_2, for SNR_k = P^{alpha_k}.
    """
    snr1, snr2 = (power ** float(a) for a in alpha)
    a = math.log2(1.0 + q * snr1 / (1.0 + (1.0 - q) * snr1))
    b = math.log2(1.0 + (1.0 - q) * snr2)
    return a, b


class TestTwoUserSandwich:
    def test_grid_regions_inside_outer(self):
        power = 2.0**12
        outer = outer_rate_region(2, 2, ALPHA2, power)
        for q in np.linspace(0.0, 1.0, 501):
            a, b = two_user_exact_rates(float(q), ALPHA2, power)
            # (R_1 + R_12, R_2) = (a, b) is the corner of the exact region
            point = np.array([a, b, 0.0])  # vars r_1, r_2, r_12
            # inside the outer rows up to float rounding, bounded by 1e-6
            assert np.all(point >= -1e-6)
            assert np.all(np.array(outer.lhs(point)) <= np.array(outer.rhs) + 1e-6)

    def test_inner_boundary_reachable_on_a_grid(self):
        power = 2.0**12
        log_p = 12.0
        inner = inner_rate_region(2, 2, ALPHA2, power)
        rng = np.random.default_rng(11)
        grid = list(np.linspace(0.0, 1.0, 2001))
        for _ in range(25):
            point = sample_boundary_point(inner, rng)
            x = point[0] + point[2]  # R_1 + R_12
            y = point[1]
            # the split that funds level 1 with x + 1 bits
            beta2 = min(float(ALPHA2[0]), (x + 1.0) / log_p)
            candidates = grid + [1.0 - power ** (-beta2)]
            ok = any(
                a >= x - 1e-6 and b >= y - 1e-6
                for a, b in (two_user_exact_rates(q, ALPHA2, power) for q in candidates)
            )
            assert ok


def test_csv_emission():
    region = inner_rate_region(2, 2, ALPHA2, 2.0**20)
    buf = io.StringIO()
    write_region_csv({"inner": region}, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "region,r_1,r_2,r_1_2,rhs"
    assert len(lines) == 3
    assert lines[1].startswith("inner,") and lines[1].endswith(",9")


@pytest.mark.parametrize("named,message", [
    ({}, "write_region_csv needs at least one region, got none"),
    ({"two": inner_rate_region(2, 2, ALPHA2, 2.0**20), "three": inner_rate_region(3, 2, ALPHA3, 2.0**20)},
     "region 'three' must share the variables ('r_1', 'r_2', 'r_1_2'), "
     "got ('r_1', 'r_2', 'r_3', 'r_1_2', 'r_1_3', 'r_2_3')"),
], ids=["empty", "other-variables"])
def test_csv_refuses_regions_it_cannot_write_under_one_header(named, message):
    buf = io.StringIO()
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        write_region_csv(named, buf)
    assert buf.getvalue() == ""
