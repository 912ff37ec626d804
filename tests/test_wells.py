import math
from dataclasses import replace

import mpmath
import pytest
from hypothesis import given, strategies as st

from defectcyl import (
    PhysicalParams,
    coupling_strength_parameter,
    excited_state,
    ground_state,
)

import oracles


def make_params(**overrides):
    base = dict(mass=0.5, coupling=1.0, half_separation=1.0, deficit=1.0, radius=5.0, hbar=1.0)
    base.update(overrides)
    return PhysicalParams(**base)


LOG_GRID = [10.0 ** (-6 + 9 * k / 60) for k in range(61)]  # 1e-6 .. 1e3


def f_profile(xi):
    """Ground-level profile F(xi) = xi / (1 + exp(-2 xi)); F(xi) = c at the root."""
    return xi / (1.0 + math.exp(-2.0 * xi))


def g_profile(xi):
    """Excited-level profile G(xi) = xi / (1 - exp(-2 xi)); G(xi) = c at the root."""
    return xi / -math.expm1(-2.0 * xi)


def ground_xi(c):
    return ground_state(make_params(mass=1.0, half_separation=c)).xi  # c = z0


def excited_xi(c):
    return excited_state(make_params(mass=1.0, half_separation=c)).xi


def lambert_roots(c):
    """(ground, excited) roots of xi - c = +-c exp(-2 xi) via mpmath's W0, at 50 digits."""
    with mpmath.workdps(50):
        c = mpmath.mpf(c)
        a = 2 * c * mpmath.exp(-2 * c)
        return c + mpmath.lambertw(a).real / 2, c + mpmath.lambertw(-a).real / 2


class TestProfiles:
    """The solved roots invert the profiles F and G."""

    def test_f_at_zero(self):
        # F(xi) ~ xi / 2 as xi -> 0, so the root is 2c once exp(-2c) rounds to 1
        assert ground_xi(1e-300) == 2e-300

    def test_f_large_argument(self):
        assert ground_xi(50.0) == 50.0

    def test_f_at_one(self):
        assert ground_xi(0.8807970779778823) == pytest.approx(1.0, rel=1e-15)

    def test_g_at_zero_removable_singularity(self):
        # G(0+) = 1/2: the root falls to 0 as c falls to the threshold 1/2
        assert excited_state(make_params(mass=1.0, half_separation=0.5)) is None
        assert 0.0 < excited_xi(0.5 + 1e-11) < 3e-11

    def test_g_large_argument(self):
        assert excited_xi(50.0) == 50.0

    def test_g_at_one(self):
        assert excited_xi(1.1565176427496657) == pytest.approx(1.0, rel=1e-15)

    def test_g_small_argument_expansion(self):
        # G(xi) = 1/2 + xi/2 + O(xi^2), so the root is 2 (c - 1/2) to leading order
        for c in (0.5 + 1e-11, 0.5 + 1e-9, 0.5 + 1e-8):
            assert excited_xi(c) == pytest.approx(2.0 * (c - 0.5), rel=1e-4)

    def test_g_continuous_across_expansion_switch(self):
        # no branch switch near threshold: neighbouring c give neighbouring roots
        for c in (0.5 + 1e-10, 0.5 + 1e-8, 0.5 + 1e-4):
            assert abs(excited_xi(math.nextafter(c, 1.0)) - excited_xi(c)) <= 1e-15

    def test_f_bounds_on_log_grid(self):
        for c in LOG_GRID:
            xi = ground_xi(c)
            assert c <= xi <= 2.0 * c
            assert abs(f_profile(xi) - c) <= 2.0 * math.ulp(c)

    def test_g_bounds_on_log_grid(self):
        for c in LOG_GRID:
            if c <= 0.5 + 1e-12:
                continue
            xi = excited_xi(c)
            assert max(0.0, c - 0.5) <= xi <= c
            assert abs(g_profile(xi) - c) <= 2.0 * math.ulp(c) + 1e-15

    def test_profiles_strictly_increasing_on_grid(self):
        ground = [ground_xi(c) for c in LOG_GRID]
        excited = [excited_xi(c) for c in LOG_GRID if c > 0.5 + 1e-12]
        assert all(a < b for a, b in zip(ground, ground[1:]))
        assert all(a < b for a, b in zip(excited, excited[1:]))

    @given(st.floats(min_value=1e-6, max_value=100.0), st.floats(min_value=1.0001, max_value=2.0))
    def test_monotone_pairs(self, c, factor):
        assert ground_xi(c * factor) > ground_xi(c)
        if c > 0.5 + 1e-12:
            assert excited_xi(c * factor) > excited_xi(c)

    @given(st.floats(min_value=1e-300, max_value=1e308))
    def test_roots_lie_in_profile_brackets(self, c):
        # xi/2 <= F(xi) <= xi and xi <= G(xi) <= xi + 1/2
        xi = ground_xi(c)
        assert c <= xi <= 2.0 * c
        if c > 0.5 + 1e-12:
            xi = excited_xi(c)
            assert max(0.0, c - 0.5) <= xi <= c

    def test_roots_against_lambert_w(self):
        grid = [10.0 ** (-12 + 15 * k / 80) for k in range(81)]  # 1e-12 .. 1e3
        grid += [0.5 + 10.0 ** (-11 + k) for k in range(10)]  # threshold offsets 1e-11 .. 0.01
        grid += [0.75, 18.5, 40.0, 2e16, 1e308]
        for c in grid:
            ground, excited = lambert_roots(c)
            assert abs(mpmath.mpf(ground_xi(c)) - ground) <= 2.0 * max(math.ulp(float(ground)), 1e-16), c
            if c > 0.5 + 1e-12:
                assert abs(mpmath.mpf(excited_xi(c)) - excited) <= 2.0 * max(math.ulp(float(excited)), 1e-16), c


class TestGroundState:
    def test_matches_bisection_oracle_at_half(self):
        p = make_params()  # c = 0.5
        c = coupling_strength_parameter(p)
        assert c == 0.5
        expected_xi = oracles.bisect(lambda t: f_profile(t) - c, 0.5, 1.0, xtol=1e-12)
        state = ground_state(p)
        assert state.xi == pytest.approx(expected_xi, abs=1e-10)
        assert state.energy == pytest.approx(
            -state.xi**2 * p.hbar**2 / (2 * p.mass * p.half_separation**2), rel=1e-15
        )

    def test_residual_below_tolerance(self):
        for z0 in (0.01, 0.3, 1.0, 7.0, 40.0):
            p = make_params(half_separation=z0)
            c = coupling_strength_parameter(p)
            assert abs(f_profile(ground_state(p).xi) - c) <= 1e-10

    def test_close_well_limit(self):
        # wells merging into one of double strength
        energies = [ground_state(make_params(half_separation=10.0**-k)).energy for k in range(2, 7)]
        errors = [abs(e + 1.0) for e in energies]
        assert errors[-1] < 1e-5
        assert all(b < a for a, b in zip(errors, errors[1:]))

    def test_far_well_limit(self):
        for k in (2, 3, 4):
            energy = ground_state(make_params(half_separation=10.0**k)).energy
            assert energy == pytest.approx(-0.25, rel=1e-10)

    def test_xi_energy_h_consistency(self):
        for z0 in (0.05, 0.5, 2.0, 30.0):
            p = make_params(half_separation=z0)
            s = ground_state(p)
            assert s.xi == pytest.approx(
                (p.half_separation / p.hbar) * math.sqrt(2.0 * p.mass * abs(s.energy)), rel=1e-10
            )
            assert s.h_factor == pytest.approx(
                abs(s.energy) * p.hbar**2 / (p.mass * p.coupling**2), rel=1e-12
            )

    def test_h_factor_range(self):
        for z0 in (1e-3, 0.1, 1.0, 5.0, 20.0):
            s = ground_state(make_params(half_separation=z0))
            assert 0.5 < s.h_factor < 2.0

    def test_monotone_increasing_in_separation(self):
        # strictly monotone while exp(-2 xi) is resolvable (c below ~18);
        # beyond that the energy saturates at the far-well plateau exactly
        z0s = [0.05 * 1.5**k for k in range(16)]
        energies = [ground_state(make_params(half_separation=z)).energy for z in z0s]
        assert all(a < b for a, b in zip(energies, energies[1:]))
        wide = [ground_state(make_params(half_separation=z)).energy for z in (50.0, 200.0)]
        assert all(e == pytest.approx(-0.25, rel=1e-12) for e in wide)

    def test_range_confinement(self):
        for z0 in (0.01, 0.7, 3.0, 100.0):
            p = make_params(half_separation=z0)
            e = ground_state(p).energy
            scale = p.mass * p.coupling**2 / p.hbar**2
            assert -2.0 * scale < e < -0.5 * scale or e == pytest.approx(-0.5 * scale, rel=1e-12)


class TestExcitedState:
    def test_absent_below_threshold(self):
        assert excited_state(make_params(half_separation=0.9)) is None

    def test_threshold_is_strict(self):
        # exactly at threshold the would-be level has zero binding
        assert excited_state(make_params(half_separation=1.0)) is None

    def test_matches_bisection_oracle_at_one(self):
        p = make_params(half_separation=2.0)  # c = 1
        expected_xi = oracles.bisect(lambda t: g_profile(t) - 1.0, 0.5, 1.0, xtol=1e-12)
        state = excited_state(p)
        assert state is not None
        assert state.xi == pytest.approx(expected_xi, abs=1e-10)

    def test_far_well_limit(self):
        for k in (2, 3, 4):
            state = excited_state(make_params(half_separation=10.0**k))
            assert state.energy == pytest.approx(-0.25, rel=1e-10)

    def test_existence_grid(self):
        for mass in (0.3, 0.5, 1.0, 1.7):
            for coupling in (0.4, 1.0, 2.0):
                for z0 in (0.1, 0.5, 1.2, 3.0, 8.0):
                    p = make_params(mass=mass, coupling=coupling, half_separation=z0)
                    state = excited_state(p)
                    exists = 2.0 * mass * z0 * coupling > 1.0 + 2e-12
                    assert (state is not None) == exists

    def test_near_threshold_expansion(self):
        delta = 1e-6
        p = make_params(half_separation=2.0 * (0.5 + delta))  # c = 0.5 + delta
        state = excited_state(p)
        assert state is not None
        assert state.xi == pytest.approx(2.0 * delta, rel=1e-2)
        assert -1e-10 < state.energy < 0.0

    def test_h_factor_range(self):
        for z0 in (1.1, 2.0, 6.0, 25.0):
            s = excited_state(make_params(half_separation=z0))
            assert 0.0 < s.h_factor < 0.5

    def test_saturates_where_c_minus_half_rounds_to_c(self):
        # from c ~ 4.5e15 on, c - 1/2 rounds to c and the root is xi = c
        p = make_params(mass=1.0, coupling=2e16)
        state = excited_state(p)
        assert state.xi == coupling_strength_parameter(p) == 2e16
        assert state.h_factor == 0.5


class TestLevelStructure:
    def test_ordering_where_both_exist(self):
        for z0 in (1.5, 2.0, 8.0, 24.0):
            p = make_params(half_separation=z0)
            g = ground_state(p)
            e = excited_state(p)
            assert g.energy < e.energy < 0.0

    def test_ordering_saturates_at_extreme_separation(self):
        p = make_params(half_separation=64.0)
        assert ground_state(p).energy <= excited_state(p).energy < 0.0

    def test_gap_closes_monotonically(self):
        gaps = []
        for z0 in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0):
            p = make_params(half_separation=z0)
            e = excited_state(p)
            if e is None:
                continue
            gaps.append(e.energy - ground_state(p).energy)
        assert len(gaps) == 8
        assert all(g > 0 or g == 0.0 for g in gaps)
        assert all(b <= a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 1e-6

    def test_excited_decreasing_in_separation(self):
        z0s = [1.2 * 1.5**k for k in range(12)]
        energies = [excited_state(make_params(half_separation=z)).energy for z in z0s]
        assert all(b <= a for a, b in zip(energies, energies[1:]))
        assert energies[1] < energies[0]

    def test_dimensionless_collapse(self):
        a = make_params(mass=0.5, coupling=2.0, half_separation=1.0)
        b = make_params(mass=1.0, coupling=1.0, half_separation=1.0)
        ga, gb = ground_state(a), ground_state(b)
        assert ga.xi == gb.xi
        assert ga.h_factor == gb.h_factor
        ratio = (a.mass * a.coupling**2) / (b.mass * b.coupling**2)
        assert ga.energy == pytest.approx(gb.energy * ratio, rel=1e-14)
        ea, eb = excited_state(a), excited_state(b)
        assert ea.xi == eb.xi
        assert ea.h_factor == eb.h_factor

    @pytest.mark.parametrize("solve", [ground_state, excited_state])
    @pytest.mark.parametrize(
        "fields", [dict(mass=1e10, half_separation=1e300), dict(mass=1e-10, half_separation=1e-320)]
    )
    def test_strength_beyond_double_range_raises(self, solve, fields):
        # c = z0 * mass * coupling / hbar^2 overflows to inf or underflows to 0
        with pytest.raises(OverflowError, match="double-precision range"):
            solve(make_params(**fields))

    @pytest.mark.parametrize("solve", [ground_state, excited_state])
    def test_energy_beyond_double_range_raises(self, solve):
        # xi = c = 2.5e159 solves both levels, but xi^2 overflows the energy
        with pytest.raises(OverflowError, match="double-precision range"):
            solve(make_params(coupling=1e160))
