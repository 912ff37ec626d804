import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import jv

from defectcyl import (
    EvalMethod,
    ZeroApproxMode,
    bessel_j,
    bessel_j_derivative,
    bessel_zero,
    zero_approx_table,
)
from defectcyl import specfun
from defectcyl.rootfind import Tolerances, refine_with_derivative
from defectcyl.specfun import (
    _asymptotic_value,
    _series_value,
    _sharing_zero_walks,
    _ZeroWalk,
)

import oracles

J0_FIRST_ZERO = 2.404825557695773
J0_SECOND_ZERO = 5.520078110286311
J1_FIRST_ZERO = 3.8317059702075125
J1_FIRST_MAX = 1.8411837813406593


class TestLnGamma:
    """The series' leading term (q/2)^nu / Gamma(nu + 1), taken through math.lgamma."""

    def test_gamma_of_one(self):
        assert bessel_j(0.0, 1e-9).value == 1.0

    def test_factorial_point(self):
        q = 1e-7
        assert bessel_j(4.0, q).value / (q / 2.0) ** 4 == pytest.approx(1.0 / 24.0, rel=1e-13)

    def test_half(self):
        q = 1e-7
        leading = math.sqrt(q / 2.0) / (0.5 * math.sqrt(math.pi))
        assert bessel_j(0.5, q).value == pytest.approx(leading, rel=1e-13)

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
    def test_domain_error(self, x):
        # Gamma(nu + 1) at x = nu + 1 <= 0 belongs to a negative order, which is refused
        with pytest.raises(ValueError):
            bessel_j(x - 1.0, 1.0)

    def test_against_stdlib_grid(self):
        # at q = 2 the series is sum((-1)^j / (j! Gamma(j + nu + 1))), led by 1 / Gamma(nu + 1)
        for k in range(201):
            nu = 0.25 * k
            assert bessel_j(nu, 2.0).value == pytest.approx(float(mpmath.besselj(nu, 2)), rel=1e-13)


class TestBesselJ:
    def test_order_zero_at_origin(self):
        ev = bessel_j(0.0, 0.0)
        assert ev.value == 1.0
        assert ev.method is EvalMethod.SERIES

    def test_positive_order_at_origin(self):
        assert bessel_j(1.5, 0.0).value == 0.0

    def test_vanishes_at_first_zero(self):
        assert abs(bessel_j(0.0, J0_FIRST_ZERO).value) < 1e-10

    def test_half_order_zero_at_pi(self):
        # J_{1/2}(q) is proportional to sin(q), so q = pi is a zero
        assert abs(bessel_j(0.5, math.pi).value) < 1e-10

    def test_half_order_closed_form(self):
        for k in range(200):
            q = 0.1 + 0.1 * k
            mine = bessel_j(0.5, q).value
            ref = oracles.spherical_half_order(q)
            assert mine == pytest.approx(ref, rel=1e-10)

    def test_series_matches_independent_series(self):
        for nu in (0.0, 0.4, 1.0, 2.3, 5.0):
            for q in (0.05, 0.7, 2.0, 6.0, 11.0):
                assert bessel_j(nu, q).value == pytest.approx(
                    oracles.j_series(nu, q), abs=1e-12, rel=1e-10
                )

    def test_method_tag_and_term_count(self):
        series = bessel_j(1.0, 5.0)
        assert series.method is EvalMethod.SERIES and series.term_count >= 1
        asym = bessel_j(1.0, 30.0)
        assert asym.method is EvalMethod.ASYMPTOTIC and asym.term_count == 0

    def test_branch_agreement_at_switch(self):
        for nu in (0.0, 0.5, 1.0, 2.7):
            switch = max(12.0, nu)
            for q in np.linspace(switch - 0.5, switch + 0.5, 11):
                s, _, _ = _series_value(nu, float(q))
                a, _ = _asymptotic_value(nu, float(q))
                assert abs(s - a) <= 1e-5

    def test_small_argument_power_law(self):
        for nu in (0.4, 1.0, 2.3):
            for q in (1e-3, 1e-5):
                leading = (q / 2.0) ** nu / math.gamma(nu + 1.0)
                assert bessel_j(nu, q).value / leading == pytest.approx(1.0, abs=1e-5)

    @pytest.mark.parametrize("nu,q", [(-0.5, 1.0), (1.0, -1.0), (float("nan"), 1.0), (1.0, float("inf"))])
    def test_domain_errors(self, nu, q):
        with pytest.raises(ValueError):
            bessel_j(nu, q)

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            bessel_j(3000.0, 3008.0)

    @given(
        st.floats(min_value=0.0, max_value=6.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=25.0, allow_nan=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_bounded_magnitude(self, nu, q):
        # |J_nu| never exceeds 1 for nu >= 0
        assert abs(bessel_j(nu, q).value) <= 1.0 + 1e-9


def _allowed(nu, q):
    """|J_nu(q) - oracle| bound for nu <= 30. Above the series switch each
    branch runs only where its error estimate is within 1e-12, and orders <= 8
    are that close everywhere (dense grids measured up to 1.15e-12); below the
    switch the series loses digits as the order grows (1.65e-11 near
    nu = q = 30)."""
    return 1.5e-12 if nu <= 8.0 or q > max(12.0, nu) else 2e-11


def _oracle_grid():
    rng = random.Random(2018)
    orders = [float(k) for k in range(31)] + [k + 0.37 for k in range(30)] + [29.9, 30.0]
    grid = [(nu, 0.25 * i) for nu in orders for i in range(601)]
    grid += [(rng.uniform(0.0, 30.0), rng.uniform(0.0, 150.0)) for _ in range(5000)]
    return grid


def _branch_taken(monkeypatch, nu, q):
    """The bessel_j branch that produced J_nu(q), and the value."""
    taken = []
    series, recurrence = specfun._series_value, specfun._upward_recurrence

    def spy_series(*args, **kwargs):
        result = series(*args, **kwargs)
        if result is not None:
            taken.append("series within its estimate" if "beaten_at" in kwargs else "series")
        return result

    def spy_recurrence(*args):
        taken.append("recurrence")
        return recurrence(*args)

    monkeypatch.setattr(specfun, "_series_value", spy_series)
    monkeypatch.setattr(specfun, "_upward_recurrence", spy_recurrence)
    ev = bessel_j(nu, q)
    return taken or ["expansion at nu"], ev


class TestBesselOracle:
    def test_scipy_grid_up_to_order_30(self):
        grid = _oracle_grid()
        ref = jv(np.array([nu for nu, _ in grid]), np.array([q for _, q in grid]))
        misses = [
            (nu, q, err)
            for (nu, q), r in zip(grid, ref)
            if not (err := abs(bessel_j(nu, q).value - r)) <= _allowed(nu, q)
        ]
        assert misses == []

    @pytest.mark.parametrize("nu", [0.0, 0.5, 3.3, 7.9, 11.2, 12.0, 16.4, 22.7, 29.5, 30.0])
    def test_mpmath_at_branch_boundaries(self, nu):
        switch = max(12.0, nu)
        for q in (math.nextafter(switch, 0.0), switch, math.nextafter(switch, math.inf), nu + 8.0):
            exact = float(mpmath.besselj(nu, mpmath.mpf(q)))
            assert abs(bessel_j(nu, q).value - exact) <= _allowed(nu, q)

    @pytest.mark.parametrize(
        "nu,q,branch",
        [
            (5.0, 10.0, "series"),
            (20.0, 21.0, "series within its estimate"),
            (1.0, 60.0, "expansion at nu"),
            (20.0, 40.0, "recurrence"),
            (20.0, 24.0, "recurrence"),  # the series misses its target here
        ],
    )
    def test_each_branch_is_reached(self, monkeypatch, nu, q, branch):
        taken, ev = _branch_taken(monkeypatch, nu, q)
        assert taken == [branch]
        assert (ev.method is EvalMethod.SERIES) == branch.startswith("series")
        assert abs(ev.value - float(mpmath.besselj(nu, q))) <= 1e-12

    def test_recurrence_is_bounded(self):
        steps = specfun._RECURRENCE_MAX_STEPS
        nu = steps + 1.0  # the largest order the recurrence takes
        assert abs(bessel_j(nu, 2.0 * nu).value - jv(nu, 2.0 * nu)) <= 1e-12
        with pytest.raises(OverflowError, match="order 10002.0 "):
            bessel_j(nu + 1.0, 2.0 * nu)

    def test_huge_order_raises_promptly(self, monkeypatch):
        steps = []
        monkeypatch.setattr(specfun, "_asymptotic_value", lambda *a: steps.append(a) or (0.0, math.inf))
        with pytest.raises(OverflowError, match="recurrence steps"):
            bessel_j(1e15, 2e15)
        assert len(steps) == 1  # only the expansion at order nu was tried


class TestBesselDerivative:
    def test_leading_order_near_origin(self):
        # J0'(q) = -J1(q) ~ -q/2
        assert bessel_j_derivative(0.0, 0.001) == pytest.approx(-0.0005, rel=1e-5)

    def test_value_at_first_zero(self):
        assert bessel_j_derivative(0.0, J0_FIRST_ZERO) == pytest.approx(
            -0.5191474972894669, abs=1e-10
        )
        fd = oracles.central_difference(lambda t: oracles.j_series(0.0, t), J0_FIRST_ZERO)
        assert bessel_j_derivative(0.0, J0_FIRST_ZERO) == pytest.approx(fd, abs=1e-8)

    def test_vanishes_at_first_maximum(self):
        assert abs(bessel_j_derivative(1.0, J1_FIRST_MAX)) < 1e-8

    def test_matches_central_difference(self):
        for nu in (0.0, 0.5, 1.0, 2.7, 5.0):
            for q in np.linspace(0.3, 20.0, 41):
                fd = oracles.central_difference(lambda t, n=nu: bessel_j(n, t).value, float(q))
                assert abs(bessel_j_derivative(nu, float(q)) - fd) <= 1e-5

    def test_domain_error_at_origin(self):
        with pytest.raises(ValueError):
            bessel_j_derivative(0.0, 0.0)


class TestBesselZero:
    def test_three_decimal_anchors(self):
        assert round(bessel_zero(0.0, 0), 3) == 2.405
        assert round(bessel_zero(1.0, 0), 3) == 3.832
        assert round(bessel_zero(2.0, 0), 3) == 5.136

    def test_first_zero_matches_sign_scan_oracle(self):
        assert bessel_zero(0.0, 0) == pytest.approx(oracles.j0_first_zero_sign_scan(), abs=1e-10)

    def test_second_zero_matches_scan_oracle(self):
        assert bessel_zero(0.0, 1) == pytest.approx(oracles.j_zero_scan(0.0, 3.0, 7.0), abs=1e-10)
        assert bessel_zero(0.0, 1) == pytest.approx(J0_SECOND_ZERO, abs=1e-10)

    def test_mcmahon_closed_form(self):
        assert bessel_zero(3.0, 0, ZeroApproxMode.MCMAHON) == pytest.approx(2.25 * math.pi, rel=1e-15)
        assert bessel_zero(1.0, 4, ZeroApproxMode.MCMAHON) == math.pi * (0.5 + 4 + 0.75)

    def test_anchored_mode_starts_at_exact_first_zero(self):
        for nu in (0.0, 0.8, 2.0):
            first = bessel_zero(nu, 0, ZeroApproxMode.EXACT)
            assert bessel_zero(nu, 0, ZeroApproxMode.ANCHORED) == first
            assert bessel_zero(nu, 3, ZeroApproxMode.ANCHORED) == pytest.approx(
                first + 3 * math.pi, rel=1e-15
            )

    def test_residuals_below_tolerance(self):
        for nu in np.arange(0.0, 5.01, 0.5):
            for m in range(9):
                q = bessel_zero(float(nu), m)
                assert abs(bessel_j(float(nu), q).value) <= 1e-10

    def test_strictly_increasing_in_m(self):
        for nu in (0.0, 0.5, 2.0, 4.5):
            zeros = [bessel_zero(nu, m) for m in range(10)]
            assert all(a < b for a, b in zip(zeros, zeros[1:]))

    def test_interlacing(self):
        for nu in np.arange(0.0, 5.01, 0.5):
            for m in range(9):
                assert (
                    bessel_zero(float(nu), m)
                    < bessel_zero(float(nu) + 1.0, m)
                    < bessel_zero(float(nu), m + 1)
                )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bessel_zero(-1.0, 0)
        with pytest.raises(ValueError):
            bessel_zero(1.0, -1)


class TestZeroWalk:
    @pytest.mark.parametrize("nu", [0.0, 0.8, 2.5, 7.75])
    def test_scrambled_requests_in_one_scope_match_standalone_zeros(self, nu):
        order = (5, 2, 7, 0)
        standalone = [bessel_zero(nu, m) for m in order]
        with _sharing_zero_walks():
            shared = [bessel_zero(nu, m) for m in order]
        assert shared == standalone

    @pytest.mark.parametrize("nu", [0.0, 0.8, 2.5, 7.75])
    def test_matches_a_fresh_walk_and_plain_newton_polish(self, nu):
        walk = _ZeroWalk(nu)
        for m in range(12):
            assert walk.zero(m) == _reference_zero(nu, m)

    def test_walk_resumes_after_a_failed_evaluation(self, monkeypatch):
        # Fail each J_nu evaluation of zero(5) in turn, in the walk and in the polish.
        clean = _ZeroWalk(2.5)
        real = specfun.bessel_j
        calls, fail_at = [0], [0]

        def failing_once(nu, q):
            calls[0] += 1
            if calls[0] == fail_at[0]:
                raise OverflowError("injected")
            return real(nu, q)

        monkeypatch.setattr(specfun, "bessel_j", failing_once)
        expected = clean.zero(5)
        for k in range(1, calls[0] + 1):
            walk = _ZeroWalk(2.5)
            calls[0], fail_at[0] = 0, k
            with pytest.raises(OverflowError, match="injected"):
                walk.zero(5)
            assert walk.zero(5) == expected
            assert walk.brackets == clean.brackets


def _reference_zero(nu, m):
    """The (m+1)-th zero by a fresh pi/4 walk and a plain Newton polish."""
    x = max(nu, 1e-3)
    f_prev = bessel_j(nu, x).value
    crossings = 0
    while True:
        x_next = x + math.pi / 4.0
        f_next = bessel_j(nu, x_next).value
        if (f_next > 0) != (f_prev > 0):
            if crossings == m:
                return refine_with_derivative(
                    f=lambda t: bessel_j(nu, t).value,
                    df=lambda t: bessel_j_derivative(nu, t),
                    seed=0.5 * (x + x_next),
                    guard=(x, x_next),
                    tol=Tolerances(abs_x=1e-13, abs_f=1e-12, max_iter=200),
                ).root
            crossings += 1
        x, f_prev = x_next, f_next


class TestZeroApproxTable:
    def test_exact_column_matches_bessel_zero(self):
        for nu, m, exact, _, _ in zero_approx_table(3.0, 8, 0.5):
            assert exact == bessel_zero(nu, m)

    def test_shape_and_grid(self):
        rows = zero_approx_table(2.0, 3, 0.5)
        assert len(rows) == 5 * 4
        assert rows[0][:2] == (0.0, 0)
        assert rows[-1][:2] == (2.0, 3)

    def test_determinism(self):
        assert zero_approx_table(1.0, 2) == zero_approx_table(1.0, 2)

    def test_grid_size_is_bounded(self):
        # 1001 orders x 1000 zeros is just over the 10**6-row limit
        with pytest.raises(ValueError, match="nu_step"):
            zero_approx_table(1000.0, 999, 1.0)
        with pytest.raises(ValueError, match="nu_step"):
            zero_approx_table(1e10, 0, 1e-300)

    def test_measured_error_envelope(self):
        # The closed-form estimate is weakest at the first zero of the
        # largest order: 18.57% there, 2.02% at order zero, and under 1% by
        # m = 10 everywhere on this grid.
        rows = {(nu, m): rel for nu, m, _, _, rel in zero_approx_table(6.0, 10, 0.5)}
        assert rows[(0.0, 0)] == pytest.approx(0.020222, abs=1e-4)
        assert rows[(6.0, 0)] == pytest.approx(0.185673, abs=1e-4)
        assert rows[(6.0, 5)] == pytest.approx(0.024936, abs=1e-4)
        assert max(rows.values()) == rows[(6.0, 0)]
        assert all(rel < 0.01 for (nu, m), rel in rows.items() if m == 10)

    def test_error_decreases_in_m_above_noise(self):
        # at half-integer orders the estimate is exact and the residual is
        # rounding noise, hence the floor
        rows = zero_approx_table(6.0, 10, 0.5)
        by_nu: dict[float, list[float]] = {}
        for nu, m, _, _, rel in rows:
            by_nu.setdefault(nu, []).append(max(rel, 1e-12))
        for errs in by_nu.values():
            assert all(b <= a for a, b in zip(errs, errs[1:]))
