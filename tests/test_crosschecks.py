"""Cross-validation against scipy, as an oracle route independent of both
the implementation and the hand-rolled series oracles."""

import math

import numpy as np
import pytest
from scipy import optimize, special

from defectcyl import (
    PhysicalParams,
    ZeroApproxMode,
    bessel_j,
    bessel_j_derivative,
    bessel_zero,
    coupling_strength_parameter,
    excited_state,
    ground_state,
)


def test_ln_gamma_against_scipy():
    # J_nu(2) is led by 1 / Gamma(nu + 1); scipy's jv(nu, 2) underflows past nu ~ 160
    nus = np.concatenate([np.linspace(0.02, 2, 100), np.linspace(2, 150, 149)])
    mine = np.array([bessel_j(float(nu), 2.0).value for nu in nus])
    ref = special.jv(nus, 2.0)
    assert np.all(np.abs(mine - ref) <= 1e-12 * np.abs(ref))


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.3, 4.0, 6.0, 8.0])
def test_bessel_j_against_scipy(nu):
    for q in np.linspace(0.0, 50.0, 251):
        mine = bessel_j(nu, float(q)).value
        ref = special.jv(nu, q)
        assert abs(mine - ref) <= 1e-9


@pytest.mark.parametrize("nu", [0.0, 1.0, 3.0, 6.0])
def test_exact_zeros_against_scipy(nu):
    ref = special.jn_zeros(int(nu), 11)
    for m in range(11):
        assert bessel_zero(nu, m) == pytest.approx(ref[m], abs=1e-9)


def test_deep_zero_against_scipy():
    assert bessel_zero(0.0, 30) == pytest.approx(special.jn_zeros(0, 31)[-1], abs=1e-9)


def test_fractional_order_zeros_against_brentq():
    for nu in (0.5, 1.5, 2.7, 5.25, 12.7, 18.3, 24.6, 27.8, 30.0):
        for m in range(5):
            mine = bessel_zero(nu, m)
            ref = optimize.brentq(
                lambda q: special.jv(nu, q), mine - 0.5, mine + 0.5, xtol=1e-13
            )
            assert mine == pytest.approx(ref, abs=1e-9)


def test_derivative_against_scipy():
    for nu in (0.0, 0.5, 2.3, 5.0):
        for q in np.linspace(0.2, 30.0, 90):
            assert bessel_j_derivative(nu, float(q)) == pytest.approx(
                float(special.jvp(nu, q)), abs=1e-9
            )


def test_well_inversions_against_brentq():
    for z0 in (0.2, 1.0, 2.0, 9.0):
        p = PhysicalParams(mass=0.5, coupling=1.0, half_separation=z0, deficit=1.0, radius=5.0)
        c = coupling_strength_parameter(p)
        ref = optimize.brentq(
            lambda t: t / (1.0 + math.exp(-2.0 * t)) - c, c / 2 if c < 1 else c, 2 * c + 1e-12, xtol=1e-13
        )
        assert ground_state(p).xi == pytest.approx(ref, abs=1e-10)
        if c > 0.5 + 1e-9:
            ref = optimize.brentq(
                lambda t: t / -math.expm1(-2.0 * t) - c, max(1e-12, c - 0.5), c, xtol=1e-13
            )
            assert excited_state(p).xi == pytest.approx(ref, abs=1e-10)


def test_mcmahon_estimate_against_scipy_zeros():
    # independent confirmation of the audited error envelope
    worst = 0.0
    for n in range(7):
        ref = special.jn_zeros(n, 1)[0]
        estimate = bessel_zero(float(n), 0, ZeroApproxMode.MCMAHON)
        worst = max(worst, abs(estimate - ref) / ref)
    assert worst == pytest.approx(0.18567, abs=1e-4)
