import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from defectcyl import (
    PhysicalParams,
    QuantumNumbers,
    bessel_order,
    coupling_strength_parameter,
    validate,
)


def make_params(**overrides):
    base = dict(mass=0.5, coupling=1.0, half_separation=1.0, deficit=1.0, radius=5.0, hbar=1.0)
    base.update(overrides)
    return PhysicalParams(**base)


class TestValidate:
    def test_all_positive_returns_same_object(self):
        p = make_params()
        assert validate(p) is p

    def test_negative_mass(self):
        with pytest.raises(ValueError, match="mass must be positive"):
            validate(make_params(mass=-1.0))

    def test_zero_deficit(self):
        with pytest.raises(ValueError, match="deficit must be positive"):
            validate(make_params(deficit=0.0))

    @pytest.mark.parametrize("field", ["mass", "coupling", "half_separation", "deficit", "radius", "hbar"])
    def test_each_field_checked(self, field):
        with pytest.raises(ValueError, match=f"{field} must be positive"):
            validate(make_params(**{field: 0.0}))

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="radius must be finite"):
            validate(make_params(radius=float("nan")))

    def test_first_violation_reported(self):
        # mass precedes radius in field order
        with pytest.raises(ValueError, match="mass"):
            validate(make_params(mass=-1.0, radius=-1.0))

    @pytest.mark.parametrize("field", ["mass", "coupling", "half_separation", "deficit", "radius", "hbar"])
    def test_bool_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be a number"):
            make_params(**{field: True})


class TestConstructionChecks:
    def test_invalid_params_cannot_be_built(self):
        with pytest.raises(ValueError, match="mass must be positive"):
            PhysicalParams(mass=-1.0, coupling=1.0, half_separation=1.0, deficit=1.0, radius=5.0)

    def test_replace_checks_the_new_value(self):
        p = make_params()
        with pytest.raises(ValueError, match="radius must be positive"):
            dataclasses.replace(p, radius=0.0)


class TestQuantumNumbers:
    def test_accepts_non_negative(self):
        qn = QuantumNumbers(2, 3)
        assert (qn.n, qn.m) == (2, 3)

    @pytest.mark.parametrize("n,m", [(-1, 0), (0, -1)])
    def test_rejects_negative(self, n, m):
        with pytest.raises(ValueError):
            QuantumNumbers(n, m)


class TestBesselOrder:
    def test_zero_numerator(self):
        assert bessel_order(0, 0.7) == 0.0

    def test_integer_order_without_defect(self):
        assert bessel_order(2, 1.0) == 2.0

    def test_half_deficit_doubles_order(self):
        assert bessel_order(1, 0.5) == 2.0

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            bessel_order(-1, 1.0)

    def test_rejects_nonpositive_deficit(self):
        with pytest.raises(ValueError):
            bessel_order(1, 0.0)

    @given(st.integers(min_value=0, max_value=500))
    def test_defect_free_reduction(self, n):
        assert bessel_order(n, 1.0) == n

    @given(
        st.integers(min_value=0, max_value=100),
        st.floats(min_value=0.05, max_value=20.0, allow_nan=False),
    )
    def test_homogeneous_in_n(self, n, deficit):
        assert bessel_order(n, deficit) == pytest.approx(n * bessel_order(1, deficit), rel=1e-15)


class TestCouplingStrength:
    @pytest.mark.parametrize(
        "mass,coupling,z0,expected",
        [(0.5, 2.0, 1.0, 1.0), (0.5, 1.0, 1.0, 0.5), (1.0, 1.0, 2.0, 2.0)],
    )
    def test_direct_product(self, mass, coupling, z0, expected):
        p = make_params(mass=mass, coupling=coupling, half_separation=z0)
        assert coupling_strength_parameter(p) == pytest.approx(expected, rel=1e-15)

    def test_invariant_under_joint_rescaling(self):
        # different raw parameters, identical dimensionless strength
        a = make_params(mass=0.5, coupling=2.0, half_separation=1.0)
        b = make_params(mass=1.0, coupling=1.0, half_separation=1.0)
        assert coupling_strength_parameter(a) == coupling_strength_parameter(b)

    def test_hbar_scaling(self):
        p = make_params(hbar=2.0)
        assert coupling_strength_parameter(p) == pytest.approx(0.5 / 4.0, rel=1e-15)

    def test_requires_valid_params(self):
        with pytest.raises(ValueError):
            coupling_strength_parameter(make_params(mass=-1.0))
