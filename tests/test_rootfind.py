import math

import pytest
from hypothesis import given, strategies as st

from defectcyl.rootfind import Tolerances, refine_with_derivative
from defectcyl.specfun import bessel_j, bessel_j_derivative

import oracles

SQRT2 = 1.4142135623730951


TIGHT = Tolerances(abs_x=1e-13, abs_f=1e-13)


class TestRefineWithDerivative:
    def test_sqrt_two(self):
        result = refine_with_derivative(
            lambda x: x * x - 2.0, lambda x: 2.0 * x, 1.5, (1.0, 2.0), TIGHT
        )
        assert result.root == pytest.approx(SQRT2, abs=1e-13)

    def test_default_tolerance_meets_residual_contract(self):
        result = refine_with_derivative(lambda x: x * x - 2.0, lambda x: 2.0 * x, 1.5, (1.0, 2.0))
        assert result.residual <= 1e-10 or result.bracket[1] - result.bracket[0] <= 1e-12

    def test_sine_root_at_pi(self):
        result = refine_with_derivative(math.sin, math.cos, 3.0, (3.0, 3.5), TIGHT)
        assert result.root == pytest.approx(math.pi, abs=1e-14)

    def test_first_bessel_zero_matches_sign_scan_oracle(self):
        expected = oracles.j0_first_zero_sign_scan()
        result = refine_with_derivative(
            lambda q: bessel_j(0.0, q).value,
            lambda q: bessel_j_derivative(0.0, q),
            2.4,
            (2.0, 3.0),
            TIGHT,
        )
        assert result.root == pytest.approx(expected, abs=1e-12)
        assert result.root == pytest.approx(2.404825557695773, abs=1e-12)

    def test_converges_faster_than_bisection(self):
        newton = refine_with_derivative(
            lambda x: x * x - 2.0, lambda x: 2.0 * x, 1.5, (1.0, 2.0), TIGHT
        )
        # plain bisection halves [1, 2] 44 times before its width reaches 1e-13
        halvings = math.ceil(math.log2((2.0 - 1.0) / TIGHT.abs_x))
        assert halvings == 44
        assert newton.iterations < halvings

    def test_seed_outside_guard(self):
        with pytest.raises(ValueError):
            refine_with_derivative(lambda x: x, lambda x: 1.0, 5.0, (-1.0, 1.0))

    def test_no_sign_change(self):
        with pytest.raises(ValueError, match="no sign change"):
            refine_with_derivative(lambda x: x * x + 1.0, lambda x: 2.0 * x, 0.5, (0.0, 1.0))

    def test_exact_seed_returns_immediately(self):
        result = refine_with_derivative(lambda x: x - 1.5, lambda x: 1.0, 1.5, (1.0, 2.0))
        assert result.root == 1.5
        assert result.residual == 0.0

    def test_determinism(self):
        run = lambda: refine_with_derivative(math.sin, math.cos, 3.1, (3.0, 3.5))
        assert run() == run()

    def test_bracket_contains_root(self):
        result = refine_with_derivative(math.sin, math.cos, 3.0, (3.0, 3.5))
        lo, hi = result.bracket
        assert lo <= result.root <= hi
        assert hi - lo <= 0.5

    def test_flat_derivative_falls_back_to_bisection(self):
        # derivative reported as zero everywhere: Newton is never usable
        result = refine_with_derivative(lambda x: x - 3.0, lambda x: 0.0, 2.0, (0.0, 10.0))
        assert result.root == pytest.approx(3.0, abs=1e-9)

    def test_evaluations_confined_to_guard(self):
        seen = []

        def f(x):
            seen.append(x)
            return math.sin(x)

        refine_with_derivative(f, math.cos, 3.0, (3.0, 3.5))
        assert seen and all(3.0 <= x <= 3.5 for x in seen)

    @given(st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
    def test_cubic_roots(self, root):
        f = lambda x: (x - root) ** 3 + (x - root)
        df = lambda x: 3.0 * (x - root) ** 2 + 1.0
        result = refine_with_derivative(f, df, root - 0.9, (root - 1.0, root + 1.3))
        assert abs(result.root - root) < 1e-9
