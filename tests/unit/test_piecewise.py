"""Unit tests for the piecewise-polynomial algebra."""

import numpy as np
import pytest

from repro.core.errors import EvaluationError
from repro.core.piecewise import PiecewisePolynomial


class TestConstruction:
    def test_constant(self):
        f = PiecewisePolynomial.constant(3.5)
        assert f(0.0) == 3.5
        assert f(-1e9) == 3.5
        assert f(1e9) == 3.5

    def test_zero(self):
        f = PiecewisePolynomial.zero()
        assert f(17.0) == 0.0

    def test_step(self):
        f = PiecewisePolynomial.step(2.0, 5.0)
        assert f(1.999) == 0.0
        assert f(2.0) == 5.0  # right-continuous
        assert f(3.0) == 5.0

    def test_box(self):
        f = PiecewisePolynomial.box(1.0, 3.0, 0.5)
        assert f(0.5) == 0.0
        assert f(1.0) == 0.5
        assert f(2.9) == 0.5
        assert f(3.0) == 0.0

    def test_ramp(self):
        f = PiecewisePolynomial.ramp(0.0, 4.0)
        assert f(-1.0) == 0.0
        assert f(2.0) == pytest.approx(0.5)
        assert f(4.0) == 1.0
        assert f(10.0) == 1.0

    def test_box_requires_positive_width(self):
        with pytest.raises(ValueError):
            PiecewisePolynomial.box(3.0, 3.0, 1.0)

    def test_breakpoints_must_increase(self):
        with pytest.raises(ValueError):
            PiecewisePolynomial([0.0, 0.0], [[1.0]])

    def test_segment_count_must_match(self):
        with pytest.raises(ValueError):
            PiecewisePolynomial([0.0, 1.0], [[1.0], [2.0]])

    def test_nonconstant_without_breakpoints_rejected(self):
        with pytest.raises(ValueError):
            PiecewisePolynomial([], [], left=0.0, right=1.0)


class TestEvaluation:
    def test_vectorized_call(self):
        f = PiecewisePolynomial.box(0.0, 1.0, 2.0)
        out = f(np.array([-0.5, 0.25, 0.75, 1.5]))
        assert np.allclose(out, [0.0, 2.0, 2.0, 0.0])

    def test_scalar_call_returns_float(self):
        f = PiecewisePolynomial.ramp(0.0, 1.0)
        assert isinstance(f(0.5), float)

    def test_local_polynomial_segments(self):
        # f(x) = (x - 10)^2 on [10, 12): coefficients in local coords.
        f = PiecewisePolynomial([10.0, 12.0], [[0.0, 0.0, 1.0]])
        assert f(10.0) == 0.0
        assert f(11.0) == pytest.approx(1.0)
        assert f(11.5) == pytest.approx(2.25)


class TestArithmetic:
    def test_addition_pointwise(self):
        f = PiecewisePolynomial.box(0.0, 2.0, 1.0)
        g = PiecewisePolynomial.box(1.0, 3.0, 2.0)
        h = f + g
        xs = np.array([-0.5, 0.5, 1.5, 2.5, 3.5])
        assert np.allclose(h(xs), f(xs) + g(xs))

    def test_multiplication_pointwise(self):
        f = PiecewisePolynomial.ramp(0.0, 2.0)
        g = PiecewisePolynomial.ramp(1.0, 3.0)
        h = f * g
        xs = np.linspace(-1, 4, 37)
        assert np.allclose(h(xs), f(xs) * g(xs))

    def test_scalar_operations(self):
        f = PiecewisePolynomial.box(0.0, 1.0, 3.0)
        assert (f * 2.0)(0.5) == 6.0
        assert (2.0 * f)(0.5) == 6.0
        assert (f + 1.0)(0.5) == 4.0

    def test_product_of_steps(self):
        f = PiecewisePolynomial.step(1.0, 1.0)
        g = PiecewisePolynomial.step(2.0, 0.5)
        h = f * g
        assert h(0.5) == 0.0
        assert h(1.5) == 0.0
        assert h(2.5) == 0.5


class TestCalculus:
    def test_antiderivative_of_box_is_ramp(self):
        f = PiecewisePolynomial.box(0.0, 2.0, 0.5)
        big_f = f.antiderivative()
        assert big_f(-1.0) == 0.0
        assert big_f(1.0) == pytest.approx(0.5)
        assert big_f(2.0) == pytest.approx(1.0)
        assert big_f(5.0) == pytest.approx(1.0)

    def test_antiderivative_requires_compact_support(self):
        f = PiecewisePolynomial.constant(1.0)
        with pytest.raises(EvaluationError):
            f.antiderivative()
        g = PiecewisePolynomial.step(0.0, 1.0)
        with pytest.raises(EvaluationError):
            g.antiderivative()

    def test_integral(self):
        f = PiecewisePolynomial.box(0.0, 4.0, 0.25)
        assert f.integral() == pytest.approx(1.0)

    def test_nested_integral_chain(self):
        # Pr(X > Y) for X, Y ~ U[0,1] must be 1/2 via f_X * F_Y.
        pdf = PiecewisePolynomial.box(0.0, 1.0, 1.0)
        cdf = pdf.antiderivative()
        assert (pdf * cdf).integral() == pytest.approx(0.5)


class TestIntrospection:
    def test_degree(self):
        # Significant coefficients are kept: a quadratic stays degree 2.
        f = PiecewisePolynomial([0.0, 1.0], [[0.0, 1.0, 2.0]])
        assert [c.size - 1 for c in f.coeffs] == [2]

    def test_degree_trims_negligible_coefficients(self):
        f = PiecewisePolynomial([0.0, 1.0], [[1.0, 1e-20]])
        assert [c.size - 1 for c in f.coeffs] == [0]

    @pytest.mark.parametrize(
        "value,expected",
        [(2.5, 2.5), (-1e-300, -1e-300), (np.inf, np.inf), (-0.0, 0.0),
         (0.0, 0.0), (np.nan, 0.0)],
    )
    def test_constant_segment_trim(self, value, expected):
        # NaN and -0.0 constant segments become +0.0, as in the
        # multi-coefficient path; anything else is kept bit for bit.
        seg = PiecewisePolynomial([0.0, 1.0], [[value]]).coeffs[0]
        assert seg.shape == (1,)
        assert seg[0] == expected
        assert not np.signbit(seg[0]) or expected < 0
        wide = PiecewisePolynomial([0.0, 1.0], [[value, 0.0]]).coeffs[0]
        assert np.array_equal(seg, wide[:1])
