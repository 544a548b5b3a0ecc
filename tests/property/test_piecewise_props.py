"""Property-based tests for the piecewise-polynomial algebra."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.piecewise import PiecewisePolynomial


@st.composite
def piecewise_functions(draw):
    """Random compactly supported piecewise polynomials."""
    n_breaks = draw(st.integers(min_value=2, max_value=5))
    raw = draw(
        st.lists(
            st.floats(min_value=-10.0, max_value=10.0),
            min_size=n_breaks,
            max_size=n_breaks,
            unique=True,
        )
    )
    breaks = sorted(raw)
    coeffs = []
    for _ in range(len(breaks) - 1):
        degree = draw(st.integers(min_value=0, max_value=3))
        coeffs.append(
            draw(
                st.lists(
                    st.floats(min_value=-3.0, max_value=3.0),
                    min_size=degree + 1,
                    max_size=degree + 1,
                )
            )
        )
    return PiecewisePolynomial(breaks, coeffs)


GRID = np.linspace(-12.0, 12.0, 97)


@given(piecewise_functions(), piecewise_functions())
@settings(max_examples=60, deadline=None)
def test_addition_is_pointwise(f, g):
    h = f + g
    assert np.allclose(h(GRID), f(GRID) + g(GRID), atol=1e-8)


@given(piecewise_functions(), piecewise_functions())
@settings(max_examples=60, deadline=None)
def test_multiplication_is_pointwise(f, g):
    h = f * g
    assert np.allclose(h(GRID), f(GRID) * g(GRID), atol=1e-6)


@given(piecewise_functions(), st.floats(min_value=-5.0, max_value=5.0))
@settings(max_examples=60, deadline=None)
def test_scalar_multiplication(f, c):
    assert np.allclose((f * c)(GRID), c * f(GRID), atol=1e-8)


@given(piecewise_functions())
@settings(max_examples=60, deadline=None)
def test_antiderivative_differentiates_back(f):
    big_f = f.antiderivative()
    # Finite-difference derivative of F matches f away from breakpoints;
    # skip segments too narrow for the central difference to stay inside.
    eps = 1e-6
    widths = np.diff(f.breakpoints)
    mids = 0.5 * (f.breakpoints[:-1] + f.breakpoints[1:])
    xs = mids[widths > 1e-3]
    if xs.size == 0:
        return
    numeric = (big_f(xs + eps) - big_f(xs - eps)) / (2 * eps)
    assert np.allclose(numeric, f(xs), atol=1e-3, rtol=1e-3)
