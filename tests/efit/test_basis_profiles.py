"""Tests of the polynomial bases and fitted profile evaluation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.efit.basis import PolynomialBasis
from repro.efit.profiles import ProfileCoefficients
from repro.errors import FittingError

coeff_arrays = st.lists(
    st.floats(min_value=-10, max_value=10), min_size=1, max_size=5
).map(np.array)


class TestBasis:
    def test_design_matrix_shape(self):
        b = PolynomialBasis(3)
        x = np.linspace(0, 1, 11)
        assert b.design_matrix(x).shape == (11, 3)

    def test_monomials(self):
        b = PolynomialBasis(4)
        x = np.array([0.5])
        assert np.allclose(b.design_matrix(x)[0], [1.0, 0.5, 0.25, 0.125])

    def test_edge_constrained_vanishes_at_one(self):
        b = PolynomialBasis(3, vanish_at_edge=True)
        assert np.allclose(b.design_matrix(np.array([1.0])), 0.0)

    def test_evaluate_matches_polyval(self, rng):
        b = PolynomialBasis(4)
        c = rng.normal(size=4)
        x = np.linspace(0, 1, 9)
        assert np.allclose(b.evaluate(c, x), np.polyval(c[::-1], x))

    def test_needs_one_term(self):
        with pytest.raises(FittingError):
            PolynomialBasis(0)

    def test_coefficient_length_checked(self):
        b = PolynomialBasis(3)
        with pytest.raises(FittingError):
            b.evaluate(np.ones(2), np.array([0.5]))

    @given(coeff_arrays, st.floats(min_value=0, max_value=1))
    @settings(max_examples=60, deadline=None)
    def test_antiderivative_fundamental_theorem(self, coeffs, x):
        """d/dx int_x^1 f = -f(x), checked by central differences."""
        b = PolynomialBasis(len(coeffs))
        h = 1e-6
        x = min(max(x, h), 1 - h)
        fd = (
            b.antiderivative(coeffs, np.array([x + h]))
            - b.antiderivative(coeffs, np.array([x - h]))
        ) / (2 * h)
        assert fd[0] == pytest.approx(-b.evaluate(coeffs, np.array([x]))[0], rel=1e-4, abs=1e-5)

    @given(coeff_arrays)
    @settings(max_examples=40, deadline=None)
    def test_antiderivative_zero_at_one(self, coeffs):
        b = PolynomialBasis(len(coeffs))
        assert b.antiderivative(coeffs, np.array([1.0]))[0] == pytest.approx(0.0, abs=1e-12)

    @given(coeff_arrays)
    @settings(max_examples=40, deadline=None)
    def test_edge_constrained_antiderivative_zero_at_one(self, coeffs):
        b = PolynomialBasis(len(coeffs), vanish_at_edge=True)
        assert b.antiderivative(coeffs, np.array([1.0]))[0] == pytest.approx(0.0, abs=1e-12)


class TestProfiles:
    @pytest.fixture()
    def profiles(self):
        return ProfileCoefficients(
            PolynomialBasis(2), PolynomialBasis(3), np.array([2.0, -1.0]), np.array([0.5, 0.1, -0.4])
        )

    def test_vector_roundtrip(self, profiles):
        vec = profiles.as_vector()
        rebuilt = ProfileCoefficients.from_vector(
            profiles.pp_basis, profiles.ffp_basis, vec
        )
        assert np.array_equal(rebuilt.alpha, profiles.alpha)
        assert np.array_equal(rebuilt.beta, profiles.beta)

    def test_length_validation(self):
        with pytest.raises(FittingError):
            ProfileCoefficients(PolynomialBasis(2), PolynomialBasis(2), np.ones(3), np.ones(2))
        with pytest.raises(FittingError):
            ProfileCoefficients.from_vector(PolynomialBasis(2), PolynomialBasis(2), np.ones(5))

    def test_pressure_zero_at_boundary(self, profiles):
        p = profiles.pressure(np.array([1.0]), psi_axis=0.0, psi_boundary=-1.0)
        assert p[0] == pytest.approx(0.0, abs=1e-14)

    def test_pressure_derivative_consistency(self, profiles):
        """dp/dpsiN = -dpsi * (-p') ... i.e. p' in psi: finite difference of
        pressure against pprime."""
        psi_axis, psi_b = 0.3, -0.8
        dpsi = psi_b - psi_axis
        x = np.array([0.4])
        h = 1e-6
        fd = (
            profiles.pressure(x + h, psi_axis, psi_b) - profiles.pressure(x - h, psi_axis, psi_b)
        ) / (2 * h)
        # dp/dx = p'(x) * dpsi/dx = pprime * dpsi
        assert fd[0] == pytest.approx(profiles.pprime(x)[0] * dpsi, rel=1e-6)

    def test_f_squared_boundary_value(self, profiles):
        f2 = profiles.f_squared(np.array([1.0]), 0.2, -0.9, f_boundary=3.38)
        assert f2[0] == pytest.approx(3.38**2)

    def test_f_squared_derivative_consistency(self, profiles):
        psi_axis, psi_b, fb = 0.2, -0.9, 3.38
        dpsi = psi_b - psi_axis
        x = np.array([0.35])
        h = 1e-6
        fd = (
            profiles.f_squared(x + h, psi_axis, psi_b, fb)
            - profiles.f_squared(x - h, psi_axis, psi_b, fb)
        ) / (2 * h)
        # d(F^2)/dx = 2 F F' dpsi
        assert fd[0] == pytest.approx(2.0 * profiles.ffprime(x)[0] * dpsi, rel=1e-6)

