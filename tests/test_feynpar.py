import math
import random
from fractions import Fraction

import pytest

from loopreg import feynpar
from loopreg.feynpar import FeynmanMassFn, PolyLogIntegrand


class TestMassFn:
    def test_on_shell_reduces_to_msq_x_squared(self):
        fn = FeynmanMassFn(p_sq=0.25, m_sq=0.25)
        for x in (0.0, 0.3, 0.7, 1.0):
            assert feynpar.mass_fn_eval(fn, x) == pytest.approx(0.25 * x * x, abs=1e-15)

    def test_zero_momentum_is_linear(self):
        fn = FeynmanMassFn(p_sq=0.0, m_sq=2.0)
        for x in (0.0, 0.5, 1.0):
            assert feynpar.mass_fn_eval(fn, x) == pytest.approx(2.0 * x, abs=1e-15)

    def test_endpoint_x_one_gives_msq(self):
        for p_sq in (-3.0, 0.0, 0.7, 1.0):
            fn = FeynmanMassFn(p_sq=p_sq, m_sq=1.0)
            assert feynpar.mass_fn_eval(fn, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_x_outside_unit_interval_rejected(self):
        fn = FeynmanMassFn(p_sq=0.0, m_sq=1.0)
        with pytest.raises(ValueError):
            feynpar.mass_fn_eval(fn, -0.1)
        with pytest.raises(ValueError):
            feynpar.mass_fn_eval(fn, 1.1)

    def test_off_shell_above_mass_rejected(self):
        with pytest.raises(ValueError, match="real-logarithm"):
            FeynmanMassFn(p_sq=2.0, m_sq=1.0)

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(ValueError):
            FeynmanMassFn(p_sq=0.0, m_sq=0.0)

    def test_nonnegative_on_grid(self):
        # positivity over 0 <= p^2 <= m^2
        for m_sq in (0.3, 1.0, 4.0):
            for frac in (0.0, 0.25, 0.5, 0.9, 1.0):
                fn = FeynmanMassFn(p_sq=frac * m_sq, m_sq=m_sq)
                for k in range(21):
                    assert feynpar.mass_fn_eval(fn, k / 20.0) >= 0.0

    def test_spacelike_momentum_positive_interior(self):
        fn = FeynmanMassFn(p_sq=-5.0, m_sq=1.0)
        for k in range(1, 20):
            assert feynpar.mass_fn_eval(fn, k / 20.0) > 0.0


class TestIntegratePolyLog:
    def test_plain_polynomial(self):
        # 2 + 2x integrates to 3
        integrand = PolyLogIntegrand((Fraction(2), Fraction(2)))
        assert feynpar.integrate_poly_log(integrand) == Fraction(3)

    def test_doubled_log_weighted_polynomial(self):
        # (2 + 2x) * 2 ln x integrates to -5
        integrand = PolyLogIntegrand((Fraction(4), Fraction(4)), log_weight=1)
        assert feynpar.integrate_poly_log(integrand) == Fraction(-5)

    def test_pure_log(self):
        integrand = PolyLogIntegrand((Fraction(1),), log_weight=1)
        assert feynpar.integrate_poly_log(integrand) == Fraction(-1)

    def test_monomial_closed_forms(self):
        for k in range(6):
            coeffs = tuple(Fraction(0) for _ in range(k)) + (Fraction(1),)
            assert feynpar.integrate_poly_log(PolyLogIntegrand(coeffs)) == Fraction(1, k + 1)
            assert feynpar.integrate_poly_log(PolyLogIntegrand(coeffs, 1)) == Fraction(-1, (k + 1) ** 2)

    def test_result_is_exact_rational(self):
        integrand = PolyLogIntegrand((Fraction(1, 3), Fraction(-2, 7)), log_weight=1)
        out = feynpar.integrate_poly_log(integrand)
        assert isinstance(out, Fraction)
        assert out == Fraction(-1, 3) + Fraction(2, 7 * 4)

    def test_log_weight_beyond_one_rejected(self):
        with pytest.raises(ValueError):
            PolyLogIntegrand((Fraction(1),), log_weight=2)

    def test_float_coefficients_rejected(self):
        with pytest.raises(TypeError):
            PolyLogIntegrand((0.5,))

    @pytest.mark.parametrize("log_weight", [0, 1])
    def test_matches_adaptive_quadrature(self, log_weight):
        integrate = pytest.importorskip("scipy.integrate")
        rng = random.Random(20240817 + log_weight)
        for _ in range(25):
            degree = rng.randint(0, 6)
            coeffs = tuple(
                Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(degree + 1)
            )
            integrand = PolyLogIntegrand(coeffs, log_weight)
            exact = float(feynpar.integrate_poly_log(integrand))
            numeric, _ = integrate.quad(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=200)
            assert numeric == pytest.approx(exact, rel=1e-10, abs=1e-10)


class TestOnShellLogSplit:
    def test_log_of_mass_fn_splits_into_scale_log_plus_two_log_x(self):
        # on shell M^2(x) = m^2 x^2, so ln(M^2/mu^2) = ln(m^2/mu^2) + 2 ln x
        rng = random.Random(7)
        for _ in range(50):
            m = rng.uniform(0.01, 10.0)
            mu = rng.uniform(0.01, 10.0)
            x = rng.uniform(1e-6, 1.0)
            fn = FeynmanMassFn(p_sq=m * m, m_sq=m * m)
            lhs = math.log(feynpar.mass_fn_eval(fn, x) / mu**2)
            rhs = math.log(m * m / mu**2) + 2.0 * math.log(x)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
