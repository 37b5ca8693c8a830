import math
import random
from fractions import Fraction

import pytest

from loopreg import checks, feynpar, oracle
from loopreg.feynpar import PolyLogIntegrand


def _quadrature(f):
    """int_0^1 f(x) dx by oracle.integrate in s = -ln x, as checks._pipeline_x_integral takes its x-integral:
    the log singularity at x = 0 becomes a decay, and for these integrands the tail past s = 64 is below 1e-23."""
    def in_s(s):
        x = math.exp(-s)
        return f(x) * x

    return math.fsum(oracle.integrate(in_s, a, b, 1e-13, epsabs=1e-13)[0] for a, b in zip(checks._S_EDGES, checks._S_EDGES[1:]))


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
        rng = random.Random(20240817 + log_weight)
        for _ in range(25):
            degree = rng.randint(0, 6)
            coeffs = tuple(
                Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(degree + 1)
            )
            integrand = PolyLogIntegrand(coeffs, log_weight)
            exact = float(feynpar.integrate_poly_log(integrand))
            numeric = _quadrature(integrand)
            assert numeric == pytest.approx(exact, rel=1e-10, abs=1e-10)

