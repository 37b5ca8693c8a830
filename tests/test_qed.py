import math
from fractions import Fraction

import pytest

from loopreg import feynpar, oracle, qed

ALPHA = 1.0 / 137.036
M_E = 0.000511  # GeV


class TestPipelineCoefficients:
    def test_exact_values(self):
        c0, c_log = qed.pipeline_coefficients()
        assert (c0, c_log) == (Fraction(5), Fraction(-3))
        assert isinstance(c0, Fraction) and isinstance(c_log, Fraction)

    def test_float_coefficients_round_the_exact_ones_once(self):
        c0, c_log = qed.pipeline_coefficients()
        assert qed._float_coefficients() == (float(c0), float(c_log), float(c0 / c_log / 2))
        assert qed._float_coefficients()[2] == float(Fraction(-5, 6))

    def test_channels_sum_to_total(self):
        slash = qed.channel_coefficients(qed.SLASH_COEFFS)
        scalar = qed.channel_coefficients(qed.SCALAR_OVER_M_COEFFS)
        total = qed.pipeline_coefficients()
        assert (slash[0] + scalar[0], slash[1] + scalar[1]) == total

    def test_slash_channel_alone(self):
        # a(x) = -2(1-x): exact split of the (5, -3) total
        assert qed.channel_coefficients(qed.SLASH_COEFFS) == (Fraction(-3), Fraction(1))
        assert qed.channel_coefficients(qed.SCALAR_OVER_M_COEFFS) == (Fraction(8), Fraction(-4))

    @pytest.mark.parametrize("mu1_over_m", [0.5, 1.0, 3.0, math.exp(-5.0 / 6.0)])
    def test_on_shell_x_quadrature_recovers_shift(self, mu1_over_m):
        # on shell M^2(x) = m^2 x^2 and slash(p) -> m, so the Feynman-parameter integrand is
        # -(alpha m/4 pi) ln(m^2 x^2/mu1^2) (a(x) + b(x)/m); its quadrature must give delta_m
        mu1 = mu1_over_m * M_E
        scale = ALPHA * M_E / (4.0 * math.pi)
        slash = feynpar.PolyLogIntegrand(qed.SLASH_COEFFS)
        scalar_over_m = feynpar.PolyLogIntegrand(qed.SCALAR_OVER_M_COEFFS)

        def integrand(x):
            return -scale * math.log(M_E**2 * x * x / mu1**2) * (slash(x) + scalar_over_m(x))

        # absolute bounds: delta_m is 0 at mu1 = exp(-5/6) m
        numeric, _ = oracle.integrate(integrand, 0.0, 1.0, 1e-12, epsabs=1e-12 * scale)
        assert abs(numeric - qed.on_shell_mass_shift(M_E, ALPHA, mu1).delta_m) <= 1e-11 * scale


class TestOnShellMassShift:
    def test_vanishes_at_fixed_scale(self):
        mu1 = math.exp(-5.0 / 6.0) * M_E
        shift = qed.on_shell_mass_shift(M_E, ALPHA, mu1)
        assert abs(shift.delta_m) <= 1e-12 * M_E * ALPHA

    def test_overflowing_prefactor_keeps_a_zero_bracket_zero(self):
        # alpha*m/(4*pi) overflows, and the fixed scale's bracket is exactly 0.0: the shift is 0, not inf*0 = nan
        m = 1e200
        assert qed.on_shell_mass_shift(m, 1e120, qed.solve_mu1(m)).delta_m == 0.0

    def test_equal_scales_give_pure_constant(self):
        shift = qed.on_shell_mass_shift(M_E, ALPHA, M_E)
        assert shift.delta_m == pytest.approx(5.0 * ALPHA * M_E / (4.0 * math.pi), rel=1e-14, abs=0.0)

    def test_electron_point_value(self):
        # 5 * 0.000511 / 137.036 / (4 pi), checked against 30-digit arithmetic
        shift = qed.on_shell_mass_shift(M_E, ALPHA, M_E)
        assert shift.delta_m == pytest.approx(1.48370092384407e-6, rel=1e-12, abs=0.0)

    def test_two_path_agreement(self):
        # pipeline coefficients against the directly typed closed form
        c0, c_log = qed.pipeline_coefficients()
        for mu1 in (0.2 * M_E, 0.7 * M_E, M_E):
            big_l = math.log(M_E**2 / mu1**2)
            direct = ALPHA * M_E / (4.0 * math.pi) * (5.0 - 3.0 * big_l)
            via_op = qed.on_shell_mass_shift(M_E, ALPHA, mu1).delta_m
            via_fractions = ALPHA * M_E / (4.0 * math.pi) * (float(c0) + float(c_log) * big_l)
            assert via_op == pytest.approx(direct, rel=1e-12, abs=1e-25)
            assert via_fractions == pytest.approx(direct, rel=1e-12, abs=1e-25)

    @pytest.mark.parametrize("mu1_over_m", [0.2, 0.7, 1.0, 3.0])
    def test_shift_is_read_at_its_log_ratio(self, mu1_over_m):
        shift = qed.on_shell_mass_shift(M_E, ALPHA, mu1_over_m * M_E)
        expected = ALPHA * M_E / (4.0 * math.pi) * (5.0 - 3.0 * shift.log_ratio)
        assert shift.delta_m == pytest.approx(expected, rel=1e-15, abs=0.0)

    def test_slope_in_log_scale(self):
        # d(delta_m)/d(ln mu1^2) = 3 alpha m / (4 pi), by central differences
        analytic = 3.0 * ALPHA * M_E / (4.0 * math.pi)
        u0 = math.log((0.5 * M_E) ** 2)
        h = 1e-5

        def shift_of_u(u):
            return qed.on_shell_mass_shift(M_E, ALPHA, math.exp(0.5 * u)).delta_m

        fd = (shift_of_u(u0 + h) - shift_of_u(u0 - h)) / (2.0 * h)
        assert fd == pytest.approx(analytic, rel=1e-8)

    def test_monotone_increasing_in_scale(self):
        shifts = [
            qed.on_shell_mass_shift(M_E, ALPHA, f * M_E).delta_m
            for f in (0.1, 0.3, 0.5, 0.8, 1.0)
        ]
        assert shifts == sorted(shifts)

    @pytest.mark.parametrize("bad", [{"m": 0.0}, {"alpha": -1.0}, {"mu1": 0.0}])
    def test_nonpositive_inputs_rejected(self, bad):
        kwargs = {"m": M_E, "alpha": ALPHA, "mu1": M_E}
        kwargs.update(bad)
        with pytest.raises(ValueError):
            qed.on_shell_mass_shift(**kwargs)


class TestSolveMu1:
    def test_unit_mass(self):
        assert qed.solve_mu1(1.0) == pytest.approx(0.434598208507078, rel=1e-13)

    def test_electron_mass(self):
        assert qed.solve_mu1(M_E) == pytest.approx(2.22079684547e-4, rel=1e-10, abs=0.0)

    def test_root_finder_agrees(self):
        for m in (M_E, 1.0, 80.0):
            closed = qed.solve_mu1(m)
            root = qed.solve_mu1_by_root(m)
            assert abs(root - closed) / closed < 1e-12

    def test_alpha_independent(self):
        roots = [qed.solve_mu1_by_root(1.0, alpha) for alpha in (ALPHA, 0.1, 0.3)]
        spread = (max(roots) - min(roots)) / qed.solve_mu1(1.0)
        assert spread < 1e-12

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(ValueError):
            qed.solve_mu1(0.0)
        with pytest.raises(ValueError):
            qed.solve_mu1_by_root(-1.0)


class TestLambShiftEstimate:
    def test_lands_in_band(self):
        mhz = qed.lamb_shift_estimate(ALPHA, M_E, 2.8118)
        assert 1000.0 <= mhz <= 1080.0

    def test_brackets_reference_band(self):
        mhz = qed.lamb_shift_estimate(ALPHA, M_E, 2.8118)
        assert 900.0 <= mhz <= 1100.0

    def test_vanishing_bracket(self):
        bethe = math.log(1.0 / ALPHA**2) + 19.0 / 30.0
        assert abs(qed.lamb_shift_estimate(ALPHA, M_E, bethe)) < 1e-8

    def test_linear_in_mass(self):
        one = qed.lamb_shift_estimate(ALPHA, M_E, 2.8118)
        two = qed.lamb_shift_estimate(ALPHA, 2.0 * M_E, 2.8118)
        assert two == pytest.approx(2.0 * one, rel=1e-14)

    def test_nonpositive_inputs_rejected(self):
        with pytest.raises(ValueError):
            qed.lamb_shift_estimate(0.0, M_E, 2.8118)
        with pytest.raises(ValueError):
            qed.lamb_shift_estimate(ALPHA, M_E, 0.0)

