import math
from fractions import Fraction

import pytest

from loopreg import checks, qed
from loopreg.qed import SelfEnergyKernel

ALPHA = 1.0 / 137.036
M_E = 0.000511  # GeV


class TestPipelineCoefficients:
    def test_exact_values(self):
        c0, c_log = qed.pipeline_coefficients()
        assert (c0, c_log) == (Fraction(5), Fraction(-3))
        assert isinstance(c0, Fraction) and isinstance(c_log, Fraction)

    def test_channels_sum_to_total(self):
        slash = qed.channel_coefficients(qed.SLASH_COEFFS)
        scalar = qed.channel_coefficients(qed.SCALAR_OVER_M_COEFFS)
        total = qed.pipeline_coefficients()
        assert (slash[0] + scalar[0], slash[1] + scalar[1]) == total

    def test_slash_channel_alone(self):
        # a(x) = -2(1-x): exact split of the (5, -3) total
        assert qed.channel_coefficients(qed.SLASH_COEFFS) == (Fraction(-3), Fraction(1))
        assert qed.channel_coefficients(qed.SCALAR_OVER_M_COEFFS) == (Fraction(8), Fraction(-4))

    @pytest.mark.parametrize("big_l", [0.0, 1.0, 5.0 / 3.0])
    def test_numeric_x_quadrature_cross_check(self, big_l):
        # integrand (2+2x) * (-(L + 2 ln x)) must integrate to 5 - 3L
        assert abs(checks._pipeline_x_integral(big_l) - (5.0 - 3.0 * big_l)) < 1e-9


class TestOnShellMassShift:
    def test_vanishes_at_fixed_scale(self):
        mu1 = math.exp(-5.0 / 6.0) * M_E
        shift = qed.on_shell_mass_shift(M_E, ALPHA, mu1)
        assert abs(shift.delta_m) <= 1e-12 * M_E * ALPHA

    def test_equal_scales_give_pure_constant(self):
        shift = qed.on_shell_mass_shift(M_E, ALPHA, M_E)
        assert shift.delta_m == pytest.approx(5.0 * ALPHA * M_E / (4.0 * math.pi), rel=1e-14)

    def test_electron_point_value(self):
        # 5 * 0.000511 / 137.036 / (4 pi), checked against 30-digit arithmetic
        shift = qed.on_shell_mass_shift(M_E, ALPHA, M_E)
        assert shift.delta_m == pytest.approx(1.48370092384407e-6, rel=1e-12)

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
        assert qed.solve_mu1(M_E) == pytest.approx(2.22079684547e-4, rel=1e-10)

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


class TestSelfEnergyKernel:
    def test_channel_polynomials_fixed_at_construction(self):
        k = SelfEnergyKernel(p_sq=M_E**2, m=M_E, alpha=ALPHA)
        assert k.slash_coeffs == (Fraction(-2), Fraction(2))
        assert k.scalar_over_m_coeffs == (Fraction(4),)

    def test_off_shell_region_rejected(self):
        with pytest.raises(ValueError):
            SelfEnergyKernel(p_sq=2.0 * M_E**2, m=M_E, alpha=ALPHA)

    def test_channel_integrands_finite_below_shell(self):
        k = SelfEnergyKernel(p_sq=0.5 * M_E**2, m=M_E, alpha=ALPHA)
        mu1 = qed.solve_mu1(M_E)
        slash, scalar = k.channel_integrands(0.5, mu1)
        assert math.isfinite(slash) and math.isfinite(scalar)

    def test_on_shell_integrand_recovers_shift(self):
        # quadrature of slash*m + scalar over x equals delta_m
        integrate = pytest.importorskip("scipy.integrate")
        mu1 = 0.5 * M_E
        k = SelfEnergyKernel(p_sq=M_E**2, m=M_E, alpha=ALPHA)

        def integrand(x):
            slash, scalar = k.channel_integrands(x, mu1)
            return slash * M_E + scalar

        numeric, _ = integrate.quad(integrand, 0.0, 1.0, epsabs=1e-16, epsrel=1e-12, limit=200)
        expected = qed.on_shell_mass_shift(M_E, ALPHA, mu1).delta_m
        assert numeric == pytest.approx(expected, rel=1e-9)

    def test_mass_fn_matches_feynpar(self):
        k = SelfEnergyKernel(p_sq=0.3, m=1.0, alpha=ALPHA)
        fn = k.mass_fn()
        assert fn.p_sq == 0.3 and fn.m_sq == 1.0
