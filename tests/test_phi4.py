import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import references
from loopreg import _log_ratio, checks, phi4
from loopreg.phi4 import (
    BETA_ONE_LOOP,
    LandauPoleError,
    ResummationState,
    SSBPotential,
)


def _fd_derivative(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


class TestSSBVacuum:
    def test_unit_example(self):
        phi1, m_sigma = phi4.ssb_vacuum(SSBPotential(sigma=1.0, lam=6.0))
        assert phi1 == pytest.approx(1.0, rel=1e-15)
        assert m_sigma == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_second_example(self):
        phi1, m_sigma = phi4.ssb_vacuum(SSBPotential(sigma=2.0, lam=6.0))
        assert phi1 == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert m_sigma == pytest.approx(2.0, rel=1e-15)

    def test_stationarity_and_curvature(self):
        rng = random.Random(11)
        for _ in range(20):
            sigma = rng.uniform(0.1, 10.0)
            lam = rng.uniform(0.1, 10.0)
            pot = SSBPotential(sigma=sigma, lam=lam)
            phi1, m_sigma = phi4.ssb_vacuum(pot)
            h = 1e-5 * phi1
            grad = _fd_derivative(pot, phi1, h)
            curv = (pot(phi1 + h) - 2.0 * pot(phi1) + pot(phi1 - h)) / h**2
            assert abs(grad) < 1e-7 * max(1.0, abs(pot(phi1)) / phi1)
            assert curv == pytest.approx(2.0 * sigma, rel=1e-4)
            assert curv == pytest.approx(m_sigma**2, rel=1e-4)

    def test_vacuum_is_global_minimum_on_positive_axis(self):
        pot = SSBPotential(sigma=1.0, lam=6.0)
        phi1, _ = phi4.ssb_vacuum(pot)
        # no point of a fine scan over (0, 5] lies below the vacuum
        assert all(pot(phi1) <= pot(5.0 * k / 10_000) for k in range(1, 10_001))
        assert pot(phi1) < pot(0.0)

    @pytest.mark.parametrize("sigma, lam", [(1e300, 1e-300), (1e200, 1e-200), (1e-300, 1e100), (1.7e308, 0.5)])
    def test_vacuum_fits_where_its_square_does_not(self, sigma, lam):
        # 6 sigma/lambda leaves the float range, Phi1 does not: Phi1^2 lambda/(6 sigma) is 1 in exact arithmetic
        phi1, _ = phi4.ssb_vacuum(SSBPotential(sigma=sigma, lam=lam))
        assert float(Fraction(phi1) ** 2 * Fraction(lam) / (6 * Fraction(sigma))) == pytest.approx(1.0, rel=4e-15)

    def test_infinite_coupling_underflows_phi1(self):
        # lambda = inf is the one input where sqrt(6) sqrt(sigma)/sqrt(lambda) is 0: a numeric failure, not a refusal
        with pytest.raises(ArithmeticError) as excinfo:
            phi4.ssb_vacuum(SSBPotential(1.0, math.inf))
        assert str(excinfo.value) == "phi1 = sqrt(6*sigma/lambda) underflows to 0 at sigma=1.0, lambda=inf"

    def test_nonpositive_parameters_rejected(self):
        with pytest.raises(ValueError):
            SSBPotential(sigma=0.0, lam=1.0)
        with pytest.raises(ValueError):
            SSBPotential(sigma=1.0, lam=-1.0)


class TestLambdaRenormalized:
    def test_zero(self):
        assert phi4.lambda_renormalized(0.0) == 0.0

    def test_unit_value(self):
        assert phi4.lambda_renormalized(1.0) == pytest.approx(1.0 + 9.0 / (32.0 * math.pi**2), rel=1e-15)
        assert phi4.lambda_renormalized(1.0) == pytest.approx(1.02849658290, rel=1e-11)

    def test_two(self):
        assert phi4.lambda_renormalized(2.0) == pytest.approx(2.0 * (1.0 + 18.0 / (32.0 * math.pi**2)), rel=1e-15)

    def test_strictly_increasing_finite_nonzero(self):
        values = [phi4.lambda_renormalized(l / 10.0) for l in range(1, 101)]
        assert all(v > 0 and math.isfinite(v) for v in values)
        assert values == sorted(values)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            phi4.lambda_renormalized(-0.5)


class TestLambdaInvariantRatio:
    def test_closure_on_parameter_grid(self):
        for i in range(1, 11):
            for j in range(1, 11):
                sigma, lam = 0.3 * i, 0.7 * j
                phi1, m_sigma = phi4.ssb_vacuum(SSBPotential(sigma=sigma, lam=lam))
                assert abs(phi4.lambda_invariant_ratio(m_sigma, phi1) - lam) <= 1e-12 * lam

    def test_point_value(self):
        assert phi4.lambda_invariant_ratio(math.sqrt(2.0), 1.0) == pytest.approx(6.0, rel=1e-15)

    def test_scale_invariance(self):
        base = phi4.lambda_invariant_ratio(1.3, 0.4)
        for c in (1e-3, 2.0, 1e4):
            assert phi4.lambda_invariant_ratio(c * 1.3, c * 0.4) == pytest.approx(base, rel=1e-12)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            phi4.lambda_invariant_ratio(0.0, 1.0)


class TestResumChain:
    def test_reference_scale_returns_lambda0(self):
        state = ResummationState(lambda0=0.7, mu0=3.0)
        assert phi4.resum_chain(state, 3.0) == pytest.approx(0.7, rel=1e-15)

    def test_doubled_scale_example(self):
        state = ResummationState(lambda0=0.5, mu0=1.0)
        assert phi4.resum_chain(state, 2.0) == pytest.approx(0.510075171111, rel=1e-11)

    def test_pole_signalled(self):
        state = ResummationState(lambda0=1.0, mu0=1.0)
        mu_c = phi4.critical_scale(state)
        with pytest.raises(LandauPoleError):
            phi4.resum_chain(state, mu_c * (1.0 + 1e-9))

    def test_finite_just_below_pole(self):
        state = ResummationState(lambda0=1.0, mu0=1.0)
        mu_c = phi4.critical_scale(state)
        assert math.isfinite(phi4.resum_chain(state, mu_c * (1.0 - 1e-9)))

    def test_nonpositive_scale_rejected(self):
        state = ResummationState(lambda0=1.0, mu0=1.0)
        with pytest.raises(ValueError):
            phi4.resum_chain(state, 0.0)

    @pytest.mark.parametrize("mu", [0.0, -0.0, -2.0, -math.inf, math.nan])
    def test_the_grid_loop_rejects_a_nonpositive_scale_as_resum_chain_does(self, mu):
        state = ResummationState(lambda0=1.0, mu0=1.0)
        with pytest.raises(ValueError) as point:
            phi4.resum_chain(state, mu)
        with pytest.raises(ValueError) as grid:
            phi4._chain_couplings(state, [2.0, mu, 3.0])
        assert str(grid.value) == str(point.value) == f"mu must be positive, got {mu!r}"

    def test_a_nan_denominator_is_no_pole(self):
        # b lambda0 = inf and ln(mu^2/mu0^2) = 0 at mu = mu0: the denominator 1 - inf*0 is nan, not <= 0, and the
        # coupling there is lambda0; below mu0, 2b ln(mu/mu0) leaves the float range too, and the coupling divided
        # through by b is the subnormal that the exact value of 1/(1/lambda0 - 2b ln(mu/mu0)) rounds to, not 0
        state = ResummationState(lambda0=137.0, mu0=137.0, beta_coeff=1.7e308)
        below, at, above = phi4._chain_couplings(state, [1.0, 137.0, 1000.0])
        exact = 1 / (1 / Fraction(137.0) - 2 * Fraction(1.7e308) * Fraction(_log_ratio(1.0, 137.0)))
        assert below == float(exact) == 5.97802413246793e-310 and at == 137.0 and above is None
        assert phi4.resum_chain(state, 137.0) == phi4.resum_first_order(state, 137.0) == 137.0
        assert phi4.symmetry_status(state, 137.0) == phi4.VACUUM_BROKEN

    @pytest.mark.parametrize("lambda0, b", [(1e200, 1e200), (1e300, 1e10), (1e308, 2.0), (50.0, 1e307)])
    def test_b_lambda0_past_the_float_range(self, lambda0, b):
        # the denominator 1 - 2 b lambda0 ln(mu/mu0) is inf below mu0 while 2 b ln(mu/mu0) fits: the coupling is
        # 1/(1/lambda0 - 2 b ln(mu/mu0)), which the exact value of that expression rounds to; at mu0 it is lambda0
        state = ResummationState(lambda0=lambda0, mu0=5.0, beta_coeff=b)
        assert not b * lambda0 < math.inf
        mus = [1.0, 3.0, 4.999, 5.0]
        couplings = phi4._chain_couplings(state, mus)
        for mu, coupling in zip(mus[:-1], couplings):
            exact = 1 / (1 / Fraction(lambda0) - 2 * Fraction(b) * Fraction(_log_ratio(mu, 5.0)))
            assert coupling == pytest.approx(float(exact), rel=4e-16) and coupling > 0.0
        assert couplings[-1] == phi4.resum_chain(state, 5.0) == phi4.resum_first_order(state, 5.0) == lambda0
        assert phi4._chain_couplings(state, [5.001]) == [None]

    def test_first_order_expansion_match(self):
        # relative error of the truncation is O((b lambda0 L)^2)
        state = ResummationState(lambda0=0.2, mu0=1.0)
        for mu in (1.01, 1.1, 1.5):
            big_l = 2.0 * math.log(mu)
            small = BETA_ONE_LOOP * 0.2 * big_l
            full = phi4.resum_chain(state, mu)
            first = phi4.resum_first_order(state, mu)
            assert abs(first - full) / full <= 1.5 * small**2

    def test_first_order_at_unit_log_is_one_loop_coupling(self):
        lam0 = 0.8
        state = ResummationState(lambda0=lam0, mu0=1.0)
        mu = math.exp(0.5)  # ln(mu^2/mu0^2) = 1
        assert phi4.resum_first_order(state, mu) == pytest.approx(phi4.lambda_renormalized(lam0), rel=1e-12)


class TestCriticalScale:
    def test_monotone_decreasing_in_coupling(self):
        scales = [phi4.critical_scale(ResummationState(lambda0=l, mu0=1.0)) for l in (0.5, 1.0, 2.0, 4.0)]
        assert scales == sorted(scales, reverse=True)

    def test_reference_point(self):
        state = ResummationState(lambda0=1.0, mu0=1.0)
        assert phi4.critical_scale(state) == pytest.approx(math.exp(16.0 * math.pi**2 / 9.0), rel=1e-12)
        assert phi4.critical_scale(state) == pytest.approx(4.1697985644e7, rel=1e-9)

    def test_pole_bracketed_by_bisection(self):
        state = ResummationState(lambda0=1.5, mu0=2.0)
        boundary = checks._pole_boundary(state)
        assert abs(boundary - phi4.critical_scale(state)) / phi4.critical_scale(state) <= 1e-9

    @pytest.mark.parametrize("state", checks._RESUM_STATES)
    def test_pole_row_bisects_where_resum_chain_raises(self, state):
        assert checks._pole_boundary(state).hex() == references.pole_boundary(state).hex()

    @settings(max_examples=300)
    @given(
        lambda0=st.floats(1e-2, 10.0),
        mu0=st.floats(1e-3, 1e3),
        beta_coeff=st.one_of(st.just(BETA_ONE_LOOP), st.floats(0.005, 0.09)),
    )
    def test_pole_boundary_is_that_of_the_raise(self, lambda0, mu0, beta_coeff):
        state = ResummationState(lambda0=lambda0, mu0=mu0, beta_coeff=beta_coeff)
        assume(phi4.critical_scale(state) < 1e300)  # the bracket search stays finite
        assert checks._pole_boundary(state).hex() == references.pole_boundary(state).hex()

    def test_tiny_coupling_overflows_to_infinity(self):
        assert phi4.critical_scale(ResummationState(lambda0=1e-6, mu0=1.0)) == math.inf

    def test_invalid_state_rejected(self):
        with pytest.raises(ValueError):
            ResummationState(lambda0=0.0, mu0=1.0)
        with pytest.raises(ValueError):
            ResummationState(lambda0=1.0, mu0=-2.0)
        with pytest.raises(ValueError):
            ResummationState(lambda0=1.0, mu0=1.0, beta_coeff=0.0)


class TestSymmetryStatus:
    def test_below_and_above(self):
        state = ResummationState(lambda0=1.0, mu0=1.0)
        mu_c = phi4.critical_scale(state)
        assert phi4.symmetry_status(state, 0.5 * mu_c) == phi4.VACUUM_BROKEN
        assert phi4.symmetry_status(state, 2.0 * mu_c) == phi4.VACUUM_RESTORED

    @settings(max_examples=300)
    @given(
        lambda0=st.floats(1e-2, 10.0),
        mu0=st.floats(1.0, 1e3),
        beta_coeff=st.one_of(st.just(BETA_ONE_LOOP), st.floats(0.005, 0.09)),
        ulps=st.integers(-3, 3),
    )
    def test_restored_exactly_where_the_chain_has_its_pole(self, lambda0, mu0, beta_coeff, ulps):
        # the grid loop, resum_chain and symmetry_status over a grid through mu0 and, ulps apart, mu_c
        state = ResummationState(lambda0=lambda0, mu0=mu0, beta_coeff=beta_coeff)
        mu = phi4.critical_scale(state)
        assume(math.isfinite(mu))
        for _ in range(abs(ulps)):
            mu = math.nextafter(mu, math.copysign(math.inf, ulps))
        grid = [1e-3 * mu0, mu0, math.nextafter(mu, 0.0), mu, math.nextafter(mu, math.inf), 2.0 * mu]
        for point, coupling in zip(grid, phi4._chain_couplings(state, grid), strict=True):
            try:
                chain = phi4.resum_chain(state, point)
            except LandauPoleError:
                assert coupling is None
                assert phi4.symmetry_status(state, point) == phi4.VACUUM_RESTORED
            else:
                assert coupling is not None and coupling.hex() == chain.hex()
                assert chain == state.lambda0 / (1.0 - state.beta_coeff * state.lambda0 * (2.0 * _log_ratio(point, state.mu0)))
                assert phi4.symmetry_status(state, point) == phi4.VACUUM_BROKEN


class TestScaleRatioPastTheFloatRange:
    """mu/mu0 past the float range: the log is the difference of the logs, not ln(inf) or ln(0)."""

    # b lambda0 ~ 1.4e-318, so ln(mu^2/mu0^2) ~ 1483 moves neither order off lambda0
    TINY = ResummationState(lambda0=137.0, mu0=1e-320, beta_coeff=1e-320)

    def test_chain_is_finite(self):
        assert phi4.resum_chain(self.TINY, 137.0) == 137.0

    def test_first_order_is_finite(self):
        assert phi4.resum_first_order(self.TINY, 137.0) == 137.0

    def test_vacuum_stays_broken(self):
        assert phi4.symmetry_status(self.TINY, 137.0) == phi4.VACUUM_BROKEN

    @settings(max_examples=300)
    @given(log_mu=st.floats(math.log(1e-320), math.log(1e308)), log_mu0=st.floats(math.log(1e-320), math.log(1e308)))
    def test_first_order_finite_for_every_pair_of_scales(self, log_mu, log_mu0):
        state = ResummationState(lambda0=0.5, mu0=math.exp(log_mu0))
        assert math.isfinite(phi4.resum_first_order(state, math.exp(log_mu)))


class TestFiniteOrderDichotomy:
    def test_finite_orders_regular_but_resummation_poles(self):
        state = ResummationState(lambda0=3.0, mu0=1.0)
        mu_hot = 2.0 * phi4.critical_scale(state)
        # every finite-order object stays finite there
        assert math.isfinite(phi4.resum_first_order(state, mu_hot))
        # the infinite resummation does not
        with pytest.raises(LandauPoleError):
            phi4.resum_chain(state, mu_hot)


class TestHiggsReference:
    def test_defaults(self):
        assert (phi4.HIGGS_LOWER_BOUND, phi4.HIGGS_PREDICTED, phi4.HIGGS_UPPER_BOUND) == (76.0, 138.0, 170.0)

    def test_ordering_invariant(self):
        assert phi4.HIGGS_LOWER_BOUND < phi4.HIGGS_PREDICTED < phi4.HIGGS_UPPER_BOUND
