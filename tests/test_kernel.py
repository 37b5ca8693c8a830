import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopreg import kernel
from loopreg.kernel import (
    ConstantEntry,
    RegularizedValue,
    ScalarLoopIntegral,
    StillDivergentError,
)


class TestScalarLoopIntegral:
    def test_rejects_nonpositive_power(self):
        with pytest.raises(ValueError):
            ScalarLoopIntegral(power=0)


class TestSuperficialDegree:
    @pytest.mark.parametrize("power,degree", [(2, 0), (3, -2), (1, 2), (4, -4)])
    def test_degree(self, power, degree):
        assert kernel.superficial_degree(ScalarLoopIntegral(power=power)) == degree


class TestDifferentiationCount:
    @pytest.mark.parametrize("power,count", [(2, 1), (3, 0), (1, 2), (5, 0)])
    def test_count(self, power, count):
        assert kernel.differentiation_count(ScalarLoopIntegral(power=power)) == count

    @pytest.mark.parametrize("power", range(1, 8))
    def test_count_is_minimal(self, power):
        t = kernel.differentiation_count(ScalarLoopIntegral(power=power))
        assert 4 - 2 * (power + t) < 0
        if t > 0:
            assert 4 - 2 * (power + t - 1) >= 0


class TestDifferentiateInMassSq:
    def test_single_step_from_log_member(self):
        shifted, pref = kernel.differentiate_in_masssq(ScalarLoopIntegral(power=2), 1)
        assert shifted.power == 3
        assert pref == Fraction(2)

    def test_zero_steps_identity(self):
        integral = ScalarLoopIntegral(power=2)
        shifted, pref = kernel.differentiate_in_masssq(integral, 0)
        assert shifted == integral
        assert pref == Fraction(1)

    def test_two_steps_from_quadratic_member(self):
        shifted, pref = kernel.differentiate_in_masssq(ScalarLoopIntegral(power=1), 2)
        assert shifted.power == 3
        assert pref == Fraction(2)  # 1*2

    def test_rising_factorial(self):
        _, pref = kernel.differentiate_in_masssq(ScalarLoopIntegral(power=3), 3)
        assert pref == Fraction(3 * 4 * 5)

    def test_negative_times_rejected(self):
        with pytest.raises(ValueError):
            kernel.differentiate_in_masssq(ScalarLoopIntegral(power=2), -1)


class TestEvaluateConvergent:
    def test_cubic_member_exact(self):
        value = kernel.evaluate_convergent(ScalarLoopIntegral(power=3))
        assert value == RegularizedValue(-1, 0, Fraction(-1, 2))
        assert len(value.constants) == 0

    def test_cubic_member_numeric(self):
        value = kernel.evaluate_convergent(ScalarLoopIntegral(power=3))
        # -i/(32 pi^2) at M^2 = 1
        assert kernel.UNIT_NUMERIC * value.bracket(1.0) == pytest.approx(-1j * 3.16628698882e-3, rel=1e-11)

    def test_prefactor_scaled_matches_first_derivative_form(self):
        # 2 * I_3 = -i/(16 pi^2 M^2): unit multiple -1 at power -1
        value = kernel.evaluate_convergent(ScalarLoopIntegral(power=3)).scaled(2)
        assert value == RegularizedValue(-1, 0, -1)
        assert value.bracket(2.0) == pytest.approx(-0.5, rel=1e-15)

    def test_quartic_member_exact(self):
        value = kernel.evaluate_convergent(ScalarLoopIntegral(power=4))
        assert value == RegularizedValue(-2, 0, Fraction(1, 6))
        # at M^2 = 2 the bracket is 1/24
        assert value.bracket(2.0) == pytest.approx(1.0 / 24.0, rel=1e-15)

    @pytest.mark.parametrize("power, msq", [(3, 5e-309), (12, 9.586870883950833e-32), (3, 1e-320), (6, 1e-100)])
    def test_bracket_fits_where_the_power_of_msq_does_not(self, power, msq):
        # (M^2)^(2-n) overflows, or its product with the coefficient does; the exact value is in range
        value = kernel.evaluate_convergent(ScalarLoopIntegral(power=power))
        exact = value.coefficient * Fraction(msq) ** value.msq_power
        if abs(exact) > Fraction(1.7976931348623157e308):
            with pytest.raises(OverflowError, match=r"bracket past the float range: \(M\^2\)\^"):
                value.bracket(msq)
        else:
            assert value.bracket(msq) == pytest.approx(float(exact), rel=1e-12)

    @pytest.mark.parametrize("power", [1, 2])
    def test_divergent_rejected(self, power):
        with pytest.raises(StillDivergentError, match="still divergent"):
            kernel.evaluate_convergent(ScalarLoopIntegral(power=power))


class TestIntegrateBack:
    def test_single_integration_yields_log_and_constant(self):
        seed = kernel.evaluate_convergent(ScalarLoopIntegral(power=3)).scaled(2)
        value = kernel.integrate_back(seed, 1)
        assert value == RegularizedValue(0, -1, 0, (ConstantEntry(coefficient=Fraction(-1), msq_power=0),))
        assert value.constant_dimension(value.constants[0]) == 0

    def test_zero_times_identity(self):
        seed = kernel.evaluate_convergent(ScalarLoopIntegral(power=3))
        assert kernel.integrate_back(seed, 0) == seed

    def test_double_integration_two_constants(self):
        seed = kernel.evaluate_convergent(ScalarLoopIntegral(power=3)).scaled(2)
        value = kernel.integrate_back(seed, 2)
        assert (value.msq_power, value.log_coefficient, value.coefficient) == (1, -1, 1)
        c1, c2 = value.constants
        assert (value.constant_dimension(c1), c1.coefficient, c1.msq_power) == (0, Fraction(-1), 1)
        assert (value.constant_dimension(c2), c2.coefficient, c2.msq_power) == (2, Fraction(-1), 0)

    def test_negative_times_rejected(self):
        with pytest.raises(ValueError):
            kernel.integrate_back(RegularizedValue(), -1)

    def test_verified_by_symbolic_differentiation(self):
        seed = kernel.evaluate_convergent(ScalarLoopIntegral(power=3)).scaled(2)
        twice = kernel.integrate_back(seed, 2)
        assert twice.differentiate().differentiate() == seed

    # d/dM^2 undoes one integration: the fresh constant sits at power 0 and is annihilated
    @settings(max_examples=300)
    @given(
        st.integers(-6, 6),
        st.fractions(-10, 10, max_denominator=12),
        st.fractions(-10, 10, max_denominator=12),
    )
    def test_differentiate_inverts_one_integration(self, p, a, b):
        if p == -1:
            a = Fraction(0)  # (M^2)^-1 ln(M^2) would integrate to ln^2(M^2)
        back = kernel.integrate_back(RegularizedValue(p, a, b), 1).differentiate()
        assert (back.msq_power, back.log_coefficient, back.coefficient, back.constants) == (p, a, b, ())

    def test_log_at_inverse_power_not_integrable(self):
        with pytest.raises(ValueError, match="ln\\^2"):
            kernel.integrate_back(RegularizedValue(-1, 1, 0), 1)


class TestRegularize:
    def test_log_member(self):
        value = kernel.regularize(ScalarLoopIntegral(power=2))
        assert value == RegularizedValue(0, -1, 0, (ConstantEntry(coefficient=Fraction(-1), msq_power=0),))
        assert value.render() == "(i/(16*pi^2)) * (-ln(M^2) - C1)"

    def test_convergent_bypass(self):
        value = kernel.regularize(ScalarLoopIntegral(power=3))
        assert value == kernel.evaluate_convergent(ScalarLoopIntegral(power=3))
        assert len(value.constants) == 0

    def test_quadratic_member(self):
        value = kernel.regularize(ScalarLoopIntegral(power=1))
        seed = kernel.evaluate_convergent(ScalarLoopIntegral(power=3)).scaled(2)
        assert value == kernel.integrate_back(seed, 2)

    @pytest.mark.parametrize("power", range(1, 7))
    def test_ledger_size_equals_differentiation_count(self, power):
        integral = ScalarLoopIntegral(power=power)
        value = kernel.regularize(integral)
        assert len(value.constants) == kernel.differentiation_count(integral)
        assert value.unfixed_count == kernel.differentiation_count(integral)

    @pytest.mark.parametrize("power", range(1, 7))
    def test_coefficients_stay_exact_rationals(self, power):
        value = kernel.regularize(ScalarLoopIntegral(power=power))
        assert isinstance(value.log_coefficient, Fraction) and isinstance(value.coefficient, Fraction)
        assert all(isinstance(e.coefficient, Fraction) for e in value.constants)

    @pytest.mark.parametrize("power", range(1, 7))
    def test_constant_dimensions_nonnegative_even(self, power):
        value = kernel.regularize(ScalarLoopIntegral(power=power))
        for e in value.constants:
            assert value.constant_dimension(e) >= 0
            assert value.constant_dimension(e) % 2 == 0

    @pytest.mark.parametrize("power", range(1, 7))
    def test_ledger_dimensions(self, power):
        # C1 is dimensionless; at n = 1 the second constant, C2, carries mass dimension 2
        value = kernel.regularize(ScalarLoopIntegral(power=power))
        dimensions = [value.constant_dimension(e) for e in value.constants]
        assert dimensions == {1: [0, 2], 2: [0]}.get(power, [])

    @pytest.mark.parametrize("power", range(1, 13))
    def test_derivative_ladder(self, power):
        # d/dM^2 I_n = n * I_{n+1}, across the divergent/convergent boundary
        value = kernel.regularize(ScalarLoopIntegral(power=power))
        assert value.differentiate() == kernel.regularize(ScalarLoopIntegral(power=power + 1)).scaled(power)

    def test_constants_vanish_under_derivatives(self):
        value = kernel.regularize(ScalarLoopIntegral(power=1))
        assert len(value.differentiate().constants) == 1
        assert len(value.differentiate().differentiate().constants) == 0


class TestRegularizeCache:
    def test_cache_is_bounded(self):
        # the power comes from user input (regularize --n), so the cache must not grow with it
        maxsize = kernel.regularize.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize < 1000

    def test_alias_leaves_the_cached_value_unaliased(self):
        cached = kernel.regularize(ScalarLoopIntegral(power=2))
        aliased = cached.with_scale_alias(1, 0.7)
        assert aliased.constants[0].scale_alias == 0.7
        again = kernel.regularize(ScalarLoopIntegral(power=2))
        assert again is cached and again.unfixed_count == 1
        assert again.constants[0].scale_alias is None and again.constants[0].value is None


class TestScaleAlias:
    @pytest.mark.parametrize("mu1", [0.1, 0.5, 1.0, 2.0, 80.0])
    def test_bracket_vanishes_at_aliased_scale(self, mu1):
        value = kernel.regularize(ScalarLoopIntegral(power=2)).with_scale_alias(1, mu1)
        assert value.bracket(mu1**2) == 0.0

    def test_aliased_value_is_log_ratio(self):
        mu1 = 0.7
        value = kernel.regularize(ScalarLoopIntegral(power=2)).with_scale_alias(1, mu1)
        for msq in (0.2, 1.0, 3.7):
            assert value.bracket(msq) == pytest.approx(-math.log(msq / mu1**2), rel=1e-14, abs=1e-14)

    def test_alias_requires_dimensionless_constant(self):
        value = kernel.regularize(ScalarLoopIntegral(power=1))
        with pytest.raises(ValueError, match="mass dimension 2"):
            value.with_scale_alias(2, 1.0)  # C2 carries mass dimension 2

    def test_alias_identity_stored_exactly(self):
        # C = -ln(mu^2) is carried as -2 ln(mu); at mu = 0.9 that differs from -ln(mu**2) in the last bit
        value = kernel.regularize(ScalarLoopIntegral(power=2)).with_scale_alias(1, 0.9)
        entry = value.constants[0]
        assert entry.value == -2.0 * math.log(0.9) != -math.log(0.9**2)
        assert entry.scale_alias == 0.9

    def test_entry_derives_its_value_from_the_alias(self):
        entry = ConstantEntry(coefficient=1, scale_alias=1.3)
        assert entry.value == -2.0 * math.log(1.3)
        assert ConstantEntry(coefficient=1, value=entry.value, scale_alias=1.3) == entry
        with pytest.raises(ValueError, match="exactly"):
            ConstantEntry(coefficient=1, value=-math.log(1.3**2), scale_alias=1.3)

    def test_unfixed_constant_blocks_numerics(self):
        value = kernel.regularize(ScalarLoopIntegral(power=2))
        with pytest.raises(ValueError, match="C1"):
            value.bracket(1.0)

    def test_fix_constant_by_value(self):
        value = kernel.regularize(ScalarLoopIntegral(power=2)).with_constant_fixed(1, 0.0)
        assert value.bracket(1.0) == pytest.approx(0.0, abs=1e-300)
        assert value.bracket(math.e) == pytest.approx(-1.0, rel=1e-15)


class TestDegenerateMass:
    def test_zero_mass_rejected_for_log_content(self):
        value = kernel.regularize(ScalarLoopIntegral(power=2)).with_constant_fixed(1, 0.0)
        with pytest.raises(ValueError, match="logarithm"):
            value.bracket(0.0)

    def test_zero_mass_rejected_for_inverse_powers(self):
        value = kernel.evaluate_convergent(ScalarLoopIntegral(power=3))
        with pytest.raises(ValueError):
            value.bracket(0.0)

    def test_zero_mass_accepted_for_polynomials(self):
        value = RegularizedValue(1, Fraction(7, 2), 3)
        # polynomial-only variant
        poly = RegularizedValue(1, 0, 3)
        assert poly.bracket(0.0) == 0.0
        with pytest.raises(ValueError):
            value.bracket(0.0)

    def test_negative_mass_always_rejected(self):
        poly = RegularizedValue(1, 0, 3)
        with pytest.raises(ValueError):
            poly.bracket(-1.0)


class TestValueInvariants:
    def test_ledger_position_names_each_constant(self):
        value = kernel.regularize(ScalarLoopIntegral(power=1))
        assert value.names == ("C1", "C2")
        # d/dM^2 annihilates C2, the constant at power 0; C1 keeps its position and so its name
        assert value.differentiate().names == ("C1",)
        assert RegularizedValue().names == ()

    @pytest.mark.parametrize("index", [0, 2])
    def test_missing_constant_index_raises_key_error(self, index):
        value = kernel.regularize(ScalarLoopIntegral(power=2))  # only C1
        with pytest.raises(KeyError, match=f"C{index}"):
            value.with_constant_fixed(index, 0.0)

    def test_render_quadratic_member(self):
        value = kernel.regularize(ScalarLoopIntegral(power=1))
        assert value.render() == "(i/(16*pi^2)) * (-M^2*ln(M^2) + M^2 - M^2*C1 - C2)"

    def test_scaled_by_zero_is_zero_with_an_empty_ledger(self):
        value = kernel.regularize(ScalarLoopIntegral(power=1)).scaled(0)
        assert value == RegularizedValue(1)  # its power kept, both coefficients 0 and no constant


class TestConstantEntryRefusals:
    def test_negative_monomial_power(self):
        with pytest.raises(ValueError) as excinfo:
            ConstantEntry(1, msq_power=-1)
        assert str(excinfo.value) == "constant monomial power must be non-negative"

    def test_zero_coefficient(self):
        with pytest.raises(ValueError) as excinfo:
            ConstantEntry(0)
        assert str(excinfo.value) == "constant coefficient must be nonzero"
