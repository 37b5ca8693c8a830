"""The frozen value types: every one compares, hashes, prints, copies and
pickles by its fields, refuses assignment and deletion, and validates again
on ``replace``.  A regularized value is one power of M^2, two exact
coefficients (of ln(M^2) and of 1) and its ledger of constants."""

import copy
import math
import pickle
from fractions import Fraction

import pytest

from loopreg import cli, feynpar, kernel, oracle, phi4, qed

_LN4 = "1.3862943611198906"
_REGULARIZED_N2 = (
    "RegularizedValue(msq_power=0, log_coefficient=Fraction(-1, 1), coefficient=Fraction(0, 1), "
    "constants=(ConstantEntry(coefficient=Fraction(-1, 1), msq_power=0, value=None, scale_alias=None),))"
)

#: (record, its exact repr, a replace that must fail validation, the error it raises)
_CASES = [
    (cli.RunConfig(), "RunConfig(units='GeV', precision=12, out_format='json')", {"precision": 3}, ValueError),
    (kernel.ScalarLoopIntegral(2), "ScalarLoopIntegral(power=2)", {"power": 0}, ValueError),
    (
        kernel.ConstantEntry(-1, scale_alias=0.5),
        f"ConstantEntry(coefficient=Fraction(-1, 1), msq_power=0, value={_LN4}, scale_alias=0.5)",
        {"value": 1.0},
        ValueError,
    ),
    (
        kernel.regularize(kernel.ScalarLoopIntegral(2)),
        _REGULARIZED_N2,
        {"msq_power": 1.5},
        TypeError,
    ),
    (oracle.QuadratureSpec(1e-8), "QuadratureSpec(rel_tol=1e-08)", {"rel_tol": 1e-3}, ValueError),
    (
        oracle.CutoffProbe(2, 1.0, (10, 100)),
        "CutoffProbe(power=2, mass_sq=1.0, lambda_grid=(10.0, 100.0), quadrature=QuadratureSpec(rel_tol=1e-10))",
        {"lambda_grid": (100, 10)},
        ValueError,
    ),
    (oracle.DivergenceSignature("log", 1.0), "DivergenceSignature(kind='log', coefficient=1.0)", None, None),
    (phi4.SSBPotential(1.0, 6.0), "SSBPotential(sigma=1.0, lam=6.0)", {"sigma": 0.0}, ValueError),
    (
        phi4.ResummationState(0.5, 1.0),
        "ResummationState(lambda0=0.5, mu0=1.0, beta_coeff=0.0284965828994075)",
        {"mu0": -1.0},
        ValueError,
    ),
    (qed.MassShift(1.5e-6, 0.5), "MassShift(delta_m=1.5e-06, log_ratio=0.5)", {"delta_m": math.inf}, OverflowError),
    (
        feynpar.PolyLogIntegrand((1, 2), 1),
        "PolyLogIntegrand(poly_coeffs=(Fraction(1, 1), Fraction(2, 1)), log_weight=1)",
        {"log_weight": 2},
        ValueError,
    ),
]
_IDS = [type(record).__name__ for record, *_ in _CASES]


def _fields(record):
    return tuple(getattr(record, name) for name in type(record).__match_args__)


def _twin(record):
    """An instance of a subclass with the same fields: equal values, another type."""
    return type("Twin", (type(record),), {})(*_fields(record))


@pytest.mark.parametrize("record, text, bad, error", _CASES, ids=_IDS)
class TestFrozenRecord:
    def test_equal_by_fields_and_only_to_its_own_type(self, record, text, bad, error):
        same = type(record)(*_fields(record))
        assert same == record and not same != record
        assert hash(same) == hash(record) == hash(_fields(record))
        twin = _twin(record)
        assert record.__eq__(twin) is NotImplemented and record != twin and twin != record
        assert record != _fields(record)

    def test_refuses_assignment_and_deletion(self, record, text, bad, error):
        name = type(record).__match_args__[0]
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.extra = 1
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert _fields(record) == _fields(type(record)(*_fields(record)))

    def test_repr(self, record, text, bad, error):
        assert repr(record) == text

    def test_replace_validates_again(self, record, text, bad, error):
        first = type(record).__match_args__[0]
        assert record.replace() == record
        assert record.replace(**{first: getattr(record, first)}) == record
        if bad is not None:
            with pytest.raises(error):
                record.replace(**bad)
        with pytest.raises(TypeError):
            record.replace(no_such_field=1)

    def test_copy_deepcopy_and_pickle_round_trip(self, record, text, bad, error):
        for other in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert type(other) is type(record)
            assert other == record and hash(other) == hash(record)
            assert repr(other) == text


def test_replace_canonicalizes_like_the_constructor():
    value = kernel.RegularizedValue(1, 0, 2)
    assert value.replace(coefficient=3) == kernel.RegularizedValue(1, 0, 3)
    assert type(value.replace(coefficient=3).coefficient) is Fraction
    assert value.replace(constants=[kernel.ConstantEntry(1)]).constants == (kernel.ConstantEntry(1),)
    probe = oracle.CutoffProbe(2, 1.0, (10.0, 100.0))
    assert probe.replace(lambda_grid=[10, 1000]).lambda_grid == (10.0, 1000.0)
    entry = kernel.ConstantEntry(1, scale_alias=0.5)
    assert entry.replace(value=None, scale_alias=2.0).value == -2.0 * math.log(2.0)


def test_probe_radials_are_computed_once_and_ignored_by_equality(monkeypatch):
    calls = []  # the cutoffs the probe reads, one radial_integral each
    real = oracle.radial_integral
    monkeypatch.setattr(oracle, "radial_integral", lambda power, mass_sq, cutoff, rel_tol: calls.append(cutoff) or real(power, mass_sq, cutoff, rel_tol))
    probe = oracle.CutoffProbe(2, 1.0, (10.0, 100.0))
    radials = probe.radials
    assert probe.radials is radials and calls == [10.0, 100.0]
    fresh = oracle.CutoffProbe(2, 1.0, (10.0, 100.0))
    assert fresh == probe and hash(fresh) == hash(probe)
    for other in (copy.copy(probe), copy.deepcopy(probe), pickle.loads(pickle.dumps(probe))):
        assert other == probe and other.radials == radials
    with pytest.raises(AttributeError):
        probe.radials = ()
