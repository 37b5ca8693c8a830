"""Exact symbolic layer for the scalar one-loop integral family.

The objects here represent

    I_n(M^2) = integral d^4K/(2 pi)^4 * (K^2 - M^2)^(-n),    n >= 1,

with the loop momentum already shifted so the denominator depends on K^2
alone.  Members with n <= 2 diverge at large K.  The reduction implemented
by :func:`regularize` differentiates in M^2 until the power counting turns
negative, evaluates the convergent closed form, and integrates back in M^2
the same number of times.  The result is one power of M^2 times
(a ln(M^2) + b) with no divergent piece, e.g. I_2 = -ln(M^2) - C1 and
I_1 = M^2 (-ln(M^2) + 1) - C1 M^2 - C2 (in the unit below).  Each indefinite
integration births one arbitrary constant, recorded in order in the ledger
``RegularizedValue.constants``; renormalization later fixes those constants
against physical conditions instead of subtracting anything.

Every coefficient is an exact :class:`fractions.Fraction` multiple of the
unit i/(16 pi^2), and an integral is symbolic in M^2: nothing is rounded
until a caller evaluates at a mass with ``RegularizedValue.bracket``, the one
numeric evaluation.  (Differentiating in M^2 is equivalent to shifting M^2 ->
M^2 + s and differentiating in the auxiliary parameter s; only the M^2 form is
implemented.)
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache

from . import _Record, _positive

__all__ = [
    "UNIT_LABEL",
    "UNIT_NUMERIC",
    "StillDivergentError",
    "ScalarLoopIntegral",
    "ConstantEntry",
    "RegularizedValue",
    "superficial_degree",
    "differentiation_count",
    "differentiate_in_masssq",
    "evaluate_convergent",
    "integrate_back",
    "regularize",
]

#: Human-readable name of the unit all coefficients are multiples of.
UNIT_LABEL = "i/(16*pi^2)"

#: Numeric value of that unit.
UNIT_NUMERIC = 1j / (16.0 * math.pi**2)


class StillDivergentError(ValueError):
    """Closed-form evaluation was requested for a still divergent integral."""


def _as_fraction(value: int | Fraction) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational (int or Fraction), got {type(value).__name__}")


class ScalarLoopIntegral(_Record):
    """(K^2 - M^2)^(-power) integrated over d^4K/(2 pi)^4, symbolic in M^2: a mass
    enters only where a caller evaluates the regularized value (``RegularizedValue.bracket``)."""

    __slots__ = __match_args__ = ("power",)

    def __init__(self, power: int) -> None:
        if not isinstance(power, int) or power < 1:
            raise ValueError(f"denominator power must be a positive integer, got {power!r}")
        object.__setattr__(self, "power", power)


def superficial_degree(integral: ScalarLoopIntegral) -> int:
    """Power-counting degree D = 4 - 2n; D >= 0 flags a divergent integral.

    D = 0 is the logarithmic case, D = 2 quadratic, D < 0 convergent.
    """
    return 4 - 2 * integral.power


def differentiation_count(integral: ScalarLoopIntegral) -> int:
    """Smallest t such that power n+t makes the integral convergent: max(0, 3-n)."""
    return max(0, 3 - integral.power)


def differentiate_in_masssq(
    integral: ScalarLoopIntegral, times: int
) -> tuple[ScalarLoopIntegral, Fraction]:
    """Apply (d/dM^2)^times to the integrand.

    Each derivative of (K^2 - M^2)^(-n) yields n * (K^2 - M^2)^(-n-1), so the
    result is the integral with power n+times together with the exact rising
    factorial prefactor n(n+1)...(n+times-1).
    """
    if times < 0:
        raise ValueError(f"times must be non-negative, got {times}")
    n = integral.power
    return integral.replace(power=n + times), Fraction(math.prod(range(n, n + times)))


class ConstantEntry(_Record):
    """One arbitrary integration constant and the monomial (M^2)^msq_power it
    multiplies; its position in the ledger names it (the i-th entry is C_i).

    Its mass dimension follows from the value it sits in (``RegularizedValue.constant_dimension``).
    A constant may be fixed through a scale alias mu with C = -ln(mu^2), which turns a bare
    ln(M^2) into ln(M^2/mu^2); ``value`` is then derived from the alias as -2 ln(mu).
    """

    __slots__ = __match_args__ = ("coefficient", "msq_power", "value", "scale_alias")

    def __init__(self, coefficient: int | Fraction, msq_power: int = 0,
                 value: float | None = None, scale_alias: float | None = None) -> None:
        coefficient = _as_fraction(coefficient)
        if msq_power < 0:
            raise ValueError("constant monomial power must be non-negative")
        if coefficient == 0:
            raise ValueError("constant coefficient must be nonzero")
        if scale_alias is not None:
            _positive("scale", scale_alias)
            derived = -2.0 * math.log(scale_alias)
            if value is not None and value != derived:
                raise ValueError("aliased constant must satisfy C = -ln(mu^2) exactly")
            value = derived
        object.__setattr__(self, "coefficient", coefficient)
        object.__setattr__(self, "msq_power", msq_power)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "scale_alias", scale_alias)

    @property
    def is_fixed(self) -> bool:
        return self.value is not None


class RegularizedValue(_Record):
    """Closed-form content of a loop integral, one power of M^2 and two exact
    coefficients plus a constant ledger:

        (M^2)^msq_power * (log_coefficient * ln(M^2) + coefficient)
            + sum_i kappa_i * C_i * (M^2)^q_i.

    ``constants`` is the ledger: the arbitrary constants in order, one per
    integration, so the i-th entry is C_i (``names``).  The value has the
    mass dimension 2*msq_power, so a constant's own dimension follows from
    its monomial: 2*(msq_power - q_i).
    """

    __slots__ = __match_args__ = ("msq_power", "log_coefficient", "coefficient", "constants")

    def __init__(self, msq_power: int = 0, log_coefficient: int | Fraction = 0, coefficient: int | Fraction = 0,
                 constants: Iterable[ConstantEntry] = ()) -> None:
        if not isinstance(msq_power, int):
            raise TypeError(f"msq_power must be an integer, got {type(msq_power).__name__}")
        object.__setattr__(self, "msq_power", msq_power)
        object.__setattr__(self, "log_coefficient", _as_fraction(log_coefficient))
        object.__setattr__(self, "coefficient", _as_fraction(coefficient))
        object.__setattr__(self, "constants", tuple(constants))

    # -- structure ---------------------------------------------------------

    def constant_dimension(self, entry: ConstantEntry) -> int:
        """Mass dimension of a ledger constant: what its monomial leaves of the value's."""
        return 2 * (self.msq_power - entry.msq_power)

    @property
    def names(self) -> tuple[str, ...]:
        """C1, C2, ...: each constant's name, its position in the ledger."""
        return tuple(f"C{i}" for i in range(1, len(self.constants) + 1))

    @property
    def unfixed_count(self) -> int:
        return sum(not e.is_fixed for e in self.constants)

    def scaled(self, factor: int | Fraction) -> "RegularizedValue":
        """Multiply the whole value (coefficients and constants) by an exact rational."""
        f = _as_fraction(factor)
        if f == 0:
            return RegularizedValue(self.msq_power)
        entries = tuple(e.replace(coefficient=e.coefficient * f) for e in self.constants)
        return RegularizedValue(self.msq_power, self.log_coefficient * f, self.coefficient * f, entries)

    def differentiate(self) -> "RegularizedValue":
        """Symbolic d/dM^2: (M^2)^p (a ln M^2 + b) -> (M^2)^(p-1) (p a ln M^2 + a + p b).
        Constants sitting at power 0 are annihilated."""
        p, a = self.msq_power, self.log_coefficient
        entries = tuple(
            e.replace(coefficient=e.coefficient * e.msq_power, msq_power=e.msq_power - 1)
            for e in self.constants
            if e.msq_power > 0
        )
        return RegularizedValue(p - 1, p * a, a + p * self.coefficient, entries)

    # -- constant fixing ----------------------------------------------------

    def _with_constant(self, index: int, value: float | None, scale_alias: float | None) -> "RegularizedValue":
        if not 1 <= index <= len(self.constants):
            raise KeyError(f"no constant C{index} in ledger")
        entry = self.constants[index - 1].replace(value=value, scale_alias=scale_alias)
        dimension = self.constant_dimension(entry)
        if scale_alias is not None and dimension != 0:
            raise ValueError(f"constant has mass dimension {dimension}; only dimensionless constants alias a scale")
        return self.replace(constants=(*self.constants[: index - 1], entry, *self.constants[index:]))

    def with_constant_fixed(self, index: int, value: float) -> "RegularizedValue":
        """Fix C_index to a plain numeric value (units GeV^constant_dimension)."""
        return self._with_constant(index, float(value), None)

    def with_scale_alias(self, index: int, mu: float) -> "RegularizedValue":
        """Fix the dimensionless C_index through C = -ln(mu^2), mu in GeV; the
        ledger entry derives C from the alias."""
        return self._with_constant(index, None, float(mu))

    # -- numerics -----------------------------------------------------------

    def bracket(self, msq: float) -> float:
        """Numeric value of the bracketed expression, i.e. the multiple of i/(16 pi^2).

        All constants must be fixed.  msq = 0 is accepted only for purely polynomial content (a log
        term or inverse power is singular there).  Where c * msq**p overflows, the coefficient term is
        sign(c) * exp(ln|c| + p ln msq); a term still past the float range raises OverflowError.
        """
        p, a, b = self.msq_power, self.log_coefficient, self.coefficient
        if msq < 0:
            raise ValueError(f"mass_sq must be non-negative, got {msq!r}")
        if msq == 0 and (a or (p < 0 and b)):
            raise ValueError("mass_sq = 0 hits a logarithm/pole: the value is singular there")
        if self.constants:  # a closed form has no ledger to name
            unfixed = [name for name, e in zip(self.names, self.constants) if not e.is_fixed]
            if unfixed:
                raise ValueError(f"cannot evaluate numerically: unfixed constants {', '.join(unfixed)}")
        try:
            pieces = [float(e.coefficient) * e.value * msq**e.msq_power for e in self.constants]
            if a:
                pieces.append(float(a) * msq**p * math.log(msq))
            if b:
                c = float(b)
                try:
                    term = c * msq**p
                except OverflowError:
                    term = math.inf
                if math.isinf(term):  # (M^2)^p, or its product, past the float range: taken from the logarithm
                    term = math.copysign(math.exp(math.log(abs(c)) + p * math.log(msq)), c)
                pieces.append(term)
        except OverflowError:
            raise OverflowError(f"bracket past the float range: (M^2)^{p} at mass_sq={msq!r}") from None
        return math.fsum(pieces)

    # -- rendering ----------------------------------------------------------

    def render(self) -> str:
        """Readable form, e.g. '(i/(16*pi^2)) * (-ln(M^2) - C1)'."""
        monomials = [(self.log_coefficient, self.msq_power, "ln(M^2)"), (self.coefficient, self.msq_power, None)]
        monomials += [(e.coefficient, e.msq_power, name) for name, e in zip(self.names, self.constants)]
        pieces: list[str] = []
        for coeff, power, symbol in monomials:
            if coeff:
                pieces.append(_format_piece(coeff, power, symbol, not pieces))
        body = " ".join(pieces) if pieces else "0"
        return f"({UNIT_LABEL}) * ({body})"


def _format_piece(coeff: Fraction, power: int, symbol: str | None, leading: bool) -> str:
    sign = "-" if coeff < 0 else "+"
    mag = abs(coeff)
    factors: list[str] = []
    if power == 1:
        factors.append("M^2")
    elif power != 0:
        factors.append(f"(M^2)^{power}")
    if symbol is not None:
        factors.append(symbol)
    if mag != 1 or not factors:
        factors.insert(0, str(mag))
    body = "*".join(factors)
    if leading:
        return body if sign == "+" else f"-{body}"
    return f"{sign} {body}"


def evaluate_convergent(integral: ScalarLoopIntegral) -> RegularizedValue:
    """Exact closed form of a convergent member (power n >= 3).

    Wick rotation sends the integral to i(-1)^n/(8 pi^2) * R with the
    Euclidean radial integral R = int_0^inf k^3 (k^2+M^2)^(-n) dk
    = (M^2)^(2-n) / (2 (n-1)(n-2))   [substitute u = k^2, then v = u + M^2].
    Hence I_n(M^2) = i(-1)^n/(16 pi^2) * (M^2)^(2-n) / ((n-1)(n-2)).
    """
    n = integral.power
    if superficial_degree(integral) >= 0:
        raise StillDivergentError(
            f"power {n} is still divergent (degree {superficial_degree(integral)}); "
            "differentiate before evaluating"
        )
    return RegularizedValue(2 - n, 0, Fraction((-1) ** n, (n - 1) * (n - 2)))


def _integrate_once(value: RegularizedValue) -> RegularizedValue:
    """(M^2)^p (a ln M^2 + b) -> (M^2)^q (a/q ln M^2 + b/q - a/q^2) with q = p + 1,
    or b ln M^2 at q = 0, plus one fresh constant."""
    p, a, b = value.msq_power, value.log_coefficient, value.coefficient
    q = p + 1
    if q == 0 and a:
        raise ValueError("integration would produce ln^2(M^2), outside the supported closed algebra")
    log_coefficient, coefficient = (b, 0) if q == 0 else (a / q, b / q - a / q**2)
    entries = [
        e.replace(coefficient=e.coefficient / (e.msq_power + 1), msq_power=e.msq_power + 1)
        for e in value.constants
    ]
    # The fresh constant pairs with the log it completes (same coefficient),
    # so that C = -ln(mu^2) later closes the log into ln(M^2/mu^2); with no
    # log created this step it inherits the running bracket coefficient.
    if q == 0 and b:
        kappa = b
    elif value.constants:
        kappa = value.constants[-1].coefficient
    else:
        kappa = Fraction(1)
    entries.append(ConstantEntry(kappa))
    return RegularizedValue(q, log_coefficient, coefficient, entries)


def integrate_back(value: RegularizedValue, times: int) -> RegularizedValue:
    """Antidifferentiate in M^2 ``times`` times, appending one arbitrary
    constant per application."""
    if times < 0:
        raise ValueError(f"times must be non-negative, got {times}")
    current = value
    for _ in range(times):
        current = _integrate_once(current)
    return current


@lru_cache(maxsize=64)
def regularize(integral: ScalarLoopIntegral) -> RegularizedValue:
    """Full reduction: differentiate to convergence, evaluate, integrate back.

    (d/dM^2)^t I_n = prefactor * I_{n+t}, so the evaluated convergent member
    is multiplied by the prefactor before the t integrations that return to
    I_n.  Convergent inputs (t = 0) pass straight through evaluation.

    The result depends on the power alone and is a frozen record, so it is
    cached per power; the cache keeps the 64 most recent powers, since a
    power may come from user input.
    """
    t = differentiation_count(integral)
    shifted, prefactor = differentiate_in_masssq(integral, t)
    convergent = evaluate_convergent(shifted)
    return integrate_back(convergent.scaled(prefactor), t)
