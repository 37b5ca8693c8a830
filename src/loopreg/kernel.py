"""Exact symbolic layer for the scalar one-loop integral family.

The objects here represent

    I_n(M^2) = integral d^4K/(2 pi)^4 * (K^2 - M^2)^(-n),    n >= 1,

with the loop momentum already shifted so the denominator depends on K^2
alone.  Members with n <= 2 diverge at large K.  The reduction implemented
by :func:`regularize` differentiates in M^2 until the power counting turns
negative, evaluates the convergent closed form, and integrates back in M^2
the same number of times.  Each indefinite integration births one arbitrary
constant, recorded in order in the ledger ``RegularizedValue.constants``;
renormalization later fixes those constants against physical conditions
instead of subtracting anything.

Every coefficient is an exact :class:`fractions.Fraction` multiple of the
unit i/(16 pi^2); nothing is rounded until a caller asks for a numeric
value.  (Differentiating in M^2 is equivalent to shifting M^2 -> M^2 + s
and differentiating in the auxiliary parameter s; only the M^2 form is
implemented.)
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Union

from . import _Record

__all__ = [
    "UNIT_LABEL",
    "UNIT_NUMERIC",
    "StillDivergentError",
    "ScalarLoopIntegral",
    "Term",
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

RationalLike = Union[int, Fraction]


class StillDivergentError(ValueError):
    """Closed-form evaluation was requested for a still divergent integral."""


def _as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational (int or Fraction), got {type(value).__name__}")


class ScalarLoopIntegral(_Record):
    """(K^2 - M^2)^(-power) integrated over d^4K/(2 pi)^4.

    ``mass_sq`` is the squared mass parameter in GeV^2, or ``None`` when the
    integral is kept symbolic in M^2 (as ``qed`` keeps it, to read the
    on-shell M^2 = m^2 x^2 into its log).
    """

    __slots__ = __match_args__ = ("power", "mass_sq")

    def __init__(self, power: int, mass_sq: Optional[float] = None) -> None:
        if not isinstance(power, int) or power < 1:
            raise ValueError(f"denominator power must be a positive integer, got {power!r}")
        if mass_sq is not None and not mass_sq > 0:
            raise ValueError(f"numeric mass_sq must be positive, got {mass_sq!r}")
        object.__setattr__(self, "power", power)
        object.__setattr__(self, "mass_sq", mass_sq)


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
    prefactor = Fraction(1)
    for k in range(times):
        prefactor *= n + k
    return integral.replace(power=n + times), prefactor


class Term(_Record):
    """One summand c * (M^2)^p * ln(M^2)^l of a regularized value, l in {0, 1}.

    ``coefficient`` is an exact rational multiple of i/(16 pi^2).
    """

    __slots__ = __match_args__ = ("coefficient", "msq_power", "has_log")

    def __init__(self, coefficient: RationalLike, msq_power: int, has_log: bool = False) -> None:
        object.__setattr__(self, "coefficient", _as_fraction(coefficient))
        if not isinstance(msq_power, int):
            raise TypeError(f"msq_power must be an integer, got {type(msq_power).__name__}")
        object.__setattr__(self, "msq_power", msq_power)
        object.__setattr__(self, "has_log", has_log)


class ConstantEntry(_Record):
    """One arbitrary integration constant and the monomial it multiplies; its
    position in the ledger names it (the i-th entry is C_i).

    The constant itself carries ``mass_dimension`` (GeV^mass_dimension); its
    monomial factor (M^2)^msq_power evolves under later integrations exactly
    like any other term.  A dimensionless constant may be fixed through a
    scale alias mu with C = -ln(mu^2), which is what turns a bare ln(M^2)
    into ln(M^2/mu^2); ``value`` is then derived from the alias as -2 ln(mu).
    """

    __slots__ = __match_args__ = ("mass_dimension", "coefficient", "msq_power", "value", "scale_alias")

    def __init__(self, mass_dimension: int, coefficient: RationalLike, msq_power: int = 0,
                 value: Optional[float] = None, scale_alias: Optional[float] = None) -> None:
        coefficient = _as_fraction(coefficient)
        if mass_dimension % 2 != 0:
            raise ValueError(f"mass dimension must be even, got {mass_dimension}")
        if msq_power < 0:
            raise ValueError("constant monomial power must be non-negative")
        if coefficient == 0:
            raise ValueError("constant coefficient must be nonzero")
        if scale_alias is not None:
            if not scale_alias > 0:
                raise ValueError(f"scale must be positive, got {scale_alias!r}")
            if mass_dimension != 0:
                raise ValueError(f"constant has mass dimension {mass_dimension}; only dimensionless constants alias a scale")
            derived = -2.0 * math.log(scale_alias)
            if value is not None and value != derived:
                raise ValueError("aliased constant must satisfy C = -ln(mu^2) exactly")
            value = derived
        object.__setattr__(self, "mass_dimension", mass_dimension)
        object.__setattr__(self, "coefficient", coefficient)
        object.__setattr__(self, "msq_power", msq_power)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "scale_alias", scale_alias)

    @property
    def is_fixed(self) -> bool:
        return self.value is not None


def _canonical_terms(terms: Iterable[Term]) -> tuple[Term, ...]:
    merged: dict[tuple[int, bool], Fraction] = {}
    for t in terms:
        key = (t.msq_power, t.has_log)
        merged[key] = merged.get(key, Fraction(0)) + t.coefficient
    kept = [
        Term(coeff, power, log)
        for (power, log), coeff in merged.items()
        if coeff != 0
    ]
    kept.sort(key=lambda t: (-t.msq_power, not t.has_log))
    return tuple(kept)


class RegularizedValue(_Record):
    """Closed-form content of a loop integral: exact terms plus a constant ledger.

    ``constants`` is the ledger: the arbitrary constants in order, one per
    integration, so the i-th entry is C_i (``names``).  The value is
    dimensionally homogeneous: all plain terms share one power of M^2 and
    every constant satisfies dim(C) + 2*msq_power == value dim.
    """

    __slots__ = __match_args__ = ("terms", "constants")

    def __init__(self, terms: Iterable[Term] = (), constants: Iterable[ConstantEntry] = ()) -> None:
        terms, constants = _canonical_terms(terms), tuple(constants)
        powers = {t.msq_power for t in terms}
        if len(powers) > 1:
            raise ValueError(f"terms mix mass dimensions (powers {sorted(powers)})")
        dims = {e.mass_dimension + 2 * e.msq_power for e in constants}
        if powers:
            dims.add(2 * next(iter(powers)))
        if len(dims) > 1:
            raise ValueError(f"value is not dimensionally homogeneous (dims {sorted(dims)})")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "constants", constants)

    # -- structure ---------------------------------------------------------

    @property
    def mass_dimension(self) -> int:
        if self.terms:
            return 2 * self.terms[0].msq_power
        if self.constants:
            e = self.constants[0]
            return e.mass_dimension + 2 * e.msq_power
        return 0

    @property
    def names(self) -> tuple[str, ...]:
        """C1, C2, ...: each constant's name, its position in the ledger."""
        return tuple(f"C{i}" for i in range(1, len(self.constants) + 1))

    @property
    def unfixed_count(self) -> int:
        return sum(not e.is_fixed for e in self.constants)

    def scaled(self, factor: RationalLike) -> "RegularizedValue":
        """Multiply the whole value (terms and constants) by an exact rational."""
        f = _as_fraction(factor)
        if f == 0:
            return RegularizedValue()
        terms = tuple(t.replace(coefficient=t.coefficient * f) for t in self.terms)
        entries = tuple(e.replace(coefficient=e.coefficient * f) for e in self.constants)
        return RegularizedValue(terms, entries)

    def differentiate(self) -> "RegularizedValue":
        """Symbolic d/dM^2.  Constants sitting at power 0 are annihilated."""
        terms: list[Term] = []
        for t in self.terms:
            p = t.msq_power
            if t.has_log:
                if p != 0:
                    terms.append(Term(t.coefficient * p, p - 1, True))
                terms.append(Term(t.coefficient, p - 1, False))
            elif p != 0:
                terms.append(Term(t.coefficient * p, p - 1, False))
        entries = [
            e.replace(coefficient=e.coefficient * e.msq_power, msq_power=e.msq_power - 1)
            for e in self.constants
            if e.msq_power > 0
        ]
        return RegularizedValue(tuple(terms), tuple(entries))

    # -- constant fixing ----------------------------------------------------

    def _with_constant(self, index: int, value: Optional[float], scale_alias: Optional[float]) -> "RegularizedValue":
        if not 1 <= index <= len(self.constants):
            raise KeyError(f"no constant C{index} in ledger")
        entries = list(self.constants)
        entries[index - 1] = entries[index - 1].replace(value=value, scale_alias=scale_alias)
        return RegularizedValue(self.terms, tuple(entries))

    def with_constant_fixed(self, index: int, value: float) -> "RegularizedValue":
        """Fix C_index to a plain numeric value (units GeV^mass_dimension)."""
        return self._with_constant(index, float(value), None)

    def with_scale_alias(self, index: int, mu: float) -> "RegularizedValue":
        """Fix the dimensionless C_index through C = -ln(mu^2), mu in GeV; the
        ledger entry derives C from the alias."""
        return self._with_constant(index, None, float(mu))

    # -- numerics -----------------------------------------------------------

    def bracket(self, msq: float) -> float:
        """Numeric value of the bracketed expression, i.e. the multiple of i/(16 pi^2).

        All constants must be fixed.  msq = 0 is accepted only for purely
        polynomial content (a log term or inverse power is singular there).
        """
        if msq < 0:
            raise ValueError(f"mass_sq must be non-negative, got {msq!r}")
        if msq == 0 and any(t.has_log or t.msq_power < 0 for t in self.terms):
            raise ValueError("mass_sq = 0 hits a logarithm/pole: the value is singular there")
        unfixed = [name for name, e in zip(self.names, self.constants) if not e.is_fixed]
        if unfixed:
            raise ValueError(f"cannot evaluate numerically: unfixed constants {', '.join(unfixed)}")
        pieces = []
        log_msq = math.log(msq) if msq > 0 and any(t.has_log for t in self.terms) else 0.0
        for t in self.terms:
            v = float(t.coefficient) * msq**t.msq_power
            if t.has_log:
                v *= log_msq
            pieces.append(v)
        for e in self.constants:
            pieces.append(float(e.coefficient) * e.value * msq**e.msq_power)
        return math.fsum(pieces)

    def value(self, msq: float) -> complex:
        """Full numeric value, unit i/(16 pi^2) included (purely imaginary)."""
        return UNIT_NUMERIC * self.bracket(msq)

    # -- rendering ----------------------------------------------------------

    def render(self) -> str:
        """Readable form, e.g. '(i/(16*pi^2)) * (-ln(M^2) - C1)'."""
        pieces: list[str] = []
        for t in self.terms:
            pieces.append(_format_piece(t.coefficient, t.msq_power, "ln(M^2)" if t.has_log else None, not pieces))
        for name, e in zip(self.names, self.constants):
            pieces.append(_format_piece(e.coefficient, e.msq_power, name, not pieces))
        body = " ".join(pieces) if pieces else "0"
        return f"({UNIT_LABEL}) * ({body})"


def _format_piece(coeff: Fraction, power: int, symbol: Optional[str], leading: bool) -> str:
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
    coeff = Fraction((-1) ** n, (n - 1) * (n - 2))
    return RegularizedValue((Term(coeff, 2 - n),))


def _integrate_once(value: RegularizedValue) -> RegularizedValue:
    new_terms: list[Term] = []
    log_seed = Fraction(0)
    for t in value.terms:
        p = t.msq_power
        if t.has_log:
            if p == -1:
                raise ValueError("integration would produce ln^2(M^2), outside the supported closed algebra")
            new_terms.append(Term(t.coefficient / (p + 1), p + 1, True))
            new_terms.append(Term(-t.coefficient / (p + 1) ** 2, p + 1, False))
        elif p == -1:
            new_terms.append(Term(t.coefficient, 0, True))
            log_seed += t.coefficient
        else:
            new_terms.append(Term(t.coefficient / (p + 1), p + 1, False))

    entries = [
        e.replace(coefficient=e.coefficient / (e.msq_power + 1), msq_power=e.msq_power + 1)
        for e in value.constants
    ]
    # The fresh constant pairs with the log it completes (same coefficient),
    # so that C = -ln(mu^2) later closes the log into ln(M^2/mu^2); with no
    # log created this step it inherits the running bracket coefficient.
    if log_seed != 0:
        kappa = log_seed
    elif value.constants:
        kappa = value.constants[-1].coefficient
    else:
        kappa = Fraction(1)
    entries.append(ConstantEntry(value.mass_dimension + 2, kappa))
    return RegularizedValue(tuple(new_terms), tuple(entries))


def integrate_back(value: RegularizedValue, times: int) -> RegularizedValue:
    """Antidifferentiate in M^2 ``times`` times, appending one arbitrary
    constant per application (with the mass dimension that keeps the value
    homogeneous)."""
    if times < 0:
        raise ValueError(f"times must be non-negative, got {times}")
    current = value
    for _ in range(times):
        current = _integrate_once(current)
    return current


def regularize(integral: ScalarLoopIntegral) -> RegularizedValue:
    """Full reduction: differentiate to convergence, evaluate, integrate back.

    (d/dM^2)^t I_n = prefactor * I_{n+t}, so the evaluated convergent member
    is multiplied by the prefactor before the t integrations that return to
    I_n.  Convergent inputs (t = 0) pass straight through evaluation.
    """
    t = differentiation_count(integral)
    shifted, prefactor = differentiate_in_masssq(integral, t)
    convergent = evaluate_convergent(shifted)
    return integrate_back(convergent.scaled(prefactor), t)
