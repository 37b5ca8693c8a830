"""Feynman-parameter layer: the single-mass function M^2(x) and exact
integration of polynomial-times-logarithm integrands over x in [0, 1].

Combining the two propagators of the one-loop self-energy gives the mass
function M^2(x) = p^2 x^2 + (m^2 - p^2) x, positive on (0, 1) whenever
p^2 <= m^2.  The x-integrals the pipeline needs close over

    int_0^1 x^k dx = 1/(k+1)        int_0^1 x^k ln x dx = -1/(k+1)^2,

so results stay exact rationals.  Only log weight 0 or 1 is supported; the
one-loop pipeline never produces ln^2 x here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

__all__ = [
    "FeynmanMassFn",
    "PolyLogIntegrand",
    "mass_fn_eval",
    "integrate_poly_log",
]

RationalLike = Union[int, Fraction]


def _coeff_tuple(coeffs: Iterable[RationalLike]) -> tuple[Fraction, ...]:
    out = []
    for c in coeffs:
        if isinstance(c, Fraction):
            out.append(c)
        elif isinstance(c, int):
            out.append(Fraction(c))
        else:
            raise TypeError(f"polynomial coefficients must be exact rationals, got {type(c).__name__}")
    return tuple(out)


@dataclass(frozen=True)
class FeynmanMassFn:
    """M^2(x) = p_sq * x^2 + (m_sq - p_sq) * x, units GeV^2.

    Rejects p_sq > m_sq: there the logarithms of the one-loop closed forms
    turn complex and no analytic continuation is attempted.
    """

    p_sq: float
    m_sq: float

    def __post_init__(self) -> None:
        if not self.m_sq > 0:
            raise ValueError(f"m_sq must be positive, got {self.m_sq!r}")
        if self.p_sq > self.m_sq:
            raise ValueError(
                f"p_sq = {self.p_sq!r} exceeds m_sq = {self.m_sq!r}; "
                "the real-logarithm region requires p_sq <= m_sq"
            )


def mass_fn_eval(fn: FeynmanMassFn, x: float) -> float:
    """Evaluate M^2(x) for x in [0, 1]."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"Feynman parameter x must lie in [0, 1], got {x!r}")
    return fn.p_sq * x * x + (fn.m_sq - fn.p_sq) * x


@dataclass(frozen=True)
class PolyLogIntegrand:
    """sum_k poly_coeffs[k] * x^k, optionally times ln x (log_weight 1)."""

    poly_coeffs: tuple[Fraction, ...]
    log_weight: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "poly_coeffs", _coeff_tuple(self.poly_coeffs))
        if self.log_weight not in (0, 1):
            raise ValueError(f"log weight must be 0 or 1, got {self.log_weight!r}")

    def __call__(self, x: float) -> float:
        poly = 0.0
        for c in reversed(self.poly_coeffs):
            poly = poly * x + float(c)
        if self.log_weight:
            poly *= math.log(x)
        return poly


def integrate_poly_log(integrand: PolyLogIntegrand) -> Fraction:
    """Exact value of int_0^1 of the integrand."""
    total = Fraction(0)
    for k, c in enumerate(integrand.poly_coeffs):
        if integrand.log_weight:
            total += -c * Fraction(1, (k + 1) ** 2)
        else:
            total += c * Fraction(1, k + 1)
    return total
