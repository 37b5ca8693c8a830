"""Feynman-parameter layer: exact integration of polynomial-times-logarithm
integrands over x in [0, 1].

Combining the two propagators of the one-loop self-energy gives the mass
function M^2(x) = p^2 x^2 + (m^2 - p^2) x; on the mass shell it is m^2 x^2,
so ln M^2(x) splits into ln m^2 + 2 ln x and the x-integrals the pipeline
needs close over

    int_0^1 x^k dx = 1/(k+1)        int_0^1 x^k ln x dx = -1/(k+1)^2,

so results stay exact rationals.  Only log weight 0 or 1 is supported; the
one-loop pipeline never produces ln^2 x here.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import _Record
from .kernel import _as_fraction

__all__ = [
    "PolyLogIntegrand",
    "integrate_poly_log",
]


class PolyLogIntegrand(_Record):
    """sum_k poly_coeffs[k] * x^k, optionally times ln x (log_weight 1)."""

    __slots__ = __match_args__ = ("poly_coeffs", "log_weight")

    def __init__(self, poly_coeffs: tuple[Fraction, ...], log_weight: int = 0) -> None:
        poly_coeffs = tuple(_as_fraction(c) for c in poly_coeffs)
        if log_weight not in (0, 1):
            raise ValueError(f"log weight must be 0 or 1, got {log_weight!r}")
        object.__setattr__(self, "poly_coeffs", poly_coeffs)
        object.__setattr__(self, "log_weight", log_weight)

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
