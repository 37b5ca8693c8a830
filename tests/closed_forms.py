"""Closed forms the tests hold the oracle to.

They live here, not in ``loopreg.oracle``: the oracle must stay independent
of the closed forms it checks, so it never holds one.
"""

import math


def radial_analytic(power: int, mass_sq: float, cutoff: float) -> float:
    """Elementary antiderivative of the radial integral, any integer power >= 1.

    With u = k^2 the integral is (1/2) int_0^{L^2} u (u + M^2)^(-n) du.
    """
    n, m2, lam2 = power, mass_sq, cutoff * cutoff
    if n == 1:
        return 0.5 * (lam2 - m2 * math.log((lam2 + m2) / m2))
    if n == 2:
        return 0.5 * (math.log((lam2 + m2) / m2) + m2 / (lam2 + m2) - 1.0)

    def antiderivative(v: float) -> float:
        return 0.5 * (v ** (2 - n) / (2 - n) + m2 * v ** (1 - n) / (n - 1))

    return antiderivative(lam2 + m2) - antiderivative(m2)
