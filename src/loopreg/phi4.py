"""Quartic scalar model with a symmetry-breaking vacuum.

The potential V(Phi) = -sigma/2 Phi^2 + lambda/24 Phi^4 (sigma, lambda > 0),
``SSBPotential``, has its minimum shifted to Phi1 = sqrt(6 sigma/lambda); the
excitation on that vacuum carries mass m_sigma = sqrt(2 sigma).  (The
sign-flipped configuration +m^2/2 Phi^2 + lambda/24 Phi^4 is the symmetric
case with a single mass scale; it is not modelled here.)  At one loop the
coupling runs to lambda_R = lambda (1 + 9 lambda / 32 pi^2), while the bare
lambda keeps the scale-ratio meaning lambda = 3 (m_sigma/Phi1)^2 at every
order.

Chain (bubble) resummation is modelled by the running form

    lambda(mu) = lambda0 / (1 - b lambda0 ln(mu^2/mu0^2)),

whose first-order expansion reproduces the one-loop relation when
b = 9/(32 pi^2) (the default, kept configurable: the resummation kernel is
a minimal stand-in, not a unique choice).  Every finite-order truncation is
regular; only the resummed form has a pole, at mu_c = mu0 exp(1/(2 b
lambda0)).  One test decides it: where the denominator is no longer
positive, resum_chain raises and symmetry_status reports the broken vacuum
as restored, so the two agree even within rounding of mu_c.
"""

from __future__ import annotations

import math
import sys

from . import _Record, _log_ratio

__all__ = [
    "BETA_ONE_LOOP",
    "VACUUM_BROKEN",
    "VACUUM_RESTORED",
    "LandauPoleError",
    "SSBPotential",
    "ResummationState",
    "HIGGS_LOWER_BOUND",
    "HIGGS_PREDICTED",
    "HIGGS_UPPER_BOUND",
    "ssb_vacuum",
    "lambda_renormalized",
    "lambda_invariant_ratio",
    "geometric_partial_sum",
    "resum_chain",
    "resum_first_order",
    "critical_scale",
    "symmetry_status",
]

#: One-loop coefficient 9/(32 pi^2) in the coupling relation.
BETA_ONE_LOOP = 9.0 / (32.0 * math.pi**2)

VACUUM_BROKEN = "ssb-vacuum"
VACUUM_RESTORED = "symmetry-restoration"

#: Reference Higgs mass window and point value in GeV (stored inputs, not derived here).
HIGGS_LOWER_BOUND, HIGGS_PREDICTED, HIGGS_UPPER_BOUND = 76.0, 138.0, 170.0


class LandauPoleError(ArithmeticError):
    """The resummed coupling was requested at or beyond its pole."""


class SSBPotential(_Record):
    """V(Phi) = -sigma/2 Phi^2 + lam/24 Phi^4: wrong-sign mass parameter sigma
    (GeV^2) and quartic coupling lam."""

    __slots__ = __match_args__ = ("sigma", "lam")

    def __init__(self, sigma: float, lam: float) -> None:
        if not sigma > 0:
            raise ValueError(f"sigma must be positive, got {sigma!r}")
        if not lam > 0:
            raise ValueError(f"lambda must be positive, got {lam!r}")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "lam", lam)

    def __call__(self, phi: float) -> float:
        return -0.5 * self.sigma * phi * phi + self.lam / 24.0 * phi**4


def ssb_vacuum(pot: SSBPotential) -> tuple[float, float]:
    """(Phi1, m_sigma) = (sqrt(6 sigma/lambda), sqrt(2 sigma)); ArithmeticError where Phi1 underflows to 0.

    Where 6 sigma/lambda leaves the normal floats, Phi1 is sqrt(6) sqrt(sigma)/sqrt(lambda),
    so a Phi1 that fits does not fail on its square.
    """
    ratio = 6.0 * pot.sigma / pot.lam
    if sys.float_info.min <= ratio < math.inf:
        phi1 = math.sqrt(ratio)
    else:
        phi1 = math.sqrt(6.0) * math.sqrt(pot.sigma) / math.sqrt(pot.lam)
    if phi1 == 0.0:  # a derived scale, not an input: its underflow is a numeric failure
        raise ArithmeticError(f"phi1 = sqrt(6*sigma/lambda) underflows to 0 at sigma={pot.sigma!r}, lambda={pot.lam!r}")
    return phi1, math.sqrt(2.0 * pot.sigma)


def lambda_renormalized(lam: float) -> float:
    """One-loop coupling lambda (1 + 9 lambda / 32 pi^2); finite and nonzero
    for every lambda > 0."""
    if lam < 0:
        raise ValueError(f"lambda must be non-negative, got {lam!r}")
    return lam * (1.0 + BETA_ONE_LOOP * lam)


def lambda_invariant_ratio(m_sigma: float, phi1: float) -> float:
    """Scale-ratio meaning of the coupling: 3 (m_sigma/Phi1)^2."""
    if not (m_sigma > 0 and phi1 > 0):
        raise ValueError("m_sigma and phi1 must be positive")
    return 3.0 * (m_sigma / phi1) ** 2


def geometric_partial_sum(r: float, n: int) -> float:
    """sum_{k=0..n} r^k, finite for every finite n (n+1 at r = 1).

    Uses the Horner recurrence for stability, in n steps.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if r == 1.0:
        return float(n + 1)
    acc = 1.0
    for _ in range(n):
        acc = 1.0 + r * acc
    return acc


class ResummationState(_Record):
    """Reference coupling lambda0 at scale mu0 (GeV) with resummation
    coefficient b."""

    __slots__ = __match_args__ = ("lambda0", "mu0", "beta_coeff")

    def __init__(self, lambda0: float, mu0: float, beta_coeff: float = BETA_ONE_LOOP) -> None:
        if not lambda0 > 0:
            raise ValueError(f"lambda0 must be positive, got {lambda0!r}")
        if not mu0 > 0:
            raise ValueError(f"mu0 must be positive, got {mu0!r}")
        if not beta_coeff > 0:
            raise ValueError(f"beta_coeff must be positive, got {beta_coeff!r}")
        object.__setattr__(self, "lambda0", lambda0)
        object.__setattr__(self, "mu0", mu0)
        object.__setattr__(self, "beta_coeff", beta_coeff)


def _first_order_term(state: ResummationState, mu: float) -> float:
    """b lambda0 ln(mu^2/mu0^2), the term both resummation orders are built from."""
    if not mu > 0:
        raise ValueError(f"mu must be positive, got {mu!r}")
    return state.beta_coeff * state.lambda0 * (2.0 * _log_ratio(mu, state.mu0))


def resum_chain(state: ResummationState, mu: float) -> float:
    """Resummed running coupling lambda0 / (1 - b lambda0 ln(mu^2/mu0^2)).

    Raises LandauPoleError once the denominator is no longer positive.
    """
    denominator = 1.0 - _first_order_term(state, mu)
    if denominator <= 0.0:
        critical = critical_scale(state)
        raise LandauPoleError(f"resummed coupling has a pole: mu = {mu:g} reaches the critical scale {critical:g}")
    return state.lambda0 / denominator


def resum_first_order(state: ResummationState, mu: float) -> float:
    """First-order truncation lambda0 (1 + b lambda0 ln(mu^2/mu0^2)).

    Finite for every finite mu; at ln(mu^2/mu0^2) = 1 and b = 9/(32 pi^2) it
    coincides with lambda_renormalized(lambda0).
    """
    return state.lambda0 * (1.0 + _first_order_term(state, mu))


def critical_scale(state: ResummationState) -> float:
    """Pole position mu_c = mu0 exp(1/(2 b lambda0)) of the resummed coupling; inf past the float range."""
    try:
        return state.mu0 * math.exp(1.0 / (2.0 * state.beta_coeff * state.lambda0))
    except (OverflowError, ZeroDivisionError):  # the exponent overflows, or 2 b lambda0 underflows to 0
        return math.inf


def symmetry_status(state: ResummationState, mu: float) -> str:
    """VACUUM_RESTORED exactly where resum_chain raises LandauPoleError (its
    denominator is no longer positive), VACUUM_BROKEN elsewhere."""
    return VACUUM_RESTORED if 1.0 - _first_order_term(state, mu) <= 0.0 else VACUUM_BROKEN
