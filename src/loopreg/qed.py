"""Electron self-energy at one loop, built on the kernel and feynpar layers.

Conventions (fixed once, so the pipeline lands on the closed-form shift):
the self-energy numerator decomposes into a slash channel a(x) = -2(1-x)
multiplying the momentum slash and a scalar channel 4m, and

    Sigma(p) = -i e^2 * int_0^1 dx [a(x)*slash(p) + 4m] * I(M^2(x)),

with I the power-2 loop integral and M^2(x) = p^2 x^2 + (m^2 - p^2) x.  On
the mass shell (p^2 = m^2, slash(p) -> m, M^2(x) = m^2 x^2) the regulated I
turns this into

    delta_m = (alpha m / 4 pi) * (5 - 3 ln(m^2 / mu1^2)),

and requiring delta_m = 0 pins the integration scale to mu1 = exp(-5/6) m.
The constant/log coefficients (5, -3) are produced by exact rational
arithmetic, never typed in.  Only the mass shell is implemented; the numeric
x-quadrature of the two channel integrands against delta_m is a test.

delta_m is read off the one-loop self-energy directly; no geometric
resummation happens here (the chain-summed running coupling lives in the
phi4 module).  Only channel_coefficients runs the kernel and feynpar layers,
and it imports them itself, so lamb_shift_estimate loads neither.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from . import _Record, _log_ratio, _positive

__all__ = [
    "DEFAULT_ALPHA",
    "DEFAULT_ELECTRON_MASS_GEV",
    "DEFAULT_BETHE_LOG",
    "GEV_TO_MHZ",
    "SLASH_COEFFS",
    "SCALAR_OVER_M_COEFFS",
    "MassShift",
    "on_shell_mass_shift",
    "solve_mu1",
    "solve_mu1_by_root",
    "pipeline_coefficients",
    "channel_coefficients",
    "lamb_shift_estimate",
]

#: Default fine-structure constant, electron mass (GeV) and Bethe logarithm.
DEFAULT_ALPHA = 1.0 / 137.036
DEFAULT_ELECTRON_MASS_GEV = 0.000511
DEFAULT_BETHE_LOG = 2.8118

#: 1 GeV expressed as a photon frequency in MHz (E/h, exact SI constants).
GEV_TO_MHZ = 1.602176634e-10 / 6.62607015e-34 / 1e6

#: Slash-channel polynomial a(x) = -2(1-x).
SLASH_COEFFS: tuple[Fraction, ...] = (Fraction(-2), Fraction(2))

#: Scalar-channel polynomial divided by the mass: b(x)/m = 4.
SCALAR_OVER_M_COEFFS: tuple[Fraction, ...] = (Fraction(4),)


class MassShift(_Record):
    """Radiative mass shift delta_m in GeV and the log_ratio L = ln(m^2/mu1^2) it
    was computed at; a non-finite shift has left the float range."""

    __slots__ = __match_args__ = ("delta_m", "log_ratio")

    def __init__(self, delta_m: float, log_ratio: float) -> None:
        if not math.isfinite(delta_m):
            raise OverflowError(f"delta_m must be finite, got {delta_m!r}")
        object.__setattr__(self, "delta_m", delta_m)
        object.__setattr__(self, "log_ratio", log_ratio)


def channel_coefficients(weight_coeffs: tuple[Fraction, ...]) -> tuple[Fraction, Fraction]:
    """Exact (constant, log) coefficients of one numerator channel.

    For a channel whose x-polynomial is ``weight_coeffs`` = w, the on-shell mass
    shift contribution is (alpha m / 4 pi) * (constant + log * L) with
    L = ln(m^2/mu1^2).  regularize(n=2) gives the bracket c*ln(M^2) + c*C1.  On
    shell M^2 = m^2 x^2, so ln(M^2) = ln(m^2) + 2 ln(x), and aliasing
    C1 = -ln(mu1^2) closes the non-x part into L: the channel gives
    (2c * int w ln x, c * int w).  The overall sign bookkeeping (-i e^2 against
    the unit i/(16 pi^2)) cancels to +1, so the bracket integrates directly.
    """
    from . import feynpar, kernel  # the exact layers run only here, so lambshift loads neither

    c = kernel.regularize(kernel.ScalarLoopIntegral(power=2)).log_coefficient
    constant = 2 * c * feynpar.integrate_poly_log(feynpar.PolyLogIntegrand(weight_coeffs, log_weight=1))
    return constant, c * feynpar.integrate_poly_log(feynpar.PolyLogIntegrand(weight_coeffs, log_weight=0))


@lru_cache(maxsize=1)
def pipeline_coefficients() -> tuple[Fraction, Fraction]:
    """Exact (constant, log) coefficients of the on-shell mass shift, the sum of both channels': (5, -3)."""
    slash, scalar = channel_coefficients(SLASH_COEFFS), channel_coefficients(SCALAR_OVER_M_COEFFS)
    return slash[0] + scalar[0], slash[1] + scalar[1]


@lru_cache(maxsize=1)
def _float_coefficients() -> tuple[float, float, float]:
    """The pipeline coefficients (5, -3) and the mu1 exponent c0/c_log/2 = -5/6 as floats, converted once per process."""
    c0, c_log = pipeline_coefficients()
    return float(c0), float(c_log), float(c0 / c_log / 2)


def on_shell_mass_shift(m: float, alpha: float, mu1: float) -> MassShift:
    """delta_m = (alpha m / 4 pi) * (c0 + c_log ln(m^2/mu1^2)), all inputs positive, with
    (c0, c_log) = (5, -3) the exact pipeline coefficients."""
    if not (m > 0 and alpha > 0 and mu1 > 0):  # one comparison on valid input: the helper only to raise
        _positive("m", m)
        _positive("alpha", alpha)
        _positive("mu1", mu1)
    c0, c_log, _ = _float_coefficients()
    prefactor = alpha * m / (4.0 * math.pi)
    log_ratio = 2.0 * _log_ratio(m, mu1)
    bracket = c0 + c_log * log_ratio
    delta_m = prefactor * bracket
    if not math.isfinite(delta_m):  # where alpha*m overflows, m*bracket first, so a bracket of 0 stays 0
        delta_m = alpha / (4.0 * math.pi) * (m * bracket)
    return MassShift(delta_m, log_ratio)


def solve_mu1(m: float) -> float:
    """Scale fixed by the on-shell condition delta_m = 0: mu1 = exp(-5/6) m.

    The exponent is -constant/(2*|log|) from the exact pipeline
    coefficients, i.e. ln(m^2/mu1^2) = 5/3.  ArithmeticError where mu1 underflows to 0.
    """
    _positive("m", m)
    exponent = _float_coefficients()[2]  # -5/6, divided exactly and rounded once
    mu1 = m * math.exp(exponent)
    if mu1 == 0.0:  # a derived scale, not an input: its underflow is a numeric failure
        raise ArithmeticError(f"mu1 = m*exp(-5/6) underflows to 0 at m={m!r}")
    return mu1


def solve_mu1_by_root(m: float, alpha: float = DEFAULT_ALPHA) -> float:
    """Root-finder counterpart of solve_mu1; the result is alpha-independent.  Its first evaluation,
    on_shell_mass_shift(m, alpha, 0.05*m), refuses an m that is not > 0."""

    def shift(mu1: float) -> float:
        return on_shell_mass_shift(m, alpha, mu1).delta_m

    from . import oracle  # its one user here; the CLI's qed subcommands never load it

    return oracle.find_root(shift, 0.05 * m, m)


def lamb_shift_estimate(alpha: float, m: float, bethe_log: float) -> float:
    """Leading-logarithm 2S-2P splitting estimate in MHz.

    Standard one-loop estimate for hydrogen with the Bethe logarithm as an
    input parameter (it is a bound-state quantity, not computed here):

        delta_E = (alpha^5 m / 6 pi) * [ln(1/alpha^2) - bethe_log + 19/30],

    the n = 2 level normalization already folded into the 1/6.  Qualitative
    by construction: it brackets the measured 1057.8 MHz without reproducing
    any particular digit string.
    """
    _positive("alpha", alpha)
    _positive("m", m)
    _positive("bethe_log", bethe_log)
    bracket = -2.0 * math.log(alpha) - bethe_log + 19.0 / 30.0
    try:
        alpha5 = alpha**5
    except OverflowError:  # the estimate from its log, with the bracket's sign: a small m may bring it back in range
        log_mhz = 5.0 * math.log(alpha) + math.log(m) - math.log(6.0 * math.pi) + math.log(abs(bracket)) + math.log(GEV_TO_MHZ)
        try:
            magnitude = math.exp(log_mhz)
        except OverflowError:  # inf, like a product past the float range, so the report names the estimate as not finite
            magnitude = math.inf
        return math.copysign(magnitude, bracket)
    delta_e_gev = alpha5 * m / (6.0 * math.pi) * bracket
    return delta_e_gev * GEV_TO_MHZ
