"""Independent numeric verification of the loop-integral closed forms.

Wick rotation turns the Minkowski integral into a Euclidean radial one:

    integral d^4K/(2 pi)^4 (K^2 - M^2)^(-n)
        = i(-1)^n / (8 pi^2) * int_0^Lambda k^3 (k^2 + M^2)^(-n) dk,

using d^4K_E = 2 pi^2 k^3 dk for the 4-volume element.  Everything here
runs in double precision against a finite cutoff Lambda: exactness lives in
the kernel module, not here.  The radial integral also has an elementary
antiderivative for every integer n, used as a self-check of the adaptive
quadrature.  scipy is imported on the first quadrature, not with this
module, so importing the package stays cheap for callers that never
integrate.

The quadrature runs piece by piece over decades of k/M, and each piece is
memoized.  A cutoff sweep, its divergence signature and its asymptote all
share the full decades below each cutoff, so one oracle report integrates
every distinct piece once.  Results stay bit-identical to uncached
quadrature: a cached piece is exactly what quad returned for the same
arguments, and every radial sums its pieces in the same order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

__all__ = [
    "QuadratureError",
    "InsufficientGridError",
    "QuadratureSpec",
    "CutoffProbe",
    "DEFAULT_GRID_FACTORS",
    "DivergenceSignature",
    "radial_integrand",
    "radial_analytic",
    "radial_integral",
    "wick_rotated_radial",
    "default_grid",
    "require_signature_grid",
    "require_asymptote_grid",
    "divergence_signature",
    "asymptote_constant",
]

#: Default oracle cutoffs in units of sqrt(M^2): five decades, 1e2 to 1e6.
DEFAULT_GRID_FACTORS = (1e2, 1e3, 1e4, 1e5, 1e6)


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested relative tolerance."""


class InsufficientGridError(ValueError):
    """The cutoff grid is too small or too narrow for the requested fit."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Adaptive quadrature configuration; rel_tol must sit in (0, 1e-6]."""

    rel_tol: float = 1e-10

    def __post_init__(self) -> None:
        if not 0.0 < self.rel_tol <= 1e-6:
            raise ValueError(f"rel_tol must lie in (0, 1e-6], got {self.rel_tol!r}")


@dataclass(frozen=True)
class CutoffProbe:
    """A cutoff sweep: radial quadrature of one integrand over a Lambda grid."""

    power: int
    mass_sq: float
    lambda_grid: tuple[float, ...]
    quadrature: QuadratureSpec = field(default_factory=QuadratureSpec)

    def __post_init__(self) -> None:
        object.__setattr__(self, "lambda_grid", tuple(float(l) for l in self.lambda_grid))
        if self.power < 1:
            raise ValueError(f"power must be >= 1, got {self.power!r}")
        if not self.mass_sq > 0:
            raise ValueError(f"mass_sq must be positive, got {self.mass_sq!r}")
        if not self.lambda_grid or self.lambda_grid[0] <= 0:
            raise ValueError("cutoff grid values must be positive")
        if any(b <= a for a, b in zip(self.lambda_grid, self.lambda_grid[1:])):
            raise ValueError("cutoff grid must be strictly increasing")


def radial_integrand(k: float, power: int, mass_sq: float) -> float:
    """k^3 / (k^2 + M^2)^power, the Euclidean radial integrand."""
    return k**3 / (k * k + mass_sq) ** power


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


def default_grid(mass_sq: float) -> tuple[float, ...]:
    """The default cutoff grid of a probe: DEFAULT_GRID_FACTORS times sqrt(M^2)."""
    return tuple(c * math.sqrt(mass_sq) for c in DEFAULT_GRID_FACTORS)


def _decade_edges(mass_sq: float, cutoff: float) -> list[float]:
    scale = math.sqrt(mass_sq)
    edges = [0.0]
    edge = min(scale, cutoff)
    edges.append(edge)
    while edges[-1] < cutoff:
        edges.append(min(edges[-1] * 10.0, cutoff))
    return edges


@lru_cache(maxsize=256)
def _piece(
    power: int, mass_sq: float, a: float, b: float, epsrel: float
) -> tuple[float, float]:
    """(value, error estimate) of the radial integral over one piece [a, b]."""
    # scipy loads on the first call only; quad is read off the module at each
    # call, so a wrapper installed on scipy.integrate.quad sees every call
    from scipy import integrate

    return integrate.quad(
        radial_integrand, a, b, args=(power, mass_sq), epsabs=0.0,
        epsrel=epsrel, limit=200,
    )


def radial_integral(
    power: int, mass_sq: float, cutoff: float, rel_tol: float = 1e-10
) -> float:
    """Adaptive quadrature of int_0^cutoff k^3 (k^2 + M^2)^(-power) dk.

    Integrates decade by decade so the wide dynamic range in k never starves
    the adaptive subdivision.  Each piece is memoized: the full decades
    [10^j M, 10^(j+1) M] are the same for every cutoff above them, so a
    sweep integrates each once.  A cached piece is the very (value, error)
    pair quad returned for it, and the pieces are summed in the same order,
    so the result is bit-identical to integrating from scratch.  Raises
    QuadratureError when the accumulated error estimate misses rel_tol,
    whether or not the pieces were cached.
    """
    if not cutoff > 0:
        raise ValueError(f"cutoff must be positive, got {cutoff!r}")
    if not mass_sq > 0:
        raise ValueError(f"mass_sq must be positive, got {mass_sq!r}")
    total = 0.0
    err_total = 0.0
    edges = _decade_edges(mass_sq, cutoff)
    # quadpack refuses epsrel below ~50*eps; the post-hoc error check still
    # enforces the requested rel_tol, so tighter requests fail loudly.
    epsrel = max(rel_tol / 10.0, 5e-14)
    for a, b in zip(edges, edges[1:]):
        piece, err = _piece(power, mass_sq, a, b, epsrel)
        total += piece
        err_total += err
    if err_total > rel_tol * abs(total):
        raise QuadratureError(
            f"quadrature error {err_total:.3e} exceeds rel_tol {rel_tol:.1e} "
            f"for power={power}, mass_sq={mass_sq}, cutoff={cutoff}"
        )
    return total


def wick_rotated_radial(
    power: int, mass_sq: float, cutoff: float, rel_tol: float = 1e-10
) -> float:
    """Cutoff loop integral as a real multiple of the unit i/(16 pi^2).

    The full value is i(-1)^n/(8 pi^2) * radial, i.e. (-1)^n * 2 * radial in
    units of i/(16 pi^2); the returned number is directly comparable with
    kernel.RegularizedValue.bracket.
    """
    if power < 1:
        raise ValueError(f"power must be >= 1, got {power!r}")
    return (-1) ** power * 2.0 * radial_integral(power, mass_sq, cutoff, rel_tol)


@dataclass(frozen=True)
class DivergenceSignature:
    """Fitted large-cutoff behavior of a probe.

    kind is one of 'log', 'linear-family', 'quadratic', 'convergent';
    coefficient is the fitted leading coefficient (the ln-Lambda slope for
    'log', the Lambda^2 resp. Lambda coefficient for the power families, and
    the limiting value for 'convergent').
    """

    kind: str
    coefficient: float


def _probe_values(probe: CutoffProbe) -> list[float]:
    return [
        radial_integral(probe.power, probe.mass_sq, lam, probe.quadrature.rel_tol)
        for lam in probe.lambda_grid
    ]


def _line_fit(xs: list[float], ys: list[float]) -> tuple[float, float]:
    """Least-squares straight line through (xs, ys): (slope, intercept)."""
    n = len(xs)
    x_mean = math.fsum(xs) / n
    y_mean = math.fsum(ys) / n
    sxx = math.fsum((x - x_mean) ** 2 for x in xs)
    sxy = math.fsum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    slope = sxy / sxx
    return slope, y_mean - slope * x_mean


def _require_grid(probe: CutoffProbe, min_points: int, min_span: float) -> None:
    grid = probe.lambda_grid
    if len(grid) < min_points or grid[-1] / grid[0] < min_span * 0.999:
        decades = math.log10(min_span)
        raise InsufficientGridError(
            f"need at least {min_points} cutoffs spanning >= {decades:g} decades, "
            f"got {len(grid)} over {grid[0]:g}..{grid[-1]:g}"
        )


def require_signature_grid(probe: CutoffProbe) -> None:
    """Raise InsufficientGridError unless the grid supports divergence_signature."""
    _require_grid(probe, min_points=4, min_span=1e3)


def require_asymptote_grid(probe: CutoffProbe) -> float:
    """Raise InsufficientGridError unless the grid supports asymptote_constant.

    Returns the lower end of the top two grid decades, where the fit runs.
    """
    _require_grid(probe, min_points=4, min_span=1e4)
    threshold = probe.lambda_grid[-1] / 100.0
    if sum(lam >= threshold for lam in probe.lambda_grid) < 2:
        raise InsufficientGridError("need >= 2 grid points in the top two decades for extrapolation")
    return threshold


def divergence_signature(probe: CutoffProbe) -> DivergenceSignature:
    """Classify the cutoff dependence of the radial integral from data alone.

    Uses increments per unit ln(Lambda): they vanish for a convergent
    integral, stay flat for a logarithmic one, and grow for the power-law
    families, whose exponent is then read off a log-log fit.
    """
    require_signature_grid(probe)
    grid = probe.lambda_grid
    vals = _probe_values(probe)
    logs = [math.log(l) for l in grid]
    slopes = [
        (v2 - v1) / (l2 - l1)
        for v1, v2, l1, l2 in zip(vals, vals[1:], logs, logs[1:])
    ]
    if slopes[-1] <= 1e-4 * abs(vals[-1]) or slopes[-1] <= 0.1 * slopes[0]:
        return DivergenceSignature("convergent", vals[-1])
    if slopes[-1] < 2.0 * slopes[0]:
        slope, _ = _line_fit(logs, vals)
        return DivergenceSignature("log", slope)
    exponent = (math.log(vals[-1]) - math.log(vals[0])) / (logs[-1] - logs[0])
    if exponent >= 1.5:
        return DivergenceSignature("quadratic", vals[-1] / grid[-1] ** 2)
    return DivergenceSignature("linear-family", vals[-1] / grid[-1])


def asymptote_constant(probe: CutoffProbe) -> float:
    """lim_{Lambda->inf} [radial(Lambda) - ln(Lambda)] for a log probe (power 2).

    Extrapolates with a linear fit in 1/Lambda^2 over the top two grid
    decades; the remainder of the expansion is O(1/Lambda^4).  Only
    differences of this limit between two masses are cutoff-free physics:
    the limit itself shifts with the arbitrary constant freedom.
    """
    if probe.power != 2:
        raise ValueError(f"asymptote extraction requires a log-divergent probe (power 2), got a non-log probe with power {probe.power}")
    threshold = require_asymptote_grid(probe)
    grid = probe.lambda_grid
    vals = _probe_values(probe)
    xs = [1.0 / (lam * lam) for lam in grid if lam >= threshold]
    gs = [v - math.log(lam) for lam, v in zip(grid, vals) if lam >= threshold]
    _, intercept = _line_fit(xs, gs)
    return intercept
