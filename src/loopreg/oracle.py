"""Independent numeric verification of the loop-integral closed forms.

Wick rotation turns the Minkowski integral into a Euclidean radial one:

    integral d^4K/(2 pi)^4 (K^2 - M^2)^(-n)
        = i(-1)^n / (8 pi^2) * int_0^Lambda k^3 (k^2 + M^2)^(-n) dk,

using d^4K_E = 2 pi^2 k^3 dk for the 4-volume element.  Everything here
runs in double precision against a finite cutoff Lambda: exactness lives in
the kernel module, not here, and the radial integral's elementary
antiderivative lives only in the tests, so no closed form of what the oracle
checks can leak into it.  The package's two numeric tools live here, in pure
Python: an adaptive G7-K15 Gauss-Kronrod rule (``integrate``) and a
bracketing root finder by the Illinois rule (``find_root``), which falls back
to bisection where interpolation stalls.

The radial integral runs in the scaled variable t = k/sqrt(M^2), piece by
piece over the decades 0, 1, 10, ... of t.  No piece carries a mass: cutoffs
and masses share the memoized sums of the full decades below them, and a
cutoff within 1% below an edge takes the sum up to that edge less one short
piece.  A
``CutoffProbe`` integrates each of its cutoffs once, and each fit checks its
own grid rule before it reads them, so a short grid fails before any quadrature.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from collections.abc import Callable
from functools import cached_property, lru_cache, partial

from . import _Record

__all__ = [
    "QuadratureError",
    "InsufficientGridError",
    "QuadratureSpec",
    "CutoffProbe",
    "DEFAULT_GRID_FACTORS",
    "DivergenceSignature",
    "integrate",
    "find_root",
    "radial_integrand",
    "radial_integral",
    "unit_multiple",
    "wick_rotated_radial",
    "default_grid",
    "divergence_signature",
    "asymptote_constant",
]

#: Default oracle cutoffs in units of sqrt(M^2): five decades, 1e2 to 1e6.
DEFAULT_GRID_FACTORS = (1e2, 1e3, 1e4, 1e5, 1e6)


class QuadratureError(ArithmeticError):
    """Adaptive quadrature failed to reach the requested relative tolerance."""


class InsufficientGridError(ValueError):
    """The cutoff grid is too small or too narrow for the requested fit."""


class QuadratureSpec(_Record):
    """Adaptive quadrature configuration; rel_tol must sit in (0, 1e-6]."""

    __slots__ = __match_args__ = ("rel_tol",)

    def __init__(self, rel_tol: float = 1e-10) -> None:
        if not 0.0 < rel_tol <= 1e-6:
            raise ValueError(f"rel_tol must lie in (0, 1e-6], got {rel_tol!r}")
        object.__setattr__(self, "rel_tol", rel_tol)


class CutoffProbe(_Record):
    """A cutoff sweep over a Lambda grid; ``radials`` integrates each cutoff
    once, on first read, and is kept beside the fields, outside equality."""

    __match_args__ = ("power", "mass_sq", "lambda_grid", "quadrature")
    __slots__ = (*__match_args__, "__dict__")

    def __init__(self, power: int, mass_sq: float, lambda_grid: tuple[float, ...], quadrature: QuadratureSpec = QuadratureSpec()) -> None:
        lambda_grid = tuple(float(l) for l in lambda_grid)
        if power < 1:
            raise ValueError(f"power must be >= 1, got {power!r}")
        if not mass_sq > 0:
            raise ValueError(f"mass_sq must be positive, got {mass_sq!r}")
        if not lambda_grid or lambda_grid[0] <= 0:
            raise ValueError("cutoff grid values must be positive")
        if any(b <= a for a, b in zip(lambda_grid, lambda_grid[1:])):
            raise ValueError("cutoff grid must be strictly increasing")
        object.__setattr__(self, "power", power)
        object.__setattr__(self, "mass_sq", mass_sq)
        object.__setattr__(self, "lambda_grid", lambda_grid)
        object.__setattr__(self, "quadrature", quadrature)

    @cached_property
    def radials(self) -> tuple[float, ...]:
        """radial_integral at each cutoff, in grid order."""
        return tuple(radial_integral(self.power, self.mass_sq, lam, self.quadrature.rel_tol) for lam in self.lambda_grid)


def radial_integrand(k: float, power: int, mass_sq: float) -> float:
    """k^3 / (k^2 + M^2)^power, the Euclidean radial integrand; far above the
    mass, where that form overflows, it is taken as k^(3-2n) / (1 + M^2/k^2)^n."""
    try:
        return k**3 / (k * k + mass_sq) ** power
    except OverflowError:
        return k ** (3 - 2 * power) / (1.0 + mass_sq / (k * k)) ** power


def default_grid(mass_sq: float) -> tuple[float, ...]:
    """The default cutoff grid of a probe: DEFAULT_GRID_FACTORS times sqrt(M^2)."""
    if not mass_sq > 0:
        raise ValueError(f"mass_sq must be positive, got {mass_sq!r}")
    return tuple(c * math.sqrt(mass_sq) for c in DEFAULT_GRID_FACTORS)


# QUADPACK qk15: the Kronrod abscissae on [0, 1] (the rule is symmetric), then the Kronrod
# and 7-point Gauss weights of each abscissa and, last, of the center; Gauss uses every second one.
_NODES = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851, 0.864864423359769072789712788640926,
          0.741531185599394439863864773280788, 0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
          0.207784955007898467600689403773245)
_KRONROD = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204, 0.104790010322250183839876322541518,
            0.140653259715525918745189590510238, 0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
            0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_GAUSS = (0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
          0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327)
_PAIRS = tuple(zip(_NODES, _KRONROD, _GAUSS))


def _panel(f: Callable[[float], float], a: float, b: float) -> tuple[float, float, float, float]:
    """G7-K15 on [a, b] as a heap entry: (-error, a, b, Kronrod value).

    The center is 0.5*a + 0.5*b, the bits of 0.5*(a + b) for normal floats,
    but finite where a + b overflows (a panel just below the largest float).
    """
    center, half = 0.5 * a + 0.5 * b, 0.5 * (b - a)
    f_center = f(center)
    kronrod, gauss = _KRONROD[-1] * f_center, _GAUSS[-1] * f_center
    for x, w_kronrod, w_gauss in _PAIRS:
        pair = f(center - half * x) + f(center + half * x)
        kronrod += w_kronrod * pair
        gauss += w_gauss * pair
    return -abs(half * (kronrod - gauss)), a, b, half * kronrod


def _radial_panel(power: int, a: float, b: float) -> tuple[float, float, float, float]:
    """``_panel`` of radial_integrand(t, power, 1.0), its unscaled form written out; OverflowError where that overflows."""
    center, half = 0.5 * a + 0.5 * b, 0.5 * (b - a)
    f_center = center**3 / (center * center + 1.0) ** power
    kronrod, gauss = _KRONROD[-1] * f_center, _GAUSS[-1] * f_center
    for x, w_kronrod, w_gauss in _PAIRS:
        t, u = center - half * x, center + half * x
        pair = t**3 / (t * t + 1.0) ** power + u**3 / (u * u + 1.0) ** power
        kronrod += w_kronrod * pair
        gauss += w_gauss * pair
    return -abs(half * (kronrod - gauss)), a, b, half * kronrod


def integrate(f: Callable[[float], float], a: float, b: float, epsrel: float, epsabs: float = 0.0) -> tuple[float, float]:
    """Adaptive G7-K15 quadrature of f over [a, b]: (value, error estimate).

    Each panel's error is |K15 - G7|.  The panel with the largest error is
    bisected until the summed error meets max(epsabs, epsrel * |value|) or
    200 panels are in use; the caller judges a result that stopped at the
    limit by the error it returns.
    """
    return _adapt(partial(_panel, f), a, b, epsrel, epsabs)


def _adapt(panel: Callable[[float, float], tuple], a: float, b: float, epsrel: float, epsabs: float) -> tuple[float, float]:
    """``integrate``'s adaptive bisection over the panels that panel(lo, hi) returns."""
    panels = [panel(a, b)]
    error, value = -panels[0][0], panels[0][3]
    while error > max(epsabs, epsrel * abs(value)) and len(panels) < 200:
        neg_error, lo, hi, whole = heapq.heappop(panels)
        mid = 0.5 * lo + 0.5 * hi  # as in _panel: finite where lo + hi overflows
        left, right = panel(lo, mid), panel(mid, hi)
        heapq.heappush(panels, left)
        heapq.heappush(panels, right)
        value += left[3] + right[3] - whole
        error += neg_error - left[0] - right[0]
    return math.fsum(p[3] for p in panels), math.fsum(-p[0] for p in panels)


def find_root(f: Callable[[float], float], lo: float, hi: float) -> float:
    """A root of f in [lo, hi] by the Illinois rule, to a relative width of 1e-15.

    Each step evaluates f at the regula falsi point of the bracket and keeps
    the part where f changes sign.  When two such steps in a row move the same
    end, the value at the other end is halved for the next point (Illinois
    rule: Dowell & Jarratt, BIT 11, 1971), so both ends close in; a point is
    kept half the stop width inside the bracket, so an end that already sits
    on the root does not stall the other.  A step bisects instead when f has
    just returned a value it had returned before, which keeps a step function
    on pure bisection, or when the last two steps did not halve the bracket.
    An exact zero of f ends the search.  Raises ValueError unless f(lo) and
    f(hi) have opposite signs.
    """
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0 or f_hi == 0.0:
        return lo if f_lo == 0.0 else hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise ValueError(f"f({lo!r}) and f({hi!r}) have the same sign; no bracketed root")
    seen = {f_lo, f_hi}
    moved = None  # the end the last regula falsi step replaced
    widths = (math.inf, hi - lo)  # the bracket's width two steps back and one step back
    bisect = False
    while hi - lo > 1e-15 * max(abs(lo), abs(hi)):
        if bisect:
            x = 0.5 * (lo + hi)
        else:  # f_lo and f_hi weigh the ends; halving one keeps its sign
            margin = 0.5e-15 * max(abs(lo), abs(hi))
            x = min(max((lo * f_hi - hi * f_lo) / (f_hi - f_lo), lo + margin), hi - margin)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if x in (lo, hi):  # no float left between the ends
                break
        f_x = f(x)
        if f_x == 0.0:
            return x
        if (f_x > 0.0) == (f_lo > 0.0):
            lo, f_lo, end = x, f_x, "lo"
        else:
            hi, f_hi, end = x, f_x, "hi"
        if not bisect:
            if end == moved == "lo":
                f_hi *= 0.5
            elif end == moved == "hi":
                f_lo *= 0.5
            moved = end
        bisect = f_x in seen or hi - lo > 0.5 * widths[0]
        seen.add(f_x)
        widths = (widths[1], hi - lo)
    return 0.5 * (lo + hi)


_EDGES = [0.0, 1.0]  # the decade edges of t, each ten times the last, up to inf
while _EDGES[-1] < math.inf:
    _EDGES.append(_EDGES[-1] * 10.0)


def _radial_piece(power: int, t_a: float, t_b: float, epsrel: float) -> tuple[float, float]:
    """(value, error estimate) of int t^3 (t^2 + 1)^(-power) dt over [t_a, t_b]."""
    try:
        return _adapt(partial(_radial_panel, power), t_a, t_b, epsrel, 0.0)
    except OverflowError:  # far above t = 1: the piece again, with radial_integrand's scaled form
        return integrate(lambda t: radial_integrand(t, power, 1.0), t_a, t_b, epsrel)


_piece = lru_cache(maxsize=256)(_radial_piece)  # the short pieces of radial_integral: [edge, t_cut] or [t_cut, next edge]


@lru_cache(maxsize=1024)
def _decade_sums(power: int, k: int, epsrel: float) -> tuple[float, float]:
    """(value, error estimate) summed in order over the full decades from 0 up to _EDGES[k], k >= 1."""
    below = (0.0, 0.0)
    for j in range(1, k):  # fill from the bottom, so a cold call nests one level deep, not k
        below = _decade_sums(power, j, epsrel)
    value, err = _radial_piece(power, _EDGES[k - 1], _EDGES[k], epsrel)
    return below[0] + value, below[1] + err


def radial_integral(power: int, mass_sq: float, cutoff: float, rel_tol: float = 1e-10) -> float:
    """Adaptive quadrature of int_0^cutoff k^3 (k^2 + M^2)^(-power) dk.

    Integrates (M^2)^(2-power) * int_0^(cutoff/sqrt(M^2)) t^3 (t^2+1)^(-power) dt
    decade by decade in t, so the wide dynamic range never starves the
    adaptive subdivision.  The full decades [10^j, 10^(j+1)] are the same for
    every cutoff and mass above them, so their running sums are memoized and a
    sweep integrates each once; the top piece, from the last edge on, apart.
    A cutoff at or above 0.99 times the next edge (a finite one) is instead
    that edge's sum less the piece from the cutoff up to the edge, which
    spans at most 1% of the decade; the sum exceeds the result by at most
    (1/0.99)^4 - 1, about 4%, so no digit is lost, and the error estimates
    add.  For power >= 3 a t past the last finite edge (~1e308), inf included,
    is taken at that edge: the tail above it is below 1e-300 of the total.
    Raises QuadratureError when the summed error estimate misses rel_tol,
    whether or not the pieces were cached, and OverflowError when the result
    lies past the float range.
    """
    if power < 1:
        raise ValueError(f"power must be >= 1, got {power!r}")
    if not cutoff > 0:
        raise ValueError(f"cutoff must be positive, got {cutoff!r}")
    if not mass_sq > 0:
        raise ValueError(f"mass_sq must be positive, got {mass_sq!r}")
    t_cut = cutoff / math.sqrt(mass_sq)
    if power >= 3:
        t_cut = min(t_cut, _EDGES[-2])
    # |K15 - G7| bottoms out near the rounding of the 15-point sums, so a piece
    # asked for less than 5e-14 would only run to the panel limit; the check
    # below still enforces rel_tol, so tighter requests fail loudly.
    epsrel = max(rel_tol / 10.0, 5e-14)
    k = bisect_right(_EDGES, t_cut) - 1  # the full decades end at _EDGES[k] <= t_cut
    upper = _EDGES[k + 1] if k + 1 < len(_EDGES) else math.inf  # the next edge up; t_cut = inf has none
    if 0.99 * upper <= t_cut and upper < math.inf:  # just below an edge: the decades up to it less [t_cut, upper]
        total, err_total = _decade_sums(power, k + 1, epsrel)
        piece, err = _piece(power, t_cut, upper, epsrel)
        total, err_total = total - piece, err_total + err
    else:
        total, err_total = _decade_sums(power, k, epsrel) if k else (0.0, 0.0)
        piece, err = _piece(power, _EDGES[k], t_cut, epsrel) if _EDGES[k] != t_cut else (0.0, 0.0)
        total, err_total = total + piece, err_total + err
    if err_total > rel_tol * abs(total):
        raise QuadratureError(
            f"quadrature error {err_total:.3e} exceeds rel_tol {rel_tol:.1e} "
            f"for power={power}, mass_sq={mass_sq}, cutoff={cutoff}"
        )
    try:
        radial = mass_sq ** (2 - power) * total
    except OverflowError:  # the power of M^2 alone leaves the float range
        radial = math.inf
    if not math.isfinite(radial):
        raise OverflowError(f"radial integral past the float range for power={power}, mass_sq={mass_sq}, cutoff={cutoff}")
    return radial


def unit_multiple(power: int, radial: float) -> float:
    """A radial integral of power n as a real multiple of the unit i/(16 pi^2).

    The full value is i(-1)^n/(8 pi^2) * radial, i.e. (-1)^n * 2 * radial in
    units of i/(16 pi^2), directly comparable with kernel.RegularizedValue.bracket.
    """
    return (-1) ** power * 2.0 * radial


def wick_rotated_radial(
    power: int, mass_sq: float, cutoff: float, rel_tol: float = 1e-10
) -> float:
    """Cutoff loop integral as a real multiple of the unit i/(16 pi^2)."""
    return unit_multiple(power, radial_integral(power, mass_sq, cutoff, rel_tol))


class DivergenceSignature(_Record):
    """Fitted large-cutoff behavior of a probe.

    kind is one of 'log', 'linear-family', 'quadratic', 'convergent';
    coefficient is the fitted leading coefficient (the ln-Lambda slope for
    'log', the Lambda^2 resp. Lambda coefficient for the power families, and
    the limiting value for 'convergent').
    """

    __slots__ = __match_args__ = ("kind", "coefficient")

    def __init__(self, kind: str, coefficient: float) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "coefficient", coefficient)


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


def divergence_signature(probe: CutoffProbe) -> DivergenceSignature:
    """Classify the cutoff dependence of the radial integral from data alone.

    Uses increments per unit ln(Lambda): they vanish for a convergent
    integral, stay flat for a logarithmic one, and grow for the power-law
    families, whose exponent is then read off a log-log fit.
    """
    _require_grid(probe, min_points=4, min_span=1e3)
    grid, vals = probe.lambda_grid, probe.radials
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

    Extrapolates with a linear fit in (Lambda_top/Lambda)^2, i.e. in
    1/Lambda^2 scaled so it neither underflows nor overflows, over the top two
    grid decades; the remainder of the expansion is O(1/Lambda^4).  Only
    differences of this limit between two masses are cutoff-free physics:
    the limit itself shifts with the arbitrary constant freedom.
    """
    if probe.power != 2:
        raise ValueError(f"asymptote extraction requires a log-divergent probe (power 2), got a non-log probe with power {probe.power}")
    _require_grid(probe, min_points=4, min_span=1e4)
    grid = probe.lambda_grid
    threshold = grid[-1] / 100.0
    if sum(lam >= threshold for lam in grid) < 2:
        raise InsufficientGridError("need >= 2 grid points in the top two decades for extrapolation")
    xs = [(grid[-1] / lam) ** 2 for lam in grid if lam >= threshold]
    gs = [v - math.log(lam) for lam, v in zip(grid, probe.radials) if lam >= threshold]
    _, intercept = _line_fit(xs, gs)
    return intercept
