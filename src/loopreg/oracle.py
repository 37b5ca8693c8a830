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

``radial_integral`` is the one read of a cutoff, in a variable that carries no
mass (from n = 2 on, one where it is an incomplete beta integral, DLMF 8.17),
over memoized pieces; its docstring gives the variables and the rules.  A
``CutoffProbe`` reads each of its cutoffs through it, in grid order, so each
failure is worded once and a probe gives a single read's float or error.  Both
fits read only the cutoffs at or above sqrt(M^2), where the large-cutoff
expansion holds, and check their grid rule on those before they read a radial,
so a short grid fails before any quadrature.  The signature computes only the
two slopes it reads, those of the first and the last step, and skips a step
between two cutoffs whose logarithms round to one double, a step of no width
in ln(Lambda); the grid rule leaves at least one step that is not skipped.
The asymptote refuses a top-two-decade window with no cutoff at or below
Lambda_top/sqrt(2), too narrow to extrapolate from.
"""

from __future__ import annotations

import heapq
import math
import operator
import sys
from bisect import bisect_left, bisect_right
from collections.abc import Callable
from functools import lru_cache

from . import _Record, _positive

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

_FLOAT_MIN = sys.float_info.min  # the smallest normal float, read once for radial_integral


class QuadratureError(ArithmeticError):
    """Adaptive quadrature failed to reach the requested relative tolerance."""


class InsufficientGridError(ValueError):
    """The cutoff grid is too small or too narrow for the requested fit."""


def _check_rel_tol(rel_tol: float) -> None:
    """ValueError unless rel_tol sits in (0, 1e-6], the window of a probe and of a single cutoff alike."""
    if not 0.0 < rel_tol <= 1e-6:
        raise ValueError(f"rel_tol must lie in (0, 1e-6], got {rel_tol!r}")


class QuadratureSpec(_Record):
    """Adaptive quadrature configuration; rel_tol must sit in (0, 1e-6]."""

    __slots__ = __match_args__ = ("rel_tol",)

    def __init__(self, rel_tol: float = 1e-10) -> None:
        if not 0.0 < rel_tol <= 1e-6:  # one comparison on valid input: the helper only to raise
            _check_rel_tol(rel_tol)
        object.__setattr__(self, "rel_tol", rel_tol)


class _lazy:
    """``functools.cached_property`` without its lock (held on every first read up to Python 3.11): the first read
    stores the value in the instance's ``__dict__``, where later reads find it before this non-data descriptor."""

    def __init__(self, func: Callable) -> None:
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


class CutoffProbe(_Record):
    """A cutoff sweep over a Lambda grid; ``radials`` reads every cutoff on
    first read, and is kept beside the fields, outside equality."""

    __match_args__ = ("power", "mass_sq", "lambda_grid", "quadrature")
    __slots__ = (*__match_args__, "__dict__")

    def __init__(self, power: int, mass_sq: float, lambda_grid: tuple[float, ...], quadrature: QuadratureSpec = QuadratureSpec()) -> None:
        lambda_grid = tuple(map(float, lambda_grid))
        if not (power >= 1 and mass_sq > 0):  # nan too; one comparison on valid input: the helper only to raise
            if not power >= 1:
                raise ValueError(f"power must be >= 1, got {power!r}")
            _positive("mass_sq", mass_sq)
        if not lambda_grid or not lambda_grid[0] > 0:  # nan too
            raise ValueError("cutoff grid values must be positive")
        if not all(map(operator.lt, lambda_grid, lambda_grid[1:])):  # a later cutoff at or below the one before, or a nan
            raise ValueError("cutoff grid must be strictly increasing")
        object.__setattr__(self, "power", power)
        object.__setattr__(self, "mass_sq", mass_sq)
        object.__setattr__(self, "lambda_grid", lambda_grid)
        object.__setattr__(self, "quadrature", quadrature)

    @_lazy
    def radials(self) -> tuple[float, ...]:
        """radial_integral at each cutoff, in grid order: the one read of a cutoff, so a probe gives a single read's float or error."""
        power, mass_sq, rel_tol = self.power, self.mass_sq, self.quadrature.rel_tol
        return tuple([radial_integral(power, mass_sq, cutoff, rel_tol) for cutoff in self.lambda_grid])


def radial_integrand(k: float, power: int, mass_sq: float) -> float:
    """k^3 / (k^2 + M^2)^power, the Euclidean radial integrand; where that form overflows, far above the mass,
    k^(3-2n) / (1 + M^2/k^2)^n, and where both overflow, 0.0, since the integrand is below 2^-1024 there."""
    try:
        return k**3 / (k * k + mass_sq) ** power
    except OverflowError:
        try:
            return k ** (3 - 2 * power) / (1.0 + mass_sq / (k * k)) ** power
        except OverflowError:
            return 0.0


def default_grid(mass_sq: float) -> tuple[float, ...]:
    """The default cutoff grid of a probe: DEFAULT_GRID_FACTORS times sqrt(M^2)."""
    _positive("mass_sq", mass_sq)
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
# The radial panels' rules as (node pairs, Kronrod center weight, Gauss center weight): G7-K15 above, and for a narrow
# piece G2-K5 (Kronrod, 1965): nodes 0, +-1/sqrt(3) and +-sqrt(6/7), weights 28/45, 27/55 and 98/495, exact to degree 7,
# and its 2 Gauss points +-1/sqrt(3), weight 1, to 3.
_K15 = (_PAIRS, _KRONROD[-1], _GAUSS[-1])
_K5 = (((0.925820099772551461566566776584, 0.197979797979797979797979797979798, 0.0),
        (0.577350269189625764509148780501957, 0.490909090909090909090909090909091, 1.0)),
       0.622222222222222222222222222222222, 0.0)


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


def _radial_panel(power: int, a: float, b: float, rule: tuple = _K15) -> tuple[float, float, float, float]:
    """``_panel`` of radial_integrand(t, power, 1.0), its unscaled form written out: power 1's integrand in t, by the rule given."""
    pairs, kronrod_center, gauss_center = rule
    center, half = 0.5 * a + 0.5 * b, 0.5 * (b - a)
    f_center = center**3 / (center * center + 1.0) ** power
    kronrod, gauss = kronrod_center * f_center, gauss_center * f_center
    for x, w_kronrod, w_gauss in pairs:
        t, u = center - half * x, center + half * x
        pair = t**3 / (t * t + 1.0) ** power + u**3 / (u * u + 1.0) ** power
        kronrod += w_kronrod * pair
        gauss += w_gauss * pair
    return -abs(half * (kronrod - gauss)), a, b, half * kronrod


def _sigma_panel(power: int, a: float, b: float, rule: tuple = _K15) -> tuple[float, float, float, float]:
    """``_panel`` of the radial's integrand in sigma over 1/(2c), written out: -expm1(-sigma/c) e^(-sigma), -expm1(-sigma)
    at power 2; by the rule given."""
    pairs, kronrod_center, gauss_center = rule
    expm1, exp, c = math.expm1, math.exp, power - 2.0
    center, half = 0.5 * a + 0.5 * b, 0.5 * (b - a)
    f_center = -expm1(-center / c) * exp(-center) if c else -expm1(-center)
    kronrod, gauss = kronrod_center * f_center, gauss_center * f_center
    for x, w_kronrod, w_gauss in pairs:
        s, u = center - half * x, center + half * x
        pair = -expm1(-s / c) * exp(-s) - expm1(-u / c) * exp(-u) if c else -expm1(-s) - expm1(-u)
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
    return _adapt(_panel, f, a, b, epsrel, epsabs)


def _adapt(panel: Callable[..., tuple], arg: object, a: float, b: float, epsrel: float, epsabs: float) -> tuple[float, float]:
    """``integrate``'s adaptive bisection over the panels that panel(arg, lo, hi) returns."""
    panels = [panel(arg, a, b)]
    error, value = -panels[0][0], panels[0][3]
    tol = epsrel * abs(value)  # max(epsabs, tol) is written out below: the call costs as much as the rest of the test
    if not error > (tol if tol > epsabs else epsabs):  # one panel settles it: return what the fsums of one entry give
        return value + 0.0, error
    while error > max(epsabs, epsrel * abs(value)) and len(panels) < 200:
        neg_error, lo, hi, whole = heapq.heappop(panels)
        mid = 0.5 * lo + 0.5 * hi  # as in _panel: finite where lo + hi overflows
        left, right = panel(arg, lo, mid), panel(arg, mid, hi)
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

    The loop is written for its cost per step: max(|lo|, |hi|) and the clamp
    of the regula falsi point are comparisons, not calls.  The loop runs only
    while lo < hi, and there ``hi if hi >= -lo else -lo`` is max(|lo|, |hi|).
    """
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0 or f_hi == 0.0:
        return lo if f_lo == 0.0 else hi
    lo_positive = f_lo > 0.0  # read once: a replaced f_lo keeps this sign, and a halved one may round to 0.0
    if lo_positive == (f_hi > 0.0):
        raise ValueError(f"f({lo!r}) and f({hi!r}) have the same sign; no bracketed root")
    seen = {f_lo, f_hi}
    moved = None  # the end the last regula falsi step replaced
    older, width = math.inf, hi - lo  # the bracket's width two steps back and one step back
    bisect = False
    while width > 1e-15 * (hi if hi >= -lo else -lo):
        if bisect:
            x = 0.5 * (lo + hi)
        else:  # f_lo and f_hi weigh the ends; the point is kept margin inside them, and a nan stays for the test below
            margin = 0.5e-15 * (hi if hi >= -lo else -lo)
            x = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
            if x < lo + margin:
                x = lo + margin
            if x > hi - margin:
                x = hi - margin
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if x in (lo, hi):  # no float left between the ends
                break
        f_x = f(x)
        if f_x == 0.0:
            return x
        if (f_x > 0.0) == lo_positive:
            lo, f_lo = x, f_x
            if not bisect:
                if moved == "lo":
                    f_hi *= 0.5
                moved = "lo"
        else:
            hi, f_hi = x, f_x
            if not bisect:
                if moved == "hi":
                    f_lo *= 0.5
                moved = "hi"
        bisect = f_x in seen or hi - lo > 0.5 * older
        seen.add(f_x)
        older, width = width, hi - lo
    return 0.5 * (lo + hi)


def _past_float_range(power: int, at: str = "") -> OverflowError:
    """The radial's one overflow error: past the float range for the power, and for the mass and cutoff given in at.

    An integer power of 1e20 or more is quoted at six digits, rounded half up, as 1.23457e+400, through ``decimal``:
    its conversion to a float, for a format, overflows past 1.8e308.
    """
    text = power
    if isinstance(power, int) and power >= 10**20:
        from decimal import ROUND_HALF_UP, Context  # here alone: no call that does not fail loads decimal

        ctx = Context(prec=6, rounding=ROUND_HALF_UP)
        text = f"{ctx.create_decimal(power).normalize(ctx):g}"
    return OverflowError(f"radial integral past the float range for power={text}{at}")


_EDGES = (0.0, 1.0, 10.0, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9)  # the decade edges of t, up to the last, 1e9


@lru_cache(maxsize=256)
def _edges(power: int) -> tuple[float, ...]:
    """The piece edges: the decades of t for power 1, else their images in sigma and the doublings 0.5 .. 64 below them."""
    if power == 1:
        return _EDGES
    if power > sys.float_info.max:  # a power that no float holds
        raise _past_float_range(power)
    images = [(power - 2.0 if power > 2 else 1.0) * math.log1p(t * t) for t in _EDGES[1:]]
    return (0.0, *[2.0**j for j in range(-1, 7) if 2.0**j < images[0]], *images)


def _radial_piece(power: int, a: float, b: float, epsrel: float) -> tuple[float, float]:
    """(value, error estimate) of the radial's integral over [a, b], in t for power 1 and in sigma from power 2 on.

    A narrow piece, b - a <= 1e-5 * b (a cutoff typed at 6 digits next to an edge), first takes one G2-K5 panel and
    returns it when |K5 - G2| meets epsrel; every other piece, and a narrow one that the 5 points do not settle, runs
    ``_adapt``.
    """
    panel = _radial_panel if power == 1 else _sigma_panel
    if b - a <= 1e-5 * b:
        neg_error, _, _, value = panel(power, a, b, _K5)
        if not -neg_error > epsrel * abs(value):  # as _adapt's one-panel return
            return value + 0.0, -neg_error
    return _adapt(panel, power, a, b, epsrel, 0.0)


def _scaled_below_mass(power: int, t_cut: float, epsrel: float) -> tuple[float, float]:
    """(value, error estimate) of J = int_0^1 u^3 (1 + t^2 u^2)^(-power) du, apart from radial_integral, whose power a closure would make a cell."""
    return integrate(lambda u: u**3 * (1.0 + t_cut * t_cut * u * u) ** -power, 0.0, 1.0, epsrel)


@lru_cache(maxsize=1024)
def _decade_sums(power: int, k: int, epsrel: float) -> tuple[float, float]:
    """(value, error estimate) of the radial's integral from 0 up to the edge _edges(power)[k], k >= 1: the memoized
    sum up to edges[k - 1] plus the full piece from there, so the pieces are summed in order from the bottom."""
    below = _decade_sums(power, k - 1, epsrel) if k > 1 else (0.0, 0.0)
    value, err = _radial_piece(power, *_edges(power)[k - 1:k + 1], epsrel)
    return below[0] + value, below[1] + err


@lru_cache(maxsize=256)  # a cache of its own, so distinct cutoffs cannot evict the decade sums
def _integral_to(power: int, x_cut: float, epsrel: float) -> tuple[float, float]:
    """(value, error estimate) of the radial's integral from 0 up to x_cut, in t or sigma as _radial_piece takes it:
    the decade sums up to the edge edges[k] <= x_cut plus one short piece, or within 1% below the next edge up
    the sums up to that edge less [x_cut, it]; a warm cutoff is this one lookup."""
    edges = _edges(power)
    k = bisect_right(edges, x_cut) - 1  # the full pieces end at edges[k] <= x_cut
    if k + 1 < len(edges) and 0.99 * edges[k + 1] <= x_cut:  # just below the next edge up: the pieces up to it less [x_cut, it]
        total, err_total = _decade_sums(power, k + 1, epsrel)
        piece, err = _radial_piece(power, x_cut, edges[k + 1], epsrel)
        return total - piece, err_total + err
    total, err_total = _decade_sums(power, k, epsrel) if k else (0.0, 0.0)
    piece, err = _radial_piece(power, edges[k], x_cut, epsrel) if edges[k] != x_cut else (0.0, 0.0)
    return total + piece, err_total + err


def radial_integral(power: int, mass_sq: float, cutoff: float, rel_tol: float = 1e-10) -> float:
    """Adaptive quadrature of int_0^cutoff k^3 (k^2 + M^2)^(-power) dk, the one read of a cutoff (a probe's too).

    Power 1 runs in t = k/sqrt(M^2), as M^2 int t^3/(t^2 + 1) dt plus (cutoff - E)(cutoff + E)/2 past E = 1e9 sqrt(M^2); from
    power 2 on in sigma = c ln(1 + t^2), c = max(power - 2, 1), as (M^2)^(2-power)/(2c) int -expm1(-sigma/c) e^(-sigma) dsigma,
    with no e^(-sigma) at power 2 and sigma stopped at 800 from power 3 on.  Memoized sums of the full pieces, between the
    decades of t up to 1e9 or their images in sigma, serve every cutoff and mass, less one short piece within 1% below an
    edge; a short piece no wider than 1e-5 of its upper end takes one G2-K5 panel where that meets its tolerance, and the
    adaptive G7-K15 rule otherwise.  The sum up to each t or sigma is memoized too, and so is what one (power, M^2,
    rel_tol) shares, so a warm cutoff is its t or sigma, one lookup and its scaling.  A scale, or an integral below the
    mass, past the float range is taken through logarithms.  rel_tol must sit in (0, 1e-6].  Raises QuadratureError when
    the summed error misses rel_tol, cached or not, and OverflowError past the float range.

    The common path ends in one test; only a cutoff that fails it, an integral below the smallest normal float, an
    error past rel_tol or a radial that is not finite, runs the branches below it.
    """
    if not (power >= 1 and cutoff > 0 and mass_sq > 0):  # nan too; one comparison on valid input: the helper only to raise
        if not power >= 1:
            raise ValueError(f"power must be >= 1, got {power!r}")
        _positive("cutoff", cutoff)
        _positive("mass_sq", mass_sq)
    edges, root, c, epsrel, scale = _setup(power, mass_sq, rel_tol)
    t_cut = x_cut = cutoff / root
    tail = 0.0
    if power > 1:  # sigma = c ln(1 + t^2), from the logarithms of cutoff and sqrt(M^2) where t^2 may overflow
        x_cut = c * (math.log1p(t_cut * t_cut) if t_cut < 1e154 else 2.0 * (math.log(cutoff) - math.log(root)))
        if power > 2 and x_cut > 800.0:  # the integrand is below e^(-sigma), which has underflowed there
            x_cut = 800.0
    elif t_cut > 1e9:  # past the last edge: its decades, then k integrated in k from E = 1e9 sqrt(M^2) on
        x_cut, tail = 1e9, 0.5 * (cutoff - 1e9 * root) * (cutoff + 1e9 * root)
    total, err_total = _integral_to(power, x_cut, epsrel)
    radial = scale * total + tail
    if total < _FLOAT_MIN or err_total > rel_tol * total or not radial < math.inf:
        below = total < _FLOAT_MIN and x_cut < edges[1]
        if below:  # t^4/4 underflows, though the radial may fit: it is cutoff^4 (M^2)^(-n) J, J in u = k/cutoff
            total, err_total = _scaled_below_mass(power, t_cut, epsrel)
        if err_total > rel_tol * abs(total):
            raise QuadratureError(f"quadrature error {err_total:.3e} exceeds rel_tol {rel_tol:.1e} "
                                  f"for power={power}, mass_sq={mass_sq}, cutoff={cutoff}")
        radial = scale * total + tail
        if below or not math.isfinite(radial):
            if total > 0 and (below or scale == math.inf):  # J's factor, or (M^2)^(2-n) alone (n >= 3), may leave the float range
                log_factor = 4.0 * math.log(cutoff) - power * math.log(mass_sq) if below else (2 - power) * math.log(mass_sq) - math.log(2.0 * c)
                try:
                    radial = math.exp(math.log(total) + log_factor)
                except OverflowError:
                    radial = math.inf
            if not math.isfinite(radial):
                raise _past_float_range(power, f", mass_sq={mass_sq}, cutoff={cutoff}")
    return radial


@lru_cache(maxsize=64)
def _setup(power: int, mass_sq: float, rel_tol: float) -> tuple[tuple[float, ...], float, float, float, float]:
    """What every cutoff of one (power, M^2, rel_tol) shares: ValueError unless rel_tol sits in its window, then the
    edges, sqrt(M^2), c, the pieces' epsrel and the scale (M^2)^(2-n)/(2c), inf where it leaves the float range."""
    _check_rel_tol(rel_tol)
    edges = _edges(power)  # first: a power that no float holds fails here with its own message, not at power - 2.0 below
    root, c = math.sqrt(mass_sq), power - 2.0 if power > 2 else 1.0
    # |K15 - G7| bottoms out near the rounding of the 15-point sums, so a piece asked for less than
    # 5e-14 would only run to the panel limit; each cutoff's rel_tol check still enforces rel_tol, so tighter requests fail loudly.
    epsrel = rel_tol / 10.0 if not 5e-14 > rel_tol / 10.0 else 5e-14  # max(rel_tol / 10.0, 5e-14) without the call
    try:  # sigma's integrand leaves out the factor 1/(2c)
        scale = mass_sq ** (2 - power) / (2.0 * c if power > 1 else 1.0)
    except OverflowError:  # the power of M^2 alone leaves the float range
        scale = math.inf
    return edges, root, c, epsrel, scale


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

    kind is one of 'log', 'quadratic', 'convergent', the three growths that the
    family's degrees 4 - 2n (2, 0, -2, ...) allow; coefficient is the fitted
    leading coefficient (the ln-Lambda slope for 'log', the Lambda^2
    coefficient for 'quadratic', and the limiting value for 'convergent').
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
    sxx = math.fsum([(x - x_mean) ** 2 for x in xs])
    sxy = math.fsum([(x - x_mean) * (y - y_mean) for x, y in zip(xs, ys)])
    slope = sxy / sxx
    return slope, y_mean - slope * x_mean


def _require_grid(probe: CutoffProbe, min_points: int, min_span: float) -> int:
    """The index of the first cutoff at or above sqrt(M^2); InsufficientGridError unless the rule holds from there."""
    grid = probe.lambda_grid
    first = bisect_left(grid, math.sqrt(probe.mass_sq))
    count = len(grid) - first
    if count < min_points or grid[-1] / grid[first] < min_span * 0.999:
        raise InsufficientGridError(
            f"need at least {min_points} cutoffs at or above sqrt(M^2) spanning >= {math.log10(min_span):g} decades, "
            f"got {count}" + (f" spanning {math.log10(grid[-1] / grid[first]):g} decades" if count else "")
        )
    return first


def divergence_signature(probe: CutoffProbe) -> DivergenceSignature:
    """Classify the cutoff dependence of the radial integral from data alone.

    Reads the increments per unit ln(Lambda) over the cutoffs at or above
    sqrt(M^2), where the large-cutoff expansion holds: they vanish for a
    convergent integral, stay flat for a log one and grow for the quadratic.
    """
    first = _require_grid(probe, min_points=4, min_span=1e3)
    grid, vals = probe.lambda_grid[first:], probe.radials[first:]
    logs = list(map(math.log, grid))
    i, j = 0, len(logs) - 1  # the first and last steps that have a width: two cutoffs whose logarithms round
    while logs[i + 1] == logs[i]:  # to one double make a step of zero width, which carries no slope
        i += 1
    while logs[j - 1] == logs[j]:
        j -= 1
    first_slope = (vals[i + 1] - vals[i]) / (logs[i + 1] - logs[i])
    last_slope = (vals[j] - vals[j - 1]) / (logs[j] - logs[j - 1])
    if last_slope <= 1e-4 * abs(vals[-1]) or last_slope <= 0.1 * first_slope:
        return DivergenceSignature("convergent", vals[-1])
    if last_slope < 2.0 * first_slope:
        slope, _ = _line_fit(logs, vals)
        return DivergenceSignature("log", slope)
    return DivergenceSignature("quadratic", vals[-1] / grid[-1] ** 2)


def asymptote_constant(probe: CutoffProbe) -> float:
    """lim_{Lambda->inf} [radial(Lambda) - ln(Lambda)] for a log probe (power 2).

    Extrapolates with a linear fit in (Lambda_top/Lambda)^2, i.e. in
    1/Lambda^2 scaled so it neither underflows nor overflows, over the top two
    grid decades; the remainder of the expansion is O(1/Lambda^4).  The grid
    rule, 4 cutoffs at or above sqrt(M^2) over 4 decades, puts that window at
    or above 100 sqrt(M^2), and the top cutoff at or above ~1e4 sqrt(M^2).
    The window must also hold a cutoff at or below Lambda_top/sqrt(2), x >= 2,
    so a grid whose top cutoffs sit closer than that is refused.
    Only differences of this limit between two masses are cutoff-free
    physics: the limit itself shifts with the arbitrary constant freedom.
    """
    if probe.power != 2:
        raise ValueError(f"asymptote extraction requires a log-divergent probe (power 2), got a non-log probe with power {probe.power}")
    _require_grid(probe, min_points=4, min_span=1e4)
    grid = probe.lambda_grid
    threshold = grid[-1] / 100.0
    xs = [(grid[-1] / lam) ** 2 for lam in grid if lam >= threshold]
    if len(xs) < 2:
        raise InsufficientGridError("need >= 2 grid points in the top two decades for extrapolation")
    if not xs[0] >= 2.0:  # extrapolating to x = 0 amplifies the window's rounding about 1 + 2/(x_max - 1) times: 3 at x = 2
        raise InsufficientGridError("need a grid point at or below Lambda_top/sqrt(2) in the top two decades for extrapolation")
    gs = [v - math.log(lam) for lam, v in zip(grid, probe.radials) if lam >= threshold]
    _, intercept = _line_fit(xs, gs)
    return intercept
