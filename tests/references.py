"""Earlier, simpler implementations the tests hold the package to.

``render_two_pass`` is the renderer ``loopreg.cli`` used before it laid out
JSON itself: format every number, then ``json.dumps(indent=2)``.
``bisect`` is the bisection that ``loopreg.oracle.find_root`` used to be,
with the same stop rule, and ``find_root`` is its Illinois loop before that
loop took its bounds and clamps as comparisons.  ``pole_boundary`` is the
pole row of ``loopreg.checks`` as it read ``resum_chain``'s raise of
``LandauPoleError``.  ``adapt`` is
``loopreg.oracle``'s adaptive bisection before it returned a first panel that
met the tolerance at once: every result goes through the heap and the two
``fsum``s.  ``radial_integral`` is
``loopreg.oracle.radial_integral`` as a plain per-piece sum, without
memoization, over the same edges: the decades of t = k/sqrt(M^2) for power 1,
and from power 2 on their images in sigma = c ln(1 + t^2), c = max(n - 2, 1),
with the doublings 0.5 .. 64 below the first; each piece goes through
``oracle.integrate`` of the integrand as a plain function (``radial_integrand``
for power 1).  A cutoff within 1% below an edge is taken as in the package, as
the sum up to that edge less the piece from the cutoff to it;
``complement=False`` sums the pieces up to the cutoff instead, as the package
once did for every cutoff.  Past t = 1e9 the package adds power 1's integral in
k instead, so for power 1 the two agree only up to that edge; the reference
has none of the package's logarithm paths where a float overflows.  The
package's versions must match their output byte for byte (and float for
float); root finders' evaluation counts are
compared with bisection's, and ``find_root``'s points, order and root with the
package's.  ``line_fit`` is the least-squares line solved in
``Fraction`` from the float points, the exact value a float fit is held to.
``bench_checker`` loads ``perfbench/checker.py``, which recomputes each value
from its own formulas; its ``radial`` is the one closed form of the radial
integral the tests hold the oracle to (the oracle must never hold one).
``bench_workloads`` loads ``perfbench/workloads.py``, the benchmark's request
generators, whose draws the tests hold to that checker.
"""

import heapq
import importlib.util
import json
import math
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path
from typing import Any, Callable

from loopreg import oracle, phi4


def _fmt_number(value: Any, precision: int, name: str) -> Any:
    """Numbers as decimal strings, recursively through lists and dicts;
    OverflowError for a float that is not finite, so no report prints inf or nan."""
    if isinstance(value, bool):
        return value
    if isinstance(value, (Fraction, int)):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise OverflowError(f"{name} is not finite: {value!r}")
        return format(value, f".{precision}g")
    if isinstance(value, (list, tuple)):
        return [_fmt_number(v, precision, name) for v in value]
    if isinstance(value, dict):
        return {k: _fmt_number(v, precision, name) for k, v in value.items()}
    return value


def render_two_pass(subcommand: str, report: Any, cfg: Any) -> None:
    """``cli._render`` in two passes: format the payload, then encode it."""
    p = cfg.precision
    if cfg.out_format != "json":
        rows = _fmt_number(next(value for name, value, _ in report.fields if name == "rows"), p, "rows")
        values = [list(row.values()) for row in rows]
        if cfg.out_format == "csv":
            lines = [",".join(rows[0])] + [",".join("" if v is None else v for v in row) for row in values]
        else:
            lines = [f"{x} {y}" for x, y, *_ in values if y is not None]
        sys.stdout.write("".join(line + "\n" for line in lines))
        return
    inputs = {**report.inputs, "units": cfg.units, "precision": cfg.precision}
    payload = {
        "subcommand": subcommand,
        "inputs": {k: (str(v) if isinstance(v, (int, float, Fraction)) else v) for k, v in inputs.items()},
        "outputs": {name: _fmt_number(value, p, name) for name, value, _ in report.fields},
        "provenance": {name: why for name, _, why in report.fields},
        "ledger": _fmt_number(report.ledger, p, "ledger"),
    }
    print(json.dumps(payload, indent=2))


def bisect(f: Callable[[float], float], lo: float, hi: float) -> float:
    """A root of f in [lo, hi] by bisection, to a relative width of 1e-15."""
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0 or f_hi == 0.0:
        return lo if f_lo == 0.0 else hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise ValueError(f"f({lo!r}) and f({hi!r}) have the same sign; no bracketed root")
    while hi - lo > 1e-15 * max(abs(lo), abs(hi)):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        f_mid = f(mid)
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def find_root(f: Callable[[float], float], lo: float, hi: float) -> float:
    """``loopreg.oracle.find_root`` before its loop was written out for its cost per step, with the sign
    at lo read once: the same points in the same order, the same root or the same error."""
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0 or f_hi == 0.0:
        return lo if f_lo == 0.0 else hi
    lo_positive = f_lo > 0.0  # the sign at lo, read once: a halved f_lo may round to 0.0
    if lo_positive == (f_hi > 0.0):
        raise ValueError(f"f({lo!r}) and f({hi!r}) have the same sign; no bracketed root")
    seen = {f_lo, f_hi}
    moved = None  # the end the last regula falsi step replaced
    widths = (math.inf, hi - lo)  # the bracket's width two steps back and one step back
    bisect = False
    while hi - lo > 1e-15 * max(abs(lo), abs(hi)):
        if bisect:
            x = 0.5 * (lo + hi)
        else:  # f_lo and f_hi weigh the ends
            margin = 0.5e-15 * max(abs(lo), abs(hi))
            x = min(max((lo * f_hi - hi * f_lo) / (f_hi - f_lo), lo + margin), hi - margin)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if x in (lo, hi):  # no float left between the ends
                break
        f_x = f(x)
        if f_x == 0.0:
            return x
        if (f_x > 0.0) == lo_positive:
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


def pole_boundary(state: phi4.ResummationState) -> float:
    """The boundary where ``phi4.resum_chain`` starts to raise LandauPoleError, bisected by
    ``oracle.find_root`` on that raise, from the bracket [mu0 4^j, mu0 4^(j+1)] that holds it."""

    def past_pole(mu: float) -> float:
        try:
            phi4.resum_chain(state, mu)
        except phi4.LandauPoleError:
            return 1.0
        return -1.0

    lo = state.mu0
    while past_pole(4.0 * lo) < 0.0:
        lo *= 4.0
    return oracle.find_root(past_pole, lo, 4.0 * lo)


def line_fit(xs: list[float], ys: list[float]) -> tuple[float, float]:
    """Least-squares straight line through (xs, ys), solved exactly: (slope, intercept) rounded once."""
    xs, ys = list(map(Fraction, xs)), list(map(Fraction, ys))
    n, sx, sy = len(xs), sum(xs), sum(ys)
    slope = (n * sum(x * y for x, y in zip(xs, ys)) - sx * sy) / (n * sum(x * x for x in xs) - sx * sx)
    return float(slope), float((sy - slope * sx) / n)


def adapt(panel: Callable[[float, float], tuple], a: float, b: float, epsrel: float, epsabs: float = 0.0) -> tuple[float, float]:
    """Adaptive bisection over the (-error, a, b, value) panels that panel(lo, hi) returns: (value, error)."""
    panels = [panel(a, b)]
    error, value = -panels[0][0], panels[0][3]
    while error > max(epsabs, epsrel * abs(value)) and len(panels) < 200:
        neg_error, lo, hi, whole = heapq.heappop(panels)
        mid = 0.5 * lo + 0.5 * hi
        left, right = panel(lo, mid), panel(mid, hi)
        heapq.heappush(panels, left)
        heapq.heappush(panels, right)
        value += left[3] + right[3] - whole
        error += neg_error - left[0] - right[0]
    return math.fsum(p[3] for p in panels), math.fsum(-p[0] for p in panels)


def _summed(f: Callable[[float], float], edges: list[float], epsrel: float) -> tuple[float, float]:
    """(value, error estimate) of the pieces of f between successive edges, added in order."""
    total = err_total = 0.0
    for a, b in zip(edges, edges[1:]):
        piece, err = oracle.integrate(f, a, b, epsrel)
        total += piece
        err_total += err
    return total, err_total


def radial_integral(power: int, mass_sq: float, cutoff: float, rel_tol: float = 1e-10, complement: bool = True) -> float:
    """int_0^cutoff k^3 (k^2 + M^2)^(-power) dk, summed piece by piece: in t = k/sqrt(M^2) over its decades for
    power 1, in sigma = c ln(1 + t^2), c = max(power - 2, 1), over their images and the doublings below them
    from power 2 on.  For power 1 up to t = 1e9, and for power 2 where t^2 fits a float."""
    if not cutoff > 0:
        raise ValueError(f"cutoff must be positive, got {cutoff!r}")
    if not mass_sq > 0:
        raise ValueError(f"mass_sq must be positive, got {mass_sq!r}")
    t_cut = cutoff / math.sqrt(mass_sq)
    if power == 1:
        edges, x_cut, scale = [0.0, 1.0], t_cut, mass_sq
        while edges[-1] < t_cut:
            edges.append(edges[-1] * 10.0)

        def f(t):
            return oracle.radial_integrand(t, 1, 1.0)
    else:
        c = float(max(power - 2, 1))
        images = [c * math.log1p(10.0 ** (2 * j)) for j in range(10)]  # of t = 1, 10, ..., 1e9
        edges = [0.0] + [d for d in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0) if d < images[0]] + images
        x_cut = c * math.log1p(t_cut * t_cut)
        if power > 2:
            x_cut = min(x_cut, 800.0)
        scale = mass_sq ** (2 - power) / (2.0 * c)

        def f(s):
            return -math.expm1(-s / c) * math.exp(-s) if power > 2 else -math.expm1(-s)
    epsrel = max(rel_tol / 10.0, 5e-14)
    inside = [e for e in edges if e <= x_cut]
    above = [e for e in edges if e > x_cut]
    if complement and above and 0.99 * above[0] <= x_cut:  # just below an edge: the pieces up to it less [x_cut, it]
        total, err_total = _summed(f, inside + above[:1], epsrel)
        piece, err = oracle.integrate(f, x_cut, above[0], epsrel)
        total, err_total = total - piece, err_total + err
    else:
        total, err_total = _summed(f, inside + ([x_cut] if x_cut != inside[-1] else []), epsrel)
    if err_total > rel_tol * abs(total):
        raise oracle.QuadratureError(
            f"quadrature error {err_total:.3e} exceeds rel_tol {rel_tol:.1e} "
            f"for power={power}, mass_sq={mass_sq}, cutoff={cutoff}"
        )
    radial = scale * total
    if not math.isfinite(radial):
        raise OverflowError(f"radial integral past the float range for power={power}, mass_sq={mass_sq}, cutoff={cutoff}")
    return radial


@cache
def _perfbench(name):
    """perfbench/<name>.py, loaded by path once and only read; it imports only the standard library, never loopreg."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass looks its module up by name
    spec.loader.exec_module(module)
    return module


def bench_checker():
    """perfbench/checker.py: the benchmark's independent check of every report."""
    return _perfbench("checker")


def bench_workloads():
    """perfbench/workloads.py: the benchmark's seeded request generators."""
    return _perfbench("workloads")
