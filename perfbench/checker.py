"""Output checker that recomputes every checked value from its own formulas.

Nothing here imports loopreg: the expected values come from the closed forms
written out below, so a layer under test cannot vouch for itself.  A checker
function raises ``Miss`` when the program gave no usable value (an error
exit, a traceback, unparsable output, a non-finite number), its subclass
``Wrong`` when a usable value misses its expectation, and returns ``None``
when the output holds.  Rendered numbers carry ``--precision`` significant digits,
so each comparison allows 10**(1 - precision) relative, plus the oracle's
requested tolerance where quadrature is involved.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from fractions import Fraction
from typing import Any, Callable, Optional, Sequence

DEFAULT_ALPHA = 1.0 / 137.036
ELECTRON_MASS_GEV = 0.000511
DEFAULT_BETHE_LOG = 2.8118
BETA_ONE_LOOP = 9.0 / (32.0 * math.pi**2)
GEV_TO_MHZ = 1.602176634e-10 / 6.62607015e-34 / 1e6
HIGGS_WINDOW_GEV = {"higgs_lower_bound": 76.0, "higgs_predicted": 138.0, "higgs_upper_bound": 170.0}
SIGNATURE_KIND = {1: "quadratic", 2: "log"}  # n >= 3 converges
ASYMPTOTE_ABS_TOL = 1e-6
FLOAT_SLACK = 1e-11  # different but equivalent double-precision formulas


class Miss(Exception):
    """A request that failed: the program gave no usable value."""

    wrong = False


class Wrong(Miss):
    """An output value that misses its independently computed expectation."""

    wrong = True


# ----------------------------- reference formulas -----------------------------


def radial(n: int, msq: float, cutoff: float) -> float:
    """int_0^cutoff k^3 (k^2 + M^2)^-n dk, via t = k^2/M^2 and expm1/log1p."""
    x = cutoff * cutoff / msq
    l1 = math.log1p(x)
    if n == 1:
        return 0.5 * (cutoff * cutoff - msq * l1)
    if n == 2:
        return 0.5 * (l1 - x / (1.0 + x))
    return 0.5 * msq ** (2 - n) * (math.expm1((1 - n) * l1) / (n - 1) - math.expm1((2 - n) * l1) / (n - 2))


def signature_kind(n: int) -> str:
    return SIGNATURE_KIND.get(n, "convergent")


def log_asymptote(msq: float) -> float:
    """lim radial(n=2) - ln(cutoff) = -1/2 ln M^2 - 1/2."""
    return -0.5 * math.log(msq) - 0.5


# ----------------------------- comparison helpers -----------------------------


def _num(value: Any, name: str) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise Miss(f"{name} is not finite: {value!r}")
    return x


def _close(name: str, got: Any, want: float, rel: float, scale: Optional[float] = None) -> None:
    """|got - want| <= rel * scale, scale defaulting to |want|."""
    x = _num(got, name)
    bound = (rel + FLOAT_SLACK) * (abs(want) if scale is None else scale)
    if not abs(x - want) <= bound:
        raise Wrong(f"{name} = {x!r}, expected {want!r} within {bound:.3g}")


def _equal(name: str, got: Any, want: Any) -> None:
    if got != want:
        raise Wrong(f"{name} = {got!r}, expected {want!r}")


def _rounding(p: dict[str, Any]) -> float:
    return 10.0 ** (1 - p["precision"])


def _gev(p: dict[str, Any]) -> float:
    """GeV per user mass unit."""
    return 1e-3 if p["units"] == "MeV" else 1.0


def _all_finite(value: Any, path: str) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _all_finite(v, f"{path}.{k}")
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _all_finite(v, f"{path}[{i}]")
    elif isinstance(value, str):
        try:
            x = float(value)
        except ValueError:
            return
        if not math.isfinite(x):
            raise Miss(f"{path} is not finite: {value!r}")


def _report(out: str, subcommand: str) -> dict[str, Any]:
    payload = json.loads(out)
    _equal("subcommand", payload["subcommand"], subcommand)
    _all_finite(payload["outputs"], "outputs")
    return payload["outputs"]


def _csv(out: str, header: Sequence[str]) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(out)))
    _equal("csv header", rows[0], list(header))
    return rows[1:]


# ----------------------------- per-kind checks -----------------------------


def _regularize(p: dict[str, Any], out: str) -> None:
    o = _report(out, "regularize")
    n = p["n"]
    _equal("superficial_degree", o["superficial_degree"], str(4 - 2 * n))
    _equal("differentiation_count", o["differentiation_count"], str(max(0, 3 - n)))
    terms = {(Fraction(t["coefficient"]), int(t["msq_power"]), t["log"]) for t in o["terms"]}
    if n == 1:  # I_1 = -M^2 ln M^2 + M^2 + constants
        want = {(Fraction(-1), 1, True), (Fraction(1), 1, False)}
    elif n == 2:  # I_2 = -ln M^2 + constant
        want = {(Fraction(-1), 0, True)}
    else:  # convergent: (-1)^n (M^2)^(2-n) / ((n-1)(n-2))
        want = {(Fraction((-1) ** n, (n - 1) * (n - 2)), 2 - n, False)}
    _equal("terms", terms, want)
    unfixed = max(0, 3 - n) - (p["mu1"] is not None)
    _equal("unfixed_constants", o["unfixed_constants"], str(unfixed))
    evaluated = p["msq"] is not None and unfixed == 0
    _equal("bracket_at_msq present", "bracket_at_msq" in o, evaluated)
    if not evaluated:
        return
    msq = p["msq"] * _gev(p) ** 2
    rel = _rounding(p)
    if n == 2:
        log_msq, log_mu1sq = math.log(msq), 2.0 * math.log(p["mu1"] * _gev(p))
        want_bracket, scale = log_mu1sq - log_msq, abs(log_msq) + abs(log_mu1sq)
    else:
        want_bracket = (-1) ** n * msq ** (2 - n) / ((n - 1) * (n - 2))
        scale = abs(want_bracket)
    _close("bracket_at_msq", o["bracket_at_msq"], want_bracket, rel, scale)
    unit = 16.0 * math.pi**2
    _close("value_imag_at_msq", o["value_imag_at_msq"], want_bracket / unit, rel, scale / unit)


def _selfenergy(p: dict[str, Any], out: str) -> None:
    o = _report(out, "selfenergy")
    m, alpha, rel = p["m"], p.get("alpha", DEFAULT_ALPHA), _rounding(p)
    mu1 = p.get("mu1", m * math.exp(-5.0 / 6.0))
    big_l = 2.0 * (math.log(m) - math.log(mu1))
    prefactor = alpha * m / (4.0 * math.pi)
    _close("delta_m", o["delta_m"], prefactor * (5.0 - 3.0 * big_l), rel, prefactor * (5.0 + 3.0 * abs(big_l)))
    _close("mu1_used", o["mu1_used"], mu1, rel)
    log_scale = 2.0 * (abs(math.log(m * _gev(p))) + abs(math.log(mu1 * _gev(p))))
    _close("log_ratio", o["log_ratio"], big_l, rel, abs(big_l) + 1e-3 * log_scale)
    _equal("constant_coefficient", o["constant_coefficient"], "5")
    _equal("log_coefficient", o["log_coefficient"], "-3")


def _mu1(p: dict[str, Any], out: str) -> None:
    o = _report(out, "mu1")
    _close("mu1", o["mu1"], p["m"] * math.exp(-5.0 / 6.0), _rounding(p))


def _lambshift(p: dict[str, Any], out: str) -> None:
    o = _report(out, "lambshift")
    alpha = p.get("alpha", DEFAULT_ALPHA)
    m = p["m"] * _gev(p) if "m" in p else ELECTRON_MASS_GEV
    bethe = p.get("bethe_log", DEFAULT_BETHE_LOG)
    prefactor = alpha**5 * m / (6.0 * math.pi) * GEV_TO_MHZ
    bracket = -2.0 * math.log(alpha) - bethe + 19.0 / 30.0
    scale = prefactor * (2.0 * abs(math.log(alpha)) + bethe + 19.0 / 30.0)
    _close("lamb_shift_mhz", o["lamb_shift_mhz"], prefactor * bracket, _rounding(p), scale)


def _phi4(p: dict[str, Any], out: str) -> None:
    o = _report(out, "phi4")
    sigma, lam, rel = p["sigma"], p["lam"], _rounding(p)
    _close("phi1", o["phi1"], math.sqrt(6.0 * sigma / lam), rel)
    _close("m_sigma", o["m_sigma"], math.sqrt(2.0 * sigma), rel)
    _close("lambda_renormalized", o["lambda_renormalized"], lam * (1.0 + 9.0 * lam / (32.0 * math.pi**2)), rel)
    _close("invariant_ratio", o["invariant_ratio"], lam, rel)
    for key, gev in HIGGS_WINDOW_GEV.items():
        _close(key, o[key], gev / _gev(p), rel)


class _Running:
    """lambda(mu) = lambda0 / (1 - b lambda0 ln(mu^2/mu0^2)), checked through its denominator."""

    def __init__(self, p: dict[str, Any]):
        self.lambda0, self.mu0 = p["lambda0"], p["mu0"]
        self.b = p.get("b", BETA_ONE_LOOP)
        self.rel = _rounding(p)
        self.log_critical = math.log(self.mu0) + 1.0 / (2.0 * self.b * self.lambda0)

    def denominator(self, mu: float) -> tuple[float, float]:
        """(1 - b lambda0 L, the size of its terms) at mu."""
        term = self.b * self.lambda0 * 2.0 * math.log(mu / self.mu0)
        return 1.0 - term, 1.0 + abs(term)

    def check_critical(self, got: Any) -> None:
        x = _num(got, "critical_scale")
        if self.log_critical >= math.log(sys.float_info.max):
            raise Wrong(f"critical_scale = {x!r}, expected exp({self.log_critical!r}), beyond the float range")
        _close("critical_scale", x, math.exp(self.log_critical), self.rel)

    def check_row(self, name: str, mu: float, coupling: Optional[str], status: str) -> None:
        """A finite row matches the closed form; a pole row lies at or past mu_c."""
        d, scale = self.denominator(mu)
        slack = (self.rel + FLOAT_SLACK) * scale
        if coupling is None:
            if d > slack:
                raise Wrong(f"{name}: pole reported below the critical scale (denominator {d!r})")
            _equal(f"{name} status", status, "pole")
            return
        c = _num(coupling, f"{name} coupling")
        if d < -slack:
            raise Wrong(f"{name}: finite coupling reported beyond the pole (denominator {d!r})")
        _close(f"{name} lambda0/coupling", self.lambda0 / c, d, self.rel, scale)
        if d > slack:
            _equal(f"{name} status", status, "ssb-vacuum")


def _resum_point(p: dict[str, Any], out: str) -> None:
    o = _report(out, "resum")
    run = _Running(p)
    run.check_row("resum", p["mu"], o["coupling"], o["status"])
    term = 1.0 - run.denominator(p["mu"])[0]
    _close("first_order", o["first_order"], run.lambda0 * (1.0 + term), run.rel,
           run.lambda0 * (1.0 + abs(term)))
    run.check_critical(o["critical_scale"])


def _resum_sweep(p: dict[str, Any], out: str) -> None:
    run = _Running(p)
    lo, hi, points = p["mu_min"], p["mu_max"], p["mu_points"]
    if p["format"] == "csv":
        rows = [(mu, c or None, s) for mu, c, s in _csv(out, ("mu", "coupling", "status"))]
    else:
        o = _report(out, "resum")
        run.check_critical(o["critical_scale"])
        rows = [(r["mu"], r["coupling"], r["status"]) for r in o["rows"]]
    _equal("sweep points", len(rows), points)
    for i, (mu, coupling, status) in enumerate(rows):
        want_mu = lo * (hi / lo) ** (i / (points - 1))
        _close(f"row {i} mu", mu, want_mu, run.rel + 1e-12)
        run.check_row(f"row {i}", want_mu, coupling, status)


def check_radial_rows(p: dict[str, Any], radials: Sequence[Any], rel: float) -> None:
    """Each radial value against the antiderivative, to 10x rel_tol plus rounding."""
    n, gev = p["n"], _gev(p)
    _equal("row count", len(radials), len(p["grid"]))
    for cutoff, got in zip(p["grid"], radials):
        want = radial(n, p["msq"] * gev * gev, cutoff * gev)
        _close(f"radial at {cutoff:g}", got, want, 10.0 * p["rel_tol"] + rel)


def _oracle_rows(p: dict[str, Any], rows: Sequence[tuple[Any, Any, Any]]) -> None:
    rel = _rounding(p)
    _equal("row count", len(rows), len(p["grid"]))
    for (cutoff, got, multiple), want_cutoff in zip(rows, p["grid"]):
        _close("cutoff", cutoff, want_cutoff, rel)
        _close("unit_multiple", multiple, (-1) ** p["n"] * 2.0 * float(got), 2.0 * rel)
    check_radial_rows(p, [r for _, r, _ in rows], rel)


def _oracle_point(p: dict[str, Any], out: str) -> None:
    _oracle_rows(p, _csv(out, ("cutoff", "radial", "unit_multiple")))


def check_signature(p: dict[str, Any], kind: str, asymptote: Optional[Any], rel: float = 0.0) -> None:
    _equal("signature_kind", kind, signature_kind(p["n"]))
    if p["n"] == 2:
        want = log_asymptote(p["msq"] * _gev(p) ** 2)
        _close("asymptote_constant", asymptote, want, 1.0, ASYMPTOTE_ABS_TOL + rel * abs(want))


def _oracle_report(p: dict[str, Any], out: str) -> None:
    o = _report(out, "oracle")
    _oracle_rows(p, [(r["cutoff"], r["radial"], r["unit_multiple"]) for r in o["rows"]])
    check_signature(p, o["signature_kind"], o.get("asymptote_constant"), _rounding(p))
    _num(o["signature_coefficient"], "signature_coefficient")


def _demo(p: dict[str, Any], out: str) -> None:
    if "RESULT: ALL CHECKS PASSED" not in out:
        raise Wrong("demo did not report every check passed")


CHECKS: dict[str, Callable[[dict[str, Any], str], None]] = {
    "regularize": _regularize, "selfenergy": _selfenergy, "mu1": _mu1,
    "lambshift": _lambshift, "phi4": _phi4, "resum-point": _resum_point,
    "resum-sweep": _resum_sweep, "oracle-point": _oracle_point,
    "oracle-report": _oracle_report, "demo": _demo,
}


def check_cli(kind: str, params: dict[str, Any], code: int, out: str, err: str) -> Optional[Miss]:
    """None if a CLI request succeeded with correct output, else why it failed."""
    if code != 0:
        return Miss(f"exit code {code}: {err.strip()[-300:]}")
    if "Traceback" in err:
        return Miss("traceback on stderr")
    try:
        CHECKS[kind](params, out)
    except Miss as exc:
        return exc
    except (ValueError, KeyError, TypeError, IndexError, ArithmeticError) as exc:
        return Miss(f"unparsable output: {exc!r}")
    return None


def check_sweep(params: dict[str, Any], radials: Sequence[float], kind: str, asymptote: Optional[float]) -> Optional[Miss]:
    """None if an oracle-sweep request's library results hold, else why it failed."""
    try:
        check_radial_rows(params, radials, 0.0)
        check_signature(params, kind, asymptote)
    except Miss as exc:
        return exc
    return None
