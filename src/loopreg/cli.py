"""Command-line front end.

Every library operation is a subcommand that emits a machine-readable report:
a flat JSON object with ``inputs``, ``outputs``, ``provenance`` and ``ledger``
keys (numbers as decimal strings at the configured precision, so reports are
platform-stable), CSV for sweep subcommands, or bare two-column plot data.

Each subcommand and flag is declared once, in ``_SUBCOMMANDS``, and one loop
builds the parsers from it.  A flag's row gives its mass dimension d: under
``--units MeV``, ``run`` converts each such input to GeV^d once, before the
handler runs, and refuses a positive one whose image underflows to 0 or to a
subnormal, quoting it as typed.  A non-positive one stays as typed: every mass
input must be positive, so the library's refusal quotes the typed value.
Handlers compute in GeV, echo their inputs as typed and convert their mass
outputs back; where a library failure quotes masses in GeV, ``_as_typed``
rewrites its message to quote them as typed.  The other dimensionful outputs
(``radial``, ``unit_multiple``, ``signature_coefficient``,
``asymptote_constant``, ``bracket_at_msq``, ``value_imag_at_msq``) are
GeV-based whatever ``--units`` says, as the benchmark's checker reads them.

Each handler only computes a ``Report``; ``run`` checks the format before any
computation, and ``_render`` writes the report in one pass: as JSON, byte for
byte as ``json.dumps(payload, indent=2)`` prints the formatted payload, or its
sweep rows as csv or plot-data.  ``demo`` prints one PASS/FAIL line per row of
``loopreg.checks.CHECKS``, the table the acceptance test asserts.

Exit codes: 0 success, 2 usage/validation error, 3 numeric failure
(quadrature tolerance unmet, a pole where a finite value was requested, a
floating-point overflow, underflow or division by zero, or a non-finite
number about to be printed).  Every float flag must be finite: ``inf`` and
``nan`` are usage errors.  Handlers load no library module at import: each
imports the modules it calls, so a one-shot call loads only what its
subcommand runs (``regularize`` only ``kernel``).

Parsing reads the table first: ``_parse_declared`` reads a well-formed
``SUB --flag value ...`` argv without importing argparse.  Every other argv
(help, a usage error, ``--flag=value``, ``--``, an abbreviated flag, a
negative value) goes to argparse, the parser of record for each message: the
parsers are built once per process, on the first argv the table refuses.  A
subcommand's own flag (``--units``, ``--precision``, ``--format``,
``--config``) typed before the subcommand is a usage error that names it.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import sys
from collections import namedtuple
from collections.abc import Callable, Iterable, Sequence
from types import SimpleNamespace

from . import _Record, _positive

try:  # the C function json.encoder re-exports, without loading the json package
    from _json import encode_basestring_ascii
except ImportError:  # no C accelerator: json.encoder's pure-Python twin
    from json.encoder import encode_basestring_ascii

DEFAULT_PRECISION = 12
PRECISION_ENV_VAR = "LOOPREG_PRECISION"
_CONFIG_KEYS = ("units", "precision", "format")

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3


# ----------------------------- run configuration -----------------------------


class RunConfig(_Record):
    __slots__ = __match_args__ = ("units", "precision", "out_format")

    def __init__(self, units: str = "GeV", precision: int = DEFAULT_PRECISION, out_format: str = "json") -> None:
        if units not in ("GeV", "MeV"):
            raise ValueError(f"units must be GeV or MeV, got {units!r}")
        if not 4 <= precision <= 17:
            raise ValueError(f"precision must lie in [4, 17], got {precision!r}")
        if out_format not in ("json", "csv", "plot-data"):
            raise ValueError(f"format must be json, csv or plot-data, got {out_format!r}")
        object.__setattr__(self, "units", units)
        object.__setattr__(self, "precision", precision)
        object.__setattr__(self, "out_format", out_format)

    # mass-dimension-1 quantities; dimension-2 ones use the squared factor
    @property
    def mass_scale_to_gev(self) -> float:
        return 1e-3 if self.units == "MeV" else 1.0

    def mass_out(self, x: float) -> float:
        return x / self.mass_scale_to_gev

    def to_gev(self, x: float, dim: int) -> float:
        """A typed input of mass dimension ``dim`` in GeV^dim; ValueError, quoting it, if its image underflows (0 or a
        subnormal).  A non-positive input stays as typed: every mass input must be positive, so the refusal quotes it."""
        if not x > 0.0:
            return x
        gev = x * self.mass_scale_to_gev**dim
        if gev < sys.float_info.min and self.units != "GeV":
            power = "^2" if dim == 2 else ""
            image = "0" if gev == 0.0 else f"the subnormal {gev!r}"
            raise ValueError(f"{x!r} {self.units}{power} underflows to {image} in GeV{power}")
        return gev


#: one frozen RunConfig per setting, at most 2 x 14 x 3 of them: a setting RunConfig refuses raises and is not kept
_run_config = functools.cache(RunConfig)


def _parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r} (known: {', '.join(_CONFIG_KEYS)})")
        values[key] = value
    return values


def _resolve_config(ns: SimpleNamespace) -> RunConfig:
    """Flags over ``--config`` over ``LOOPREG_PRECISION`` over the defaults; only the setting that wins is read."""
    file = _parse_config_file(ns.config) if ns.config is not None else {}
    precision = ns.precision  # the flag's declared type made its value an int
    if precision is None:  # the file's, else the environment's, else the default; ``source`` names it in an error
        if "precision" in file:
            precision, source = file["precision"], "config precision"
        else:
            precision, source = os.environ.get(PRECISION_ENV_VAR, DEFAULT_PRECISION), PRECISION_ENV_VAR
        try:
            precision = int(precision)
        except ValueError:
            raise ValueError(f"{source} must be an integer, got {precision!r}") from None
    units = ns.units if ns.units is not None else file.get("units", "GeV")
    out_format = ns.out_format if ns.out_format is not None else file.get("format", "json")
    return _run_config(units, precision, out_format)


# ----------------------------- report rendering -----------------------------


Report = namedtuple("Report", ("inputs", "fields", "ledger", "laid"), defaults=((), (None,)))
Report.__doc__ = """A subcommand's own inputs, its ``(name, value, provenance)`` output
fields in order (a sweep's ``rows`` are a list of row dicts), its ledger, and ``laid``: the JSON
text a handler already holds of its leading outputs, one each, then of its ledger (None: ``_render``
lays it out).  The values stay in the report whether laid out or not."""


def _fmt_scalar(value: object, spec: str, name: str) -> str:
    """A number as a decimal string by the format ``spec`` (a string as itself);
    OverflowError for a float that is not finite, so no report prints inf or nan."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise OverflowError(f"{name} is not finite: {value!r}")
        return format(value, spec)
    return str(value)


def _block(brackets: str, items: list[str], indent: str) -> str:
    """A JSON array or object of rendered items, one per line one level in, as ``indent=2`` lays it out."""
    if not items:
        return brackets
    inner = "\n" + indent + "  "
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + indent + brackets[1]


@functools.lru_cache(maxsize=128)
def _template(keys: tuple[str, ...], indent: str) -> str:
    """A JSON object's text with these keys at this indent, one ``%s`` slot per value (each key's ``%`` doubled): every
    object is laid out by one ``%`` fill of it, once per keys and indent (keys are code constants)."""
    return _block("{}", [encode_basestring_ascii(key).replace("%", "%%") + ": %s" for key in keys], indent)


def _cells(values: Iterable[object], spec: str, name: str, indent: str) -> list[str]:
    """The JSON text of each value, nested at ``indent``: a finite float, a str and None inline, anything else by ``_json``."""
    return [f'"{v:{spec}}"' if type(v) is float and math.isfinite(v) else encode_basestring_ascii(v) if type(v) is str else "null" if v is None else _json(v, spec, name, indent) for v in values]


def _json(value: object, spec: str, name: str, indent: str) -> str:
    """JSON text of a value whose numbers print as decimal strings by ``spec``, recursively
    through lists and dicts; ``name`` is the field a non-finite number is reported under."""
    if type(value) is float and math.isfinite(value):  # most leaves
        return f'"{value:{spec}}"'
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    inner = indent + "  "
    if isinstance(value, dict):
        return _template(tuple(value), indent) % tuple(_cells(value.values(), spec, name, inner))
    if isinstance(value, (list, tuple)):
        n = len(value)
        if n and type(value[0]) is dict and list(map(type, value)).count(dict) == n and [*itertools.chain.from_iterable(value)] == [*(keys := tuple(value[0]))] * n:
            # rows that share the first row's keys in order: every cell in one pass, filled into one template per row
            return _block("[]", [_template(keys, inner)] * n, indent) % tuple(_cells([v for row in value for v in row.values()], spec, name, inner + "  "))
        return _block("[]", _cells(value, spec, name, inner), indent)
    if value is None or type(value) is bool:
        return "null" if value is None else "true" if value else "false"
    return f'"{_fmt_scalar(value, spec, name)}"'  # int, Fraction, a float subclass or a non-finite float


@functools.lru_cache(maxsize=128)
def _skeleton(subcommand: str, input_keys: tuple[str, ...], pairs: tuple[tuple[str, str], ...]) -> str:
    """A JSON report's fixed text, laid out once per shape: one template whose ``%s`` slots hold each input, each output
    and the ledger in turn (``pairs`` are the outputs' ``(name, why)``, each ``why`` a string), its own ``%`` doubled."""
    subcommand, provenance = [text.replace("%", "%%") for text in (encode_basestring_ascii(subcommand), _json(dict(pairs), "", "provenance", "  "))]
    outputs = _template(tuple([name for name, _ in pairs]), "  ")
    return _template(("subcommand", "inputs", "outputs", "provenance", "ledger"), "") % (subcommand, _template(input_keys, "  "), outputs, provenance, "%s") + "\n"


def _ledger_rows(value: kernel.RegularizedValue, cfg: RunConfig) -> list[dict[str, object]]:
    rows = []
    for name, e in zip(value.names, value.constants):
        status = "fixed" if e.is_fixed else "unfixed"
        row = {"name": name, "mass_dimension": value.constant_dimension(e), "coefficient": e.coefficient, "msq_power": e.msq_power, "status": status}
        if e.is_fixed:
            row["value"] = e.value
        if e.scale_alias is not None:
            row["scale_alias"] = cfg.mass_out(e.scale_alias)
        rows.append(row)
    return rows


def _render(subcommand: str, report: Report, cfg: RunConfig) -> None:
    """Write a report as JSON, or its sweep rows as csv or plot-data, to stdout.  The whole text is built before
    anything is written, so a non-finite number raises OverflowError with stdout still empty."""
    spec = f".{cfg.precision}g"
    if cfg.out_format != "json":
        rows = next(value for name, value, _ in report.fields if name == "rows")
        cells = [f"{v:{spec}}" if type(v) is float and math.isfinite(v) else v if type(v) is str else "" if v is None else _fmt_scalar(v, spec, "rows") for row in rows for v in row.values()]
        width = len(rows[0])  # a sweep has at least one row, and all rows share its keys
        if cfg.out_format == "csv":
            text = ",".join(rows[0]) + "\n" + (",".join(["%s"] * width) + "\n") * len(rows) % tuple(cells)
        else:  # plot-data: the first two columns, where the second is set
            text = "".join([f"{x} {y}\n" for x, y in zip(cells[::width], cells[1::width]) if y])
        sys.stdout.write(text)
        return
    inputs = {**report.inputs, "units": cfg.units, "precision": cfg.precision}
    # full-precision echo: re-running a report with its own inputs must be exact
    values = [f'"{v}"' if type(v) in (float, int) else _json(str(v) if isinstance(v, (int, float)) else v, spec, "inputs", "    ") for v in inputs.values()]
    *laid, ledger = report.laid  # text the handler holds: its leading outputs', then the ledger's or None
    values += laid
    values += [_json(value, spec, name, "    ") for name, value, _ in report.fields[len(laid) :]]
    values.append(ledger or _json(report.ledger, spec, "ledger", "  "))
    sys.stdout.write(_skeleton(subcommand, tuple(inputs), tuple([(name, why) for name, _, why in report.fields])) % tuple(values))


# ----------------------------- subcommand handlers -----------------------------
# Each gets ``ns`` with its mass inputs in GeV, ``typed`` with them as typed (``ns`` under GeV) and ``cfg``; it echoes ``typed``.


def _as_typed(exc: ArithmeticError, cfg: RunConfig, quoted: str, typed: Callable[[str], str]) -> ArithmeticError:
    """A library failure whose message quotes masses in GeV, as the text ``quoted`` and whatever follows it, rewritten
    under ``--units MeV`` to the same class with that end ``typed(rest)``, quoting them as typed; ``exc`` itself under GeV
    or where the message holds no ``quoted``."""
    head, sep, rest = str(exc).rpartition(quoted)
    if cfg.units == "GeV" or not sep:
        return exc
    return type(exc)(head + typed(rest))


@functools.lru_cache(maxsize=64)
def _power_fields(power: int) -> tuple[kernel.RegularizedValue, tuple[tuple[str, object, str], ...], tuple[dict[str, object], ...], tuple[str, ...]]:
    """What a ``regularize`` report takes from the power alone, once per power (a power may come from user input,
    so the cache keeps the 64 most recent, as kernel.regularize does): the reduced value, the report's five leading
    fields, its ledger without an alias, and ``laid``, the JSON text of each field and then of that ledger.  None of
    the fields or rows holds a float, so the text reads neither ``--precision`` nor ``--units``; a scale alias
    changes only the ledger.  ValueError for a power below 1."""
    from . import kernel

    integral = kernel.ScalarLoopIntegral(power=power)
    value = kernel.regularize(integral)
    monomials = ((value.log_coefficient, True), (value.coefficient, False))
    fields = (
        ("unit", kernel.UNIT_LABEL, "all coefficients are exact rational multiples of i/(16*pi^2)"),
        ("superficial_degree", kernel.superficial_degree(integral), "power counting 4 - 2n"),
        ("differentiation_count", kernel.differentiation_count(integral), "smallest t with 4 - 2(n+t) < 0"),
        ("expression", value.render(), "differentiate in M^2 to convergence, evaluate the closed form, integrate back"),
        ("terms", tuple([{"coefficient": c, "msq_power": value.msq_power, "log": log} for c, log in monomials if c]), "exact coefficients of (M^2)^p and (M^2)^p*ln(M^2)"),
    )
    ledger = tuple(_ledger_rows(value, _run_config()))  # no alias, so no setting is read
    return value, fields, ledger, (*[_json(v, "", name, "    ") for name, v, _ in fields], _json(ledger, "", "ledger", "  "))


def _cmd_regularize(ns: SimpleNamespace, typed: SimpleNamespace, cfg: RunConfig) -> Report:
    from . import kernel

    value, fields, ledger, laid = _power_fields(ns.n)  # checks the power first; symbolic in M^2, the mass enters only the bracket
    if ns.msq is not None:  # typed.msq has the sign of ns.msq: to_gev keeps a non-positive input as typed
        _positive("numeric mass_sq", typed.msq)
    if ns.mu1 is not None:
        dimless = [i for i, e in enumerate(value.constants, start=1) if value.constant_dimension(e) == 0]
        if not dimless:
            raise ValueError("--mu1 given but the result has no dimensionless constant to alias")
        for idx in dimless:
            value = value.with_scale_alias(idx, ns.mu1)
        ledger, laid = _ledger_rows(value, cfg), (*laid[:-1], None)  # an alias's row holds floats: laid out per request

    unfixed = value.unfixed_count
    fields = [*fields, ("unfixed_constants", unfixed, "one arbitrary constant per integration, fixed only by physical conditions")]
    if ns.msq is not None and unfixed == 0:
        try:
            bracket = value.bracket(ns.msq)
        except ArithmeticError as exc:
            raise _as_typed(exc, cfg, f" at mass_sq={ns.msq!r}", lambda rest: f" at mass_sq={typed.msq!r}{rest}") from None
        fields += [
            ("bracket_at_msq", bracket, "numeric multiple of i/(16*pi^2) at the given M^2"),
            ("value_imag_at_msq", (kernel.UNIT_NUMERIC * bracket).imag, "imaginary part of the full value (the value is purely imaginary)"),
        ]
    return Report({"n": ns.n, "msq": typed.msq, "mu1": typed.mu1}, fields, ledger, laid)


def _cmd_selfenergy(ns: SimpleNamespace, typed: SimpleNamespace, cfg: RunConfig) -> Report:
    from . import kernel, qed

    alpha = ns.alpha if ns.alpha is not None else qed.DEFAULT_ALPHA
    mu1_gev = ns.mu1 if ns.mu1 is not None else qed.solve_mu1(ns.m)
    shift = qed.on_shell_mass_shift(ns.m, alpha, mu1_gev)
    c0, c_log = qed.pipeline_coefficients()
    reg = kernel.regularize(kernel.ScalarLoopIntegral(power=2)).with_scale_alias(1, mu1_gev)
    exact = "exact x-integration of the numerator channels against the regulated loop"
    fields = [
        ("delta_m", cfg.mass_out(shift.delta_m), "(alpha*m/(4*pi)) * (5 - 3*ln(m^2/mu1^2)), coefficients from the exact pipeline"),
        ("mu1_used", cfg.mass_out(mu1_gev), "given, or fixed by the zero-shift condition m*exp(-5/6)"),
        ("log_ratio", shift.log_ratio, "ln(m^2/mu1^2)"),
        ("constant_coefficient", c0, exact),
        ("log_coefficient", c_log, exact),
    ]
    return Report({"m": typed.m, "alpha": alpha, "mu1": typed.mu1}, fields, _ledger_rows(reg, cfg))


def _cmd_mu1(ns: SimpleNamespace, typed: SimpleNamespace, cfg: RunConfig) -> Report:
    from . import qed

    mu1 = cfg.mass_out(qed.solve_mu1(ns.m))
    return Report({"m": typed.m}, [("mu1", mu1, "zero on-shell mass shift: ln(m^2/mu1^2) = 5/3, mu1 = m*exp(-5/6)")])


def _cmd_lambshift(ns: SimpleNamespace, typed: SimpleNamespace, cfg: RunConfig) -> Report:
    from . import qed

    alpha = ns.alpha if ns.alpha is not None else qed.DEFAULT_ALPHA
    bethe_log = ns.bethe_log if ns.bethe_log is not None else qed.DEFAULT_BETHE_LOG
    m = ns.m if ns.m is not None else qed.DEFAULT_ELECTRON_MASS_GEV
    mhz = qed.lamb_shift_estimate(alpha, m, bethe_log)
    why = "leading-log estimate (alpha^5*m/(6*pi)) * [ln(1/alpha^2) - bethe_log + 19/30]; qualitative band, not a precision value"
    return Report({"alpha": alpha, "m": typed.m if typed.m is not None else cfg.mass_out(m), "bethe_log": bethe_log}, [("lamb_shift_mhz", mhz, why)])


def _cmd_phi4(ns: SimpleNamespace, typed: SimpleNamespace, cfg: RunConfig) -> Report:
    from . import phi4

    pot = phi4.SSBPotential(sigma=ns.sigma, lam=ns.lam)
    phi1, m_sigma = phi4.ssb_vacuum(pot)
    reference = "reference constant (literature input, no derivation here)"
    fields = [
        ("phi1", cfg.mass_out(phi1), "vacuum minimum sqrt(6*sigma/lambda)"),
        ("m_sigma", cfg.mass_out(m_sigma), "curvature mass sqrt(2*sigma)"),
        ("lambda_renormalized", phi4.lambda_renormalized(ns.lam), "one-loop coupling lambda*(1 + 9*lambda/(32*pi^2))"),
        ("invariant_ratio", phi4.lambda_invariant_ratio(m_sigma, phi1), "scale ratio 3*(m_sigma/phi1)^2; returns lambda at every order"),
        ("higgs_lower_bound", cfg.mass_out(phi4.HIGGS_LOWER_BOUND), reference),
        ("higgs_predicted", cfg.mass_out(phi4.HIGGS_PREDICTED), reference),
        ("higgs_upper_bound", cfg.mass_out(phi4.HIGGS_UPPER_BOUND), reference),
    ]
    return Report({"sigma": typed.sigma, "lambda": ns.lam}, fields)


def _cmd_resum(ns: SimpleNamespace, typed: SimpleNamespace, cfg: RunConfig) -> Report:
    from . import phi4

    b = ns.beta_coeff if ns.beta_coeff is not None else phi4.BETA_ONE_LOOP
    state = phi4.ResummationState(lambda0=ns.lambda0, mu0=ns.mu0, beta_coeff=b)
    pole = "pole of the resummed coupling: mu0*exp(1/(2*b*lambda0))"
    chain = "resummed chain lambda0/(1 - b*lambda0*ln(mu^2/mu0^2))"
    if _SUBCOMMANDS["resum"].sweeps(ns):  # the table declares when resum sweeps
        if ns.mu is not None:
            raise ValueError("give either --mu or a sweep (--mu-min/--mu-max), not both")
        if ns.mu_min is None or ns.mu_max is None:
            raise ValueError("sweep needs both --mu-min and --mu-max")
        if not 0 < typed.mu_min < typed.mu_max:
            raise ValueError("sweep requires 0 < mu-min < mu-max")
        if ns.mu_points < 2:
            raise ValueError("sweep needs at least 2 points")
        if ns.mu_points > 100_000:  # every point's row is built before anything is printed
            raise ValueError(f"sweep takes at most 100000 points, got {ns.mu_points}")
        lo, hi = ns.mu_min, ns.mu_max
        if math.isfinite(hi / lo):
            ratio = (hi / lo) ** (1.0 / (ns.mu_points - 1))
            mus = [lo * ratio**i for i in range(ns.mu_points)]
        else:  # the ratio alone leaves the float range: step in ln mu
            step = (math.log(hi) - math.log(lo)) / (ns.mu_points - 1)
            mus = [math.exp(math.log(lo) + i * step) for i in range(ns.mu_points)]
        scale = cfg.mass_scale_to_gev
        # the chain's outcome is the status: a value below the critical scale, a pole (None) at or past it
        rows = [
            {"mu": mu / scale, "coupling": coupling, "status": "pole" if coupling is None else phi4.VACUUM_BROKEN}
            for mu, coupling in zip(mus, phi4._chain_couplings(state, mus))
        ]
        inputs = {"lambda0": ns.lambda0, "mu0": typed.mu0, "b": state.beta_coeff, "mu_min": typed.mu_min, "mu_max": typed.mu_max, "mu_points": ns.mu_points}
        return Report(inputs, [("critical_scale", cfg.mass_out(phi4.critical_scale(state)), pole), ("rows", rows, chain + " over the mu grid")])

    mu, mu_typed = (ns.mu, typed.mu) if ns.mu is not None else (ns.mu0, typed.mu0)
    try:
        coupling = phi4.resum_chain(state, mu)  # LandauPoleError -> exit 3
    except ArithmeticError as exc:
        critical = phi4.critical_scale(state)
        raise _as_typed(exc, cfg, f"mu = {mu:g} reaches the critical scale {critical:g}", lambda rest: f"mu = {mu_typed:g} reaches the critical scale {cfg.mass_out(critical):g}{rest}") from None
    fields = [
        ("coupling", coupling, chain),
        ("first_order", phi4.resum_first_order(state, mu), "finite-order truncation lambda0*(1 + b*lambda0*ln(mu^2/mu0^2)); regular everywhere"),
        ("critical_scale", cfg.mass_out(phi4.critical_scale(state)), pole),
        ("status", phi4.VACUUM_BROKEN, "ssb-vacuum below the critical scale; at or past it the coupling has a pole and the request exits 3 without a report"),
    ]
    return Report({"lambda0": ns.lambda0, "mu0": typed.mu0, "mu": typed.mu, "b": state.beta_coeff}, fields)


def _cmd_oracle(ns: SimpleNamespace, typed: SimpleNamespace, cfg: RunConfig) -> Report:
    from . import oracle

    # the default grid is built in the typed units, like an explicit --grid, so its echo re-parses to the very same cutoffs
    grid_typed = typed.grid if typed.grid is not None else oracle.default_grid(typed.msq)
    grid = ns.grid if ns.grid is not None else tuple(cfg.to_gev(g, 1) for g in grid_typed)
    probe = oracle.CutoffProbe(power=ns.n, mass_sq=ns.msq, lambda_grid=grid, quadrature=oracle.QuadratureSpec(rel_tol=ns.rel_tol))
    fits: list[tuple[str, object, str]] = []
    try:
        if cfg.out_format == "json":  # the fits print only in a JSON report
            # each fit checks its grid rule before the probe integrates; at n = 2 the asymptote's
            # rule implies the signature's, so a grid too short for either exits 2 before any quadrature
            extrapolation = "lim [radial - ln(cutoff)] by 1/cutoff^2 extrapolation; only differences across masses are cutoff-free physics"
            asymptote = [("asymptote_constant", oracle.asymptote_constant(probe), extrapolation)] if ns.n == 2 else []
            signature = oracle.divergence_signature(probe)
            fits = [
                ("signature_kind", signature.kind, "data-driven fit of the cutoff dependence"),
                ("signature_coefficient", signature.coefficient, "leading fitted coefficient (ln-slope, power coefficient, or limit)"),
                *asymptote,
            ]
        rows = [{"cutoff": cfg.mass_out(lam), "radial": r, "unit_multiple": oracle.unit_multiple(ns.n, r)} for lam, r in zip(grid, probe.radials)]
    except ArithmeticError as exc:  # the failing cutoff, quoted last, is one of the grid's
        raise _as_typed(exc, cfg, f", mass_sq={ns.msq}, cutoff=", lambda cutoff: f", mass_sq={typed.msq}, cutoff={grid_typed[grid.index(float(cutoff))]}") from None
    quadrature = "adaptive radial quadrature int_0^cutoff k^3 (k^2+M^2)^(-n) dk; unit_multiple = (-1)^n * 2 * radial in units i/(16*pi^2)"
    fields = [("rows", rows, quadrature), *fits]
    inputs = {"n": ns.n, "msq": typed.msq, "grid": ",".join(str(g) for g in grid_typed), "rel_tol": ns.rel_tol}
    return Report(inputs, fields)


def _cmd_demo() -> int:
    from . import checks

    print("=" * 72)
    print("walkthrough: divergent one-loop family -> closed forms -> conditions")
    print("=" * 72)
    ok = True
    for check in checks.CHECKS:
        passed, detail = check.run()
        print(f"{'PASS' if passed else 'FAIL'}  {check.name}" + (f"  [{detail}]" if detail else ""))
        ok = ok and passed
    print("-" * 72)
    print("RESULT:", "ALL CHECKS PASSED" if ok else "SOME CHECKS FAILED")
    return EXIT_OK if ok else EXIT_NUMERIC


# ----------------------------- the declared CLI -----------------------------


def _finite_float(text: str) -> float:
    """Type of every float flag: a number that is neither inf nor nan."""
    try:
        value = float(text)
    except ValueError:
        value = None
    if value is None or not math.isfinite(value):
        from argparse import ArgumentTypeError  # argparse words it as a usage error

        raise ArgumentTypeError(f"invalid float value: {text!r}" if value is None else f"must be a finite number, got {text!r}")
    return value


def _finite_grid(text: str) -> tuple[float, ...]:
    """Type of --grid: comma-separated finite cutoffs."""
    return tuple(_finite_float(tok) for tok in text.split(","))


#: a flag: its mass dimension ``dim`` is 0, or 1 or 2 for an input typed in ``--units``^dim that reaches the handler in
#: GeV^dim; ``type`` None keeps the string; ``choices``, where given, are the values it may take
Flag = namedtuple("Flag", ("flag", "dest", "type", "required", "default", "dim", "help", "choices"), defaults=(None,))
#: a subcommand: ``sweeps`` tells whether a request has csv/plot-data output (None: never)
Subcommand = namedtuple("Subcommand", ("help", "handler", "sweeps", "flags"))

#: the flags every subcommand takes, before its own in help order
_COMMON = (
    Flag("--units", "units", None, False, None, 0, "unit of mass-dimension inputs/outputs (default GeV)", ("GeV", "MeV")),
    Flag("--precision", "precision", int, False, None, 0, "significant digits for rendered numbers, 4..17 (default 12)"),
    Flag("--format", "out_format", None, False, None, 0, "output format (default json; csv/plot-data for sweeps only)", ("json", "csv", "plot-data")),
    Flag("--config", "config", None, False, None, 0, "key=value file overriding defaults (keys: units, precision, format)"),
)
#: every subcommand and its own flags, in help order: with ``_COMMON``, the one place a flag is declared
_SUBCOMMANDS = {
    "regularize": Subcommand("Reduce a loop integral to its closed form plus constants.", _cmd_regularize, None, (
        Flag("--n", "n", int, True, None, 0, "denominator power n >= 1"),
        Flag("--msq", "msq", _finite_float, False, None, 2, "squared mass M^2 for numeric evaluation (units^2)"),
        Flag("--mu1", "mu1", _finite_float, False, None, 1, "alias the dimensionless constant to -ln(mu1^2)"),
    )),
    "selfenergy": Subcommand("On-shell electron mass shift.", _cmd_selfenergy, None, (
        Flag("--m", "m", _finite_float, True, None, 1, "electron mass (units)"),
        Flag("--alpha", "alpha", _finite_float, False, None, 0, "fine-structure constant"),
        Flag("--mu1", "mu1", _finite_float, False, None, 1, "integration scale; default fixes the shift to zero"),
    )),
    "mu1": Subcommand("Scale fixed by the zero mass-shift condition.", _cmd_mu1, None, (
        Flag("--m", "m", _finite_float, True, None, 1, "mass (units)"),
    )),
    "lambshift": Subcommand("Leading-log 2S-2P splitting estimate in MHz.", _cmd_lambshift, None, (
        Flag("--alpha", "alpha", _finite_float, False, None, 0, None),
        Flag("--m", "m", _finite_float, False, None, 1, "electron mass (units); default 0.000511 GeV"),
        Flag("--bethe-log", "bethe_log", _finite_float, False, None, 0, "Bethe logarithm input (default 2.8118)"),
    )),
    "phi4": Subcommand("Broken-vacuum relations and one-loop coupling.", _cmd_phi4, None, (
        Flag("--sigma", "sigma", _finite_float, True, None, 2, "wrong-sign mass parameter (units^2)"),
        Flag("--lambda", "lam", _finite_float, True, None, 0, "quartic coupling"),
    )),
    "resum": Subcommand("Resummed running coupling and its critical scale.", _cmd_resum, lambda ns: ns.mu_min is not None or ns.mu_max is not None, (
        Flag("--lambda0", "lambda0", _finite_float, True, None, 0, "coupling at the reference scale"),
        Flag("--mu0", "mu0", _finite_float, True, None, 1, "reference scale (units)"),
        Flag("--b", "beta_coeff", _finite_float, False, None, 0, "resummation coefficient (default 9/(32*pi^2))"),
        Flag("--mu", "mu", _finite_float, False, None, 1, "single evaluation scale (units)"),
        Flag("--mu-min", "mu_min", _finite_float, False, None, 1, "sweep start (units)"),
        Flag("--mu-max", "mu_max", _finite_float, False, None, 1, "sweep end (units)"),
        Flag("--mu-points", "mu_points", int, False, 25, 0, "sweep point count (default 25)"),
    )),
    "oracle": Subcommand("Cutoff quadrature sweep, divergence signature, asymptote.", _cmd_oracle, lambda ns: True, (
        Flag("--n", "n", int, True, None, 0, "denominator power n >= 1"),
        Flag("--msq", "msq", _finite_float, True, None, 2, "squared mass M^2 (units^2)"),
        Flag("--grid", "grid", _finite_grid, False, None, 1, "comma-separated cutoffs (units); default 1e2..1e6 times sqrt(M^2)"),
        Flag("--rel-tol", "rel_tol", _finite_float, False, 1e-10, 0, "quadrature relative tolerance (default 1e-10)"),
    )),
    "demo": Subcommand("Full cross-checked walkthrough; exit 0 only if every check passes.", _cmd_demo, None, ()),
}
_MASSES = {name: tuple((f.dest, f.dim) for f in command.flags if f.dim) for name, command in _SUBCOMMANDS.items()}  # the inputs run puts in GeV
_OPTIONS = {name: {f.flag: f for f in (*_COMMON, *command.flags)} for name, command in _SUBCOMMANDS.items()}  # option string -> row
# each subcommand's dest -> default, and the dests it requires: the rows _parse_declared reads, gathered once
_DEFAULTS = {name: ({f.dest: f.default for f in options.values()}, {f.dest for f in options.values() if f.required}) for name, options in _OPTIONS.items()}


def _parse_declared(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace argparse makes of a well-formed ``SUB --flag value ...`` argv, read from the table alone; None
    for any other argv.  Each flag must be an exact declared option string followed by a value that does not start
    with ``-``, converts by the flag's type and lies in its choices; every required flag must be given.  A repeated
    flag keeps its last value, as in argparse."""
    options = _OPTIONS.get(argv[0]) if argv else None
    if options is None or len(argv) % 2 == 0:
        return None
    given = {}
    for option, text in zip(argv[1::2], argv[2::2]):
        f = options.get(option)
        if f is None or text.startswith("-"):
            return None
        try:
            value = text if f.type is None else f.type(text)
        except Exception:  # argparse parses this argv again: a usage error where it makes one, else the same raise
            return None
        if f.choices is not None and value not in f.choices:
            return None
        given[f.dest] = value
    defaults, required = _DEFAULTS[argv[0]]
    if not required <= given.keys():
        return None
    return SimpleNamespace(subcommand=argv[0], **{**defaults, **given})


@functools.cache
def _build_parser():
    """The top-level argparse parser, built from ``_COMMON`` and ``_SUBCOMMANDS`` once
    per process, on the first argv ``_parse_declared`` refuses.  Handlers are bound in the table at import, so patch
    what a handler calls, not ``_cmd_*``.  ``--alpha`` and ``--bethe-log`` default to ``None``: the handler reads
    (and echoes) ``qed.DEFAULT_ALPHA`` and ``qed.DEFAULT_BETHE_LOG`` on each call, so patching those takes effect
    on the next ``run``."""
    import argparse

    class _MisplacedFlag(argparse.Action):
        """Top-level stand-in for a subcommand flag typed before the subcommand: a usage error that names the flag."""

        def __call__(self, parser, namespace, values, option_string=None):
            parser.error(f"{option_string} goes after the subcommand: loopreg <subcommand> {option_string} ...")

    parser = argparse.ArgumentParser(
        prog="loopreg",
        description="One-loop integral regularization by mass-parameter differentiation: reduction kernel, electron self-energy, quartic-scalar model, cutoff-quadrature oracle.",
    )
    for f in _COMMON:  # each subparser's own flags, hidden from the top-level help
        parser.add_argument(f.flag, nargs="?", action=_MisplacedFlag, default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, command in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for f in _OPTIONS[name].values():  # the rows _parse_declared reads, the common ones first
            p.add_argument(f.flag, dest=f.dest, type=f.type, required=f.required, default=f.default, help=f.help, choices=f.choices)
    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Parse argv (from the table, else with the parsers built once per process), check the format, put the declared
    mass inputs in GeV, compute the report and render it; returns the exit code."""
    if argv is None:
        argv = sys.argv[1:]
    ns = _parse_declared(argv)
    if ns is None:  # help, a usage error or a shape only argparse reads
        try:
            ns = _build_parser().parse_args(argv, SimpleNamespace())
        except SystemExit as exc:  # argparse already printed usage to stderr
            return int(exc.code) if exc.code is not None else EXIT_VALIDATION
    try:
        cfg = _resolve_config(ns)
        command = _SUBCOMMANDS[ns.subcommand]
        if ns.subcommand == "demo":  # a walkthrough of gates, not a report; any --format is ignored
            return command.handler()
        if cfg.out_format != "json" and not (command.sweeps and command.sweeps(ns)):
            what = "resum (single point)" if ns.subcommand == "resum" else ns.subcommand
            raise ValueError(f"{what} has no sweep output; use --format json")
        typed = ns  # under GeV each value is its own image, so the typed namespace serves as the GeV one at no cost
        if cfg.units != "GeV":  # each declared mass input to GeV, once, in place; ``typed`` keeps them as typed
            typed = SimpleNamespace()
            for dest, dim in _MASSES[ns.subcommand]:
                value = getattr(ns, dest)
                setattr(typed, dest, value)
                if value is not None:  # a grid converts cutoff by cutoff
                    setattr(ns, dest, tuple(cfg.to_gev(x, dim) for x in value) if type(value) is tuple else cfg.to_gev(value, dim))
        _render(ns.subcommand, command.handler(ns, typed, cfg), cfg)
        return EXIT_OK
    except ArithmeticError as exc:  # QuadratureError and LandauPoleError among them
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
