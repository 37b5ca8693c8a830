"""Command-line front end.

Every library operation is exposed as a subcommand emitting a machine
readable report: a flat JSON object with ``inputs``, ``outputs``,
``provenance`` and ``ledger`` keys (numbers rendered as decimal strings at
the configured precision, so reports are platform-stable), CSV for sweep
subcommands, or bare two-column plot data.

Each handler only computes a ``Report``: its inputs, its output fields as
``(name, value, provenance)`` triples, so every provenance string sits beside
its value, and its ledger.  A sweep's rows are one ``rows`` field, a list
of row dicts.  ``run`` checks the format before any computation, and one
renderer writes the report as JSON (one object per row), or just the rows as
csv or plot-data.  It formats each number and lays out the JSON in one pass,
byte for byte as ``json.dumps(payload, indent=2)`` would print the formatted
payload, and builds the whole text before it writes any of it.  ``demo``
prints one PASS/FAIL line per row of ``loopreg.checks.CHECKS``, the table
the acceptance test asserts.

Masses are handled in GeV internally; ``--units MeV`` converts all
mass-dimension inputs and outputs at the boundary.  Exit codes: 0 success,
2 usage/validation error, 3 numeric failure (quadrature tolerance unmet, a
pole where a finite value was requested, a floating-point overflow, underflow
or division by zero, or a non-finite number about to be printed).  Every
float flag must be finite: ``inf`` and ``nan`` are usage errors.  The
parsers are built once per process, on the first ``run``, and load no library
module: each handler imports the modules it calls, so a one-shot call loads
only what its subcommand runs (``regularize`` only ``kernel``).  An argv whose
first string names a subcommand is parsed by that subcommand's parser alone;
the top-level parser handles everything else (help, no or an unknown
subcommand, a flag before it) and reports leftover strings, so each string is
parsed once and the messages are the ones ``parse_args`` prints.  A
subcommand's own flag (``--units``, ``--precision``, ``--format``,
``--config``) typed before the subcommand is a usage error that names it.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from collections import namedtuple
from collections.abc import Sequence
from json.encoder import encode_basestring_ascii

from . import _Record

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

    def mass_in(self, x: float) -> float:
        return self._to_gev(x, self.mass_scale_to_gev, "")

    def mass_out(self, x: float) -> float:
        return x / self.mass_scale_to_gev

    def msq_in(self, x: float) -> float:
        return self._to_gev(x, self.mass_scale_to_gev**2, "^2")

    def _to_gev(self, x: float, factor: float, power: str) -> float:
        """A typed value in GeV^k; ValueError, quoting what was typed, where a positive one underflows to 0."""
        gev = x * factor
        if gev == 0.0 and x > 0.0:
            raise ValueError(f"{x!r} {self.units}{power} underflows to 0 in GeV{power}")
        return gev


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


def _resolve_config(ns: argparse.Namespace) -> RunConfig:
    """Flags over ``--config`` over ``LOOPREG_PRECISION`` over the defaults."""
    merged: dict[str, object] = {"units": "GeV", "precision": DEFAULT_PRECISION, "format": "json"}
    source = "precision"  # names the setting a bad precision came from
    env = os.environ.get(PRECISION_ENV_VAR)
    if env is not None:
        merged["precision"], source = env, PRECISION_ENV_VAR
    if ns.config is not None:
        cfg = _parse_config_file(ns.config)
        source = "config precision" if "precision" in cfg else source
        merged.update(cfg)
    flags = {"units": ns.units, "precision": ns.precision, "format": ns.out_format}
    merged.update((key, value) for key, value in flags.items() if value is not None)
    try:
        precision = int(merged["precision"])
    except ValueError:
        raise ValueError(f"{source} must be an integer, got {merged['precision']!r}") from None
    return RunConfig(units=merged["units"], precision=precision, out_format=merged["format"])


# ----------------------------- report rendering -----------------------------


Report = namedtuple("Report", ("inputs", "fields", "ledger"), defaults=((),))
Report.__doc__ = """A subcommand's own inputs, its ``(name, value, provenance)`` output
fields in order (a sweep's ``rows`` are a list of row dicts), and its ledger."""


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


def _json(value: object, spec: str, name: str, indent: str) -> str:
    """JSON text of a value whose numbers print as decimal strings by ``spec``, recursively
    through lists and dicts; ``name`` is the field a non-finite number is reported under."""
    if isinstance(value, float):  # most leaves
        return f'"{_fmt_scalar(value, spec, name)}"'
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, dict):
        return _object(value, spec, name, indent, {})
    if isinstance(value, (list, tuple)):
        inner = indent + "  "
        keys: dict[str, str] = {}  # shared by the dicts of one list, so rows encode each key once
        return _block("[]", [_object(v, spec, name, inner, keys) if isinstance(v, dict) else _json(v, spec, name, inner) for v in value], indent)
    return f'"{_fmt_scalar(value, spec, name)}"'


def _object(value: dict[str, object], spec: str, name: str, indent: str, keys: dict[str, str]) -> str:
    """JSON text of a dict, as ``_json`` writes it; ``keys`` caches each key's encoded ``"key": `` prefix.
    The cache is looked up per key, not per row: rows need not share their keys or their order."""
    inner = indent + "  "
    items = []
    for k, v in value.items():
        prefix = keys.get(k)
        if prefix is None:
            prefix = keys[k] = encode_basestring_ascii(k) + ": "
        if isinstance(v, float) and math.isfinite(v):  # a row's usual cell, without a call per cell
            items.append(f'{prefix}"{format(v, spec)}"')
        else:
            items.append(prefix + _json(v, spec, name, inner))
    return _block("{}", items, indent)


def _ledger_rows(value: kernel.RegularizedValue, cfg: RunConfig) -> list[dict[str, object]]:
    rows = []
    for name, e in zip(value.names, value.constants):
        row: dict[str, object] = {
            "name": name,
            "mass_dimension": value.constant_dimension(e),
            "coefficient": e.coefficient,
            "msq_power": e.msq_power,
            "status": "fixed" if e.is_fixed else "unfixed",
        }
        if e.is_fixed:
            row["value"] = e.value
        if e.scale_alias is not None:
            row["scale_alias"] = cfg.mass_out(e.scale_alias)
        rows.append(row)
    return rows


def _render(subcommand: str, report: Report, cfg: RunConfig) -> None:
    """Write a report as JSON, or its sweep rows as csv or plot-data, to stdout.

    The whole text is built before anything is written, so a non-finite number
    raises OverflowError with stdout still empty.
    """
    spec = f".{cfg.precision}g"
    if cfg.out_format != "json":
        rows = next(value for name, value, _ in report.fields if name == "rows")
        cells = [["" if v is None else _fmt_scalar(v, spec, "rows") for v in row.values()] for row in rows]
        if cfg.out_format == "csv":  # a sweep has at least one row, and all rows share its keys
            lines = [",".join(rows[0])] + [",".join(row) for row in cells]
        else:  # plot-data: the first two columns, where the second is set
            lines = [f"{x} {y}" for x, y, *_ in cells if y]
        sys.stdout.write("".join(line + "\n" for line in lines))
        return
    inputs = {**report.inputs, "units": cfg.units, "precision": cfg.precision}
    # full-precision echo: re-running a report with its own inputs must be exact
    echo = {k: (str(v) if isinstance(v, (int, float)) else v) for k, v in inputs.items()}
    outputs = [f"{encode_basestring_ascii(name)}: {_json(value, spec, name, '    ')}" for name, value, _ in report.fields]
    sections = [
        f'"subcommand": {encode_basestring_ascii(subcommand)}',
        f'"inputs": {_json(echo, spec, "inputs", "  ")}',
        f'"outputs": {_block("{}", outputs, "  ")}',
        f'"provenance": {_json({name: why for name, _, why in report.fields}, spec, "provenance", "  ")}',
        f'"ledger": {_json(report.ledger, spec, "ledger", "  ")}',
    ]
    sys.stdout.write(_block("{}", sections, "") + "\n")


def _has_sweep(ns: argparse.Namespace) -> bool:
    """Whether a request has csv/plot-data output: an oracle grid or a resum mu sweep."""
    if ns.subcommand == "resum":
        return ns.mu_min is not None or ns.mu_max is not None
    return ns.subcommand == "oracle"


# ----------------------------- subcommand handlers -----------------------------


def _cmd_regularize(ns: argparse.Namespace, cfg: RunConfig) -> Report:
    from . import kernel

    integral = kernel.ScalarLoopIntegral(power=ns.n)  # symbolic in M^2: the mass enters only the bracket
    msq = cfg.msq_in(ns.msq) if ns.msq is not None else None
    if msq is not None and not msq > 0:
        raise ValueError(f"numeric mass_sq must be positive, got {msq!r}")
    value = kernel.regularize(integral)
    if ns.mu1 is not None:
        dimless = [i for i, e in enumerate(value.constants, start=1) if value.constant_dimension(e) == 0]
        if not dimless:
            raise ValueError("--mu1 given but the result has no dimensionless constant to alias")
        for idx in dimless:
            value = value.with_scale_alias(idx, cfg.mass_in(ns.mu1))

    monomials = ((value.log_coefficient, True), (value.coefficient, False))
    terms = [{"coefficient": c, "msq_power": value.msq_power, "log": log} for c, log in monomials if c]
    fields = [
        ("unit", kernel.UNIT_LABEL, "all coefficients are exact rational multiples of i/(16*pi^2)"),
        ("superficial_degree", kernel.superficial_degree(integral), "power counting 4 - 2n"),
        ("differentiation_count", kernel.differentiation_count(integral), "smallest t with 4 - 2(n+t) < 0"),
        ("expression", value.render(), "differentiate in M^2 to convergence, evaluate the closed form, integrate back"),
        ("terms", terms, "exact coefficients of (M^2)^p and (M^2)^p*ln(M^2)"),
        ("unfixed_constants", value.unfixed_count, "one arbitrary constant per integration, fixed only by physical conditions"),
    ]
    if msq is not None and value.unfixed_count == 0:
        bracket = value.bracket(msq)
        fields += [
            ("bracket_at_msq", bracket, "numeric multiple of i/(16*pi^2) at the given M^2"),
            ("value_imag_at_msq", (kernel.UNIT_NUMERIC * bracket).imag, "imaginary part of the full value (the value is purely imaginary)"),
        ]
    return Report({"n": ns.n, "msq": ns.msq, "mu1": ns.mu1}, fields, _ledger_rows(value, cfg))


def _cmd_selfenergy(ns: argparse.Namespace, cfg: RunConfig) -> Report:
    from . import kernel, qed

    m = cfg.mass_in(ns.m)
    alpha = ns.alpha if ns.alpha is not None else qed.DEFAULT_ALPHA
    mu1_gev = cfg.mass_in(ns.mu1) if ns.mu1 is not None else qed.solve_mu1(m)
    shift = qed.on_shell_mass_shift(m, alpha, mu1_gev)
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
    return Report({"m": ns.m, "alpha": alpha, "mu1": ns.mu1}, fields, _ledger_rows(reg, cfg))


def _cmd_mu1(ns: argparse.Namespace, cfg: RunConfig) -> Report:
    from . import qed

    mu1 = cfg.mass_out(qed.solve_mu1(cfg.mass_in(ns.m)))
    return Report({"m": ns.m}, [("mu1", mu1, "zero on-shell mass shift: ln(m^2/mu1^2) = 5/3, mu1 = m*exp(-5/6)")])


def _cmd_lambshift(ns: argparse.Namespace, cfg: RunConfig) -> Report:
    from . import qed

    alpha = ns.alpha if ns.alpha is not None else qed.DEFAULT_ALPHA
    bethe_log = ns.bethe_log if ns.bethe_log is not None else qed.DEFAULT_BETHE_LOG
    m_display = ns.m if ns.m is not None else cfg.mass_out(qed.DEFAULT_ELECTRON_MASS_GEV)
    mhz = qed.lamb_shift_estimate(alpha, cfg.mass_in(m_display), bethe_log)
    why = "leading-log estimate (alpha^5*m/(6*pi)) * [ln(1/alpha^2) - bethe_log + 19/30]; qualitative band, not a precision value"
    return Report({"alpha": alpha, "m": m_display, "bethe_log": bethe_log}, [("lamb_shift_mhz", mhz, why)])


def _cmd_phi4(ns: argparse.Namespace, cfg: RunConfig) -> Report:
    from . import phi4

    pot = phi4.SSBPotential(sigma=cfg.msq_in(ns.sigma), lam=ns.lam)
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
    return Report({"sigma": ns.sigma, "lambda": ns.lam}, fields)


def _cmd_resum(ns: argparse.Namespace, cfg: RunConfig) -> Report:
    from . import phi4

    b = ns.beta_coeff if ns.beta_coeff is not None else phi4.BETA_ONE_LOOP
    state = phi4.ResummationState(lambda0=ns.lambda0, mu0=cfg.mass_in(ns.mu0), beta_coeff=b)
    pole = "pole of the resummed coupling: mu0*exp(1/(2*b*lambda0))"
    chain = "resummed chain lambda0/(1 - b*lambda0*ln(mu^2/mu0^2))"
    if _has_sweep(ns):
        if ns.mu is not None:
            raise ValueError("give either --mu or a sweep (--mu-min/--mu-max), not both")
        if ns.mu_min is None or ns.mu_max is None:
            raise ValueError("sweep needs both --mu-min and --mu-max")
        if not 0 < ns.mu_min < ns.mu_max:
            raise ValueError("sweep requires 0 < mu-min < mu-max")
        if ns.mu_points < 2:
            raise ValueError("sweep needs at least 2 points")
        lo, hi = cfg.mass_in(ns.mu_min), cfg.mass_in(ns.mu_max)
        ratio = (hi / lo) ** (1.0 / (ns.mu_points - 1))
        rows: list[dict[str, object]] = []
        for i in range(ns.mu_points):
            mu = lo * ratio**i
            try:  # the chain's outcome is the status: a value below the critical scale, a pole at or past it
                coupling: float | None = phi4.resum_chain(state, mu)
                status = phi4.VACUUM_BROKEN
            except phi4.LandauPoleError:
                coupling, status = None, "pole"
            rows.append({"mu": cfg.mass_out(mu), "coupling": coupling, "status": status})
        return Report(
            {
                "lambda0": ns.lambda0, "mu0": ns.mu0, "b": state.beta_coeff,
                "mu_min": ns.mu_min, "mu_max": ns.mu_max, "mu_points": ns.mu_points,
            },
            [
                ("critical_scale", cfg.mass_out(phi4.critical_scale(state)), pole),
                ("rows", rows, chain + " over the mu grid"),
            ],
        )

    mu = cfg.mass_in(ns.mu if ns.mu is not None else ns.mu0)
    fields = [
        ("coupling", phi4.resum_chain(state, mu), chain),  # LandauPoleError -> exit 3
        ("first_order", phi4.resum_first_order(state, mu), "finite-order truncation lambda0*(1 + b*lambda0*ln(mu^2/mu0^2)); regular everywhere"),
        ("critical_scale", cfg.mass_out(phi4.critical_scale(state)), pole),
        ("status", phi4.VACUUM_BROKEN, "ssb-vacuum below the critical scale; at or past it the coupling has a pole and the request exits 3 without a report"),
    ]
    return Report({"lambda0": ns.lambda0, "mu0": ns.mu0, "mu": ns.mu, "b": state.beta_coeff}, fields)


def _cmd_oracle(ns: argparse.Namespace, cfg: RunConfig) -> Report:
    from . import oracle

    msq = cfg.msq_in(ns.msq)
    # the default grid is built in the user's units, like an explicit --grid,
    # so its echo re-parses to the very same cutoffs
    grid_display = ns.grid if ns.grid is not None else oracle.default_grid(ns.msq)
    grid = tuple(cfg.mass_in(g) for g in grid_display)
    probe = oracle.CutoffProbe(power=ns.n, mass_sq=msq, lambda_grid=grid, quadrature=oracle.QuadratureSpec(rel_tol=ns.rel_tol))
    fits: list[tuple[str, object, str]] = []
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
    quadrature = "adaptive radial quadrature int_0^cutoff k^3 (k^2+M^2)^(-n) dk; unit_multiple = (-1)^n * 2 * radial in units i/(16*pi^2)"
    fields = [("rows", rows, quadrature), *fits]
    inputs = {"n": ns.n, "msq": ns.msq, "grid": ",".join(str(g) for g in grid_display), "rel_tol": ns.rel_tol}
    return Report(inputs, fields)


# ----------------------------- demo -----------------------------


def _cmd_demo(ns: argparse.Namespace, cfg: RunConfig) -> int:
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


# ----------------------------- parser wiring -----------------------------


def _finite_float(text: str) -> float:
    """argparse type of every float flag: a number that is neither inf nor nan."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _finite_grid(text: str) -> tuple[float, ...]:
    """argparse type of --grid: comma-separated finite cutoffs."""
    return tuple(_finite_float(tok) for tok in text.split(","))


class _MisplacedFlag(argparse.Action):
    """Top-level stand-in for a subcommand flag typed before the subcommand: a usage error that names the flag."""

    def __call__(self, parser, namespace, values, option_string=None):
        parser.error(f"{option_string} goes after the subcommand: loopreg <subcommand> {option_string} ...")


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its name -> subparser map, shared by every ``run`` in this process and built on
    first use.  ``run`` parses an argv whose first string names a subcommand with that subparser alone; the top-level
    parser parses the rest (help, no or an unknown subcommand, a flag before it) and reports the strings a subparser
    leaves over.  Handlers are bound at build time, so patching ``_cmd_*`` after the first ``run`` has no effect; patch
    what a handler calls.  ``--alpha`` and ``--bethe-log`` default to ``None``: the handler reads (and echoes)
    ``qed.DEFAULT_ALPHA`` and ``qed.DEFAULT_BETHE_LOG`` on each call, so patching those takes effect on the next
    ``run``."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--units", choices=["GeV", "MeV"], help="unit of mass-dimension inputs/outputs (default GeV)")
    common.add_argument("--precision", type=int, help="significant digits for rendered numbers, 4..17 (default 12)")
    common.add_argument("--format", dest="out_format", choices=["json", "csv", "plot-data"], help="output format (default json; csv/plot-data for sweeps only)")
    common.add_argument("--config", help="key=value file overriding defaults (keys: units, precision, format)")

    parser = argparse.ArgumentParser(
        prog="loopreg",
        description="One-loop integral regularization by mass-parameter differentiation: reduction kernel, electron self-energy, quartic-scalar model, cutoff-quadrature oracle.",
    )
    for key in (*_CONFIG_KEYS, "config"):  # each subparser's own flags (``common``), hidden from the top-level help
        parser.add_argument(f"--{key}", nargs="?", action=_MisplacedFlag, default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("regularize", parents=[common], help="Reduce a loop integral to its closed form plus constants.")
    p.add_argument("--n", type=int, required=True, help="denominator power n >= 1")
    p.add_argument("--msq", type=_finite_float, help="squared mass M^2 for numeric evaluation (units^2)")
    p.add_argument("--mu1", type=_finite_float, help="alias the dimensionless constant to -ln(mu1^2)")
    p.set_defaults(handler=_cmd_regularize)

    p = sub.add_parser("selfenergy", parents=[common], help="On-shell electron mass shift.")
    p.add_argument("--m", type=_finite_float, required=True, help="electron mass (units)")
    p.add_argument("--alpha", type=_finite_float, help="fine-structure constant")
    p.add_argument("--mu1", type=_finite_float, help="integration scale; default fixes the shift to zero")
    p.set_defaults(handler=_cmd_selfenergy)

    p = sub.add_parser("mu1", parents=[common], help="Scale fixed by the zero mass-shift condition.")
    p.add_argument("--m", type=_finite_float, required=True, help="mass (units)")
    p.set_defaults(handler=_cmd_mu1)

    p = sub.add_parser("lambshift", parents=[common], help="Leading-log 2S-2P splitting estimate in MHz.")
    p.add_argument("--alpha", type=_finite_float)
    p.add_argument("--m", type=_finite_float, help="electron mass (units); default 0.000511 GeV")
    p.add_argument("--bethe-log", type=_finite_float, help="Bethe logarithm input (default 2.8118)")
    p.set_defaults(handler=_cmd_lambshift)

    p = sub.add_parser("phi4", parents=[common], help="Broken-vacuum relations and one-loop coupling.")
    p.add_argument("--sigma", type=_finite_float, required=True, help="wrong-sign mass parameter (units^2)")
    p.add_argument("--lambda", dest="lam", type=_finite_float, required=True, help="quartic coupling")
    p.set_defaults(handler=_cmd_phi4)

    p = sub.add_parser("resum", parents=[common], help="Resummed running coupling and its critical scale.")
    p.add_argument("--lambda0", type=_finite_float, required=True, help="coupling at the reference scale")
    p.add_argument("--mu0", type=_finite_float, required=True, help="reference scale (units)")
    p.add_argument("--b", dest="beta_coeff", type=_finite_float, help="resummation coefficient (default 9/(32*pi^2))")
    p.add_argument("--mu", type=_finite_float, help="single evaluation scale (units)")
    p.add_argument("--mu-min", type=_finite_float, help="sweep start (units)")
    p.add_argument("--mu-max", type=_finite_float, help="sweep end (units)")
    p.add_argument("--mu-points", type=int, default=25, help="sweep point count (default 25)")
    p.set_defaults(handler=_cmd_resum)

    p = sub.add_parser("oracle", parents=[common], help="Cutoff quadrature sweep, divergence signature, asymptote.")
    p.add_argument("--n", type=int, required=True, help="denominator power n >= 1")
    p.add_argument("--msq", type=_finite_float, required=True, help="squared mass M^2 (units^2)")
    p.add_argument("--grid", type=_finite_grid, help="comma-separated cutoffs (units); default 1e2..1e6 times sqrt(M^2)")
    p.add_argument("--rel-tol", type=_finite_float, default=1e-10, help="quadrature relative tolerance (default 1e-10)")
    p.set_defaults(handler=_cmd_oracle)

    sub.add_parser("demo", parents=[common], help="Full cross-checked walkthrough; exit 0 only if every check passes.")

    return parser, sub.choices


def run(argv: Sequence[str] | None = None) -> int:
    """Parse argv (with the parsers built once per process), check the format, compute the report and render it; returns the exit code."""
    parser, subparsers = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        subparser = subparsers.get(argv[0]) if argv else None
        if subparser is None:
            ns = parser.parse_args(argv)
        else:  # what parse_args does with a subcommand's argv, without parsing its strings twice
            ns, extras = subparser.parse_known_args(argv[1:])
            if extras:
                parser.error(f"unrecognized arguments: {' '.join(extras)}")
            ns.subcommand = argv[0]
    except SystemExit as exc:  # argparse already printed usage to stderr
        return int(exc.code) if exc.code is not None else EXIT_VALIDATION
    try:
        cfg = _resolve_config(ns)
        if ns.subcommand == "demo":  # a walkthrough of gates, not a report; any --format is ignored
            return _cmd_demo(ns, cfg)
        if cfg.out_format != "json" and not _has_sweep(ns):
            what = "resum (single point)" if ns.subcommand == "resum" else ns.subcommand
            raise ValueError(f"{what} has no sweep output; use --format json")
        _render(ns.subcommand, ns.handler(ns, cfg), cfg)
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
