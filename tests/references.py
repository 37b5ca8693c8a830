"""Earlier, simpler implementations the tests hold the package to.

``render_two_pass`` is the renderer ``loopreg.cli`` used before it laid out
JSON itself: format every number, then ``json.dumps(indent=2)``.
``bisect`` is the bisection that ``loopreg.oracle.find_root`` used to be,
with the same stop rule.  The package's versions must match their output
byte for byte, and their evaluation counts are compared with bisection's.
"""

import json
import math
import sys
from fractions import Fraction
from typing import Any, Callable


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
