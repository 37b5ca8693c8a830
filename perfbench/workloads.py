"""Seeded request generators for the three benchmark workloads.

Every generator draws only from ``random.Random(seed)``.  Requests come in
blocks: a block holds each request kind in the fixed counts of the workload's
``*_MIX`` table, in shuffled order, so any whole number of blocks has exactly
the stated shares whatever the seed.  The program under test receives only
the generated argv (``cli-cold``, ``report-warm``) or library arguments
(``oracle-sweep``); ``params`` carries the same values for the checker.

Input ranges (all log-uniform unless stated; GeV, scaled by 1e3 per mass
dimension when a request draws ``--units MeV``, which a quarter do):

- masses m: 1e-4..200; squared masses M^2, sigma: 1e-6..1e6 and 1e-2..1e4;
- regularize n: uniform 1..12; mu1 within a decade of sqrt(M^2) or m;
- alpha: default or 1e-3..0.5; couplings lambda, lambda0: 1e-2..10;
- resum: mu0 1..1e3, b default or uniform 0.005..0.09 (a sixth to three
  times the one-loop value), single mu below half the pole scale, sweeps of
  2..500 points over 1..10 decades (they may cross the pole, reported as
  rows).  Weak couplings (b*lambda0 below about 7e-4) put the pole scale
  beyond the float range; a report that prints it as inf fails its check;
- oracle: n 1..6 (weighted to 2), rel_tol in {1e-10, 1e-8, 1e-6}, grids the
  default 1e2..1e6 * sqrt(M^2) or one point per decade over 5..7 decades,
  single cutoffs 10^0.5..10^6 * sqrt(M^2);
- --precision: default or uniform 4..17.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

DEFAULT_GRID_FACTORS = (1e2, 1e3, 1e4, 1e5, 1e6)
REL_TOLS = (1e-10, 1e-8, 1e-6)

WHY = {
    "cli-cold": "users run one-shot commands, so interpreter start and import are ~90% of each request; "
    "a lazy-import or scipy-removal change shows here and nowhere else",
    "report-warm": "in one warm process the cli layer's own parse, config and render work dominates, "
    "with kernel, qed and phi4 beside it; cold import is absent and quadrature is point use only",
    "oracle-sweep": "quad is almost all of the time and cutoffs repeat within a probe, so a one-pass or "
    "cumulative oracle shows here, while the single-cutoff oracle use in report-warm bypasses it",
}

#: Requests per block by kind. oracle-report is 1/6 of a session, demo 1/12.
CLI_COLD_MIX = {
    "regularize": 2, "selfenergy": 2, "mu1": 1, "lambshift": 1, "phi4": 1,
    "resum-point": 1, "resum-sweep": 1, "oracle-report": 2, "demo": 1,
}
#: Requests per block by kind; demo is 1/40.
REPORT_WARM_MIX = {
    "regularize": 10, "selfenergy": 5, "mu1": 3, "lambshift": 3, "phi4": 4,
    "resum-point": 4, "resum-sweep": 5, "oracle-point": 5, "demo": 1,
}
#: Sweeps per block by denominator power n.
ORACLE_SWEEP_MIX = {1: 1, 2: 3, 3: 1, 4: 1, 5: 1, 6: 1}


@dataclass(frozen=True)
class Request:
    kind: str
    argv: Optional[tuple[str, ...]]
    params: dict[str, Any] = field(default_factory=dict)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _typed(x: float) -> tuple[str, float]:
    """A number as a user would type it, and the exact value the program parses."""
    text = f"{x:.6g}"
    return text, float(text)


class _ArgvBuilder:
    """Draws one subcommand's argv with --units/--precision and records its params."""

    def __init__(self, rng: random.Random, subcommand: str):
        self.argv = [subcommand]
        self.params: dict[str, Any] = {"units": "GeV", "precision": 12}
        if rng.random() < 0.25:
            self.params["units"] = "MeV"
            self.argv += ["--units", "MeV"]
        if rng.random() < 0.5:
            self.params["precision"] = rng.randint(4, 17)
            self.argv += ["--precision", str(self.params["precision"])]

    @property
    def scale(self) -> float:
        """User-unit value of 1 GeV."""
        return 1e3 if self.params["units"] == "MeV" else 1.0

    def number(self, flag: str, key: str, value: float) -> float:
        text, parsed = _typed(value)
        self.argv += [flag, text]
        self.params[key] = parsed
        return parsed

    def request(self, kind: str) -> Request:
        return Request(kind, tuple(self.argv), self.params)


def _regularize(rng: random.Random) -> Request:
    b = _ArgvBuilder(rng, "regularize")
    n = rng.randint(1, 12)
    b.argv += ["--n", str(n)]
    b.params.update(n=n, msq=None, mu1=None)
    variant = rng.randrange(3)  # bare, at a mass, at a mass with a scale alias
    if variant:
        msq = b.number("--msq", "msq", _log_uniform(rng, 1e-6, 1e6) * b.scale**2)
        if variant == 2 and n <= 2:  # only n <= 2 has a dimensionless constant to alias
            b.number("--mu1", "mu1", math.sqrt(msq) * 10 ** rng.uniform(-1, 1))
    return b.request("regularize")


def _alpha(rng: random.Random, b: _ArgvBuilder) -> None:
    if rng.random() < 0.5:
        b.number("--alpha", "alpha", _log_uniform(rng, 1e-3, 0.5))


def _selfenergy(rng: random.Random) -> Request:
    b = _ArgvBuilder(rng, "selfenergy")
    m = b.number("--m", "m", _log_uniform(rng, 1e-4, 200.0) * b.scale)
    _alpha(rng, b)
    if rng.random() < 0.5:
        b.number("--mu1", "mu1", m * 10 ** rng.uniform(-1, 1))
    return b.request("selfenergy")


def _mu1(rng: random.Random) -> Request:
    b = _ArgvBuilder(rng, "mu1")
    b.number("--m", "m", _log_uniform(rng, 1e-4, 200.0) * b.scale)
    return b.request("mu1")


def _lambshift(rng: random.Random) -> Request:
    b = _ArgvBuilder(rng, "lambshift")
    _alpha(rng, b)
    if rng.random() < 0.3:
        b.number("--m", "m", _log_uniform(rng, 1e-4, 1.0) * b.scale)
    if rng.random() < 0.3:
        b.number("--bethe-log", "bethe_log", rng.uniform(2.0, 3.5))
    return b.request("lambshift")


def _phi4(rng: random.Random) -> Request:
    b = _ArgvBuilder(rng, "phi4")
    b.number("--sigma", "sigma", _log_uniform(rng, 1e-2, 1e4) * b.scale**2)
    b.number("--lambda", "lam", _log_uniform(rng, 1e-2, 10.0))
    return b.request("phi4")


def _resum_state(rng: random.Random, b: _ArgvBuilder) -> float:
    """Draws lambda0, mu0 and maybe b; returns ln of the pole scale over mu0."""
    lambda0 = b.number("--lambda0", "lambda0", _log_uniform(rng, 1e-2, 10.0))
    b.number("--mu0", "mu0", _log_uniform(rng, 1.0, 1e3) * b.scale)
    beta = 9.0 / (32.0 * math.pi**2)
    if rng.random() < 0.3:
        beta = b.number("--b", "b", rng.uniform(0.005, 0.09))
    return 1.0 / (2.0 * beta * lambda0)


def _resum_point(rng: random.Random) -> Request:
    b = _ArgvBuilder(rng, "resum")
    log_pole_ratio = _resum_state(rng, b)
    ratio = math.exp(rng.uniform(math.log(1e-2), min(log_pole_ratio - math.log(2.0), math.log(1e6))))
    b.number("--mu", "mu", b.params["mu0"] * ratio)
    return b.request("resum-point")


def _resum_sweep(rng: random.Random) -> Request:
    b = _ArgvBuilder(rng, "resum")
    b.params["format"] = rng.choice(("json", "csv"))
    b.argv += ["--format", b.params["format"]]
    _resum_state(rng, b)
    mu_min = b.number("--mu-min", "mu_min", b.params["mu0"] * 10 ** rng.uniform(-2, 0))
    b.number("--mu-max", "mu_max", mu_min * 10 ** rng.uniform(1, 10))
    points = round(_log_uniform(rng, 2, 500))
    b.argv += ["--mu-points", str(points)]
    b.params["mu_points"] = points
    return b.request("resum-sweep")


def _oracle_power(rng: random.Random) -> int:
    return rng.choices(list(ORACLE_SWEEP_MIX), weights=list(ORACLE_SWEEP_MIX.values()))[0]


def _rel_tol(rng: random.Random, b: _ArgvBuilder) -> None:
    b.params["rel_tol"] = 1e-10
    if rng.random() < 0.5:
        b.params["rel_tol"] = rng.choice(REL_TOLS)
        b.argv += ["--rel-tol", repr(b.params["rel_tol"])]


def _oracle_point(rng: random.Random) -> Request:
    b = _ArgvBuilder(rng, "oracle")
    n = _oracle_power(rng)
    b.argv += ["--n", str(n), "--format", "csv"]
    b.params["n"] = n
    msq = b.number("--msq", "msq", _log_uniform(rng, 1e-6, 1e6) * b.scale**2)
    text, cutoff = _typed(math.sqrt(msq) * 10 ** rng.uniform(0.5, 6.0))
    b.argv += ["--grid", text]
    b.params["grid"] = (cutoff,)
    _rel_tol(rng, b)
    return b.request("oracle-point")


def _custom_grid(rng: random.Random, mass: float) -> tuple[tuple[str, ...], tuple[float, ...]]:
    start = rng.choice((1, 2))
    typed = [_typed(mass * 10.0**k) for k in range(start, start + 1 + rng.randint(5, 7))]
    return tuple(t for t, _ in typed), tuple(v for _, v in typed)


def _oracle_report(rng: random.Random) -> Request:
    b = _ArgvBuilder(rng, "oracle")
    n = _oracle_power(rng)
    b.argv += ["--n", str(n)]
    b.params["n"] = n
    msq = b.number("--msq", "msq", _log_uniform(rng, 1e-6, 1e6) * b.scale**2)
    if rng.random() < 1 / 3:
        texts, b.params["grid"] = _custom_grid(rng, math.sqrt(msq))
        b.argv += ["--grid", ",".join(texts)]
    else:  # the program's default grid, which the checker recomputes
        b.params["grid"] = tuple(c * math.sqrt(msq) for c in DEFAULT_GRID_FACTORS)
    _rel_tol(rng, b)
    return b.request("oracle-report")


def _demo(rng: random.Random) -> Request:
    return Request("demo", ("demo",), {})


_ARGV_KINDS: dict[str, Callable[[random.Random], Request]] = {
    "regularize": _regularize, "selfenergy": _selfenergy, "mu1": _mu1,
    "lambshift": _lambshift, "phi4": _phi4, "resum-point": _resum_point,
    "resum-sweep": _resum_sweep, "oracle-point": _oracle_point,
    "oracle-report": _oracle_report, "demo": _demo,
}


def _sweep(rng: random.Random, n: int) -> Request:
    """Library arguments of one oracle report, all in GeV."""
    msq = _log_uniform(rng, 1e-6, 1e6)
    if rng.random() < 1 / 3:
        _, grid = _custom_grid(rng, math.sqrt(msq))
    else:
        grid = tuple(c * math.sqrt(msq) for c in DEFAULT_GRID_FACTORS)
    params = {"n": n, "msq": msq, "grid": grid, "rel_tol": rng.choice(REL_TOLS), "units": "GeV"}
    return Request("sweep", None, params)


def _block(rng: random.Random, workload: str) -> list[Request]:
    if workload == "oracle-sweep":
        block = [_sweep(rng, n) for n, count in ORACLE_SWEEP_MIX.items() for _ in range(count)]
    else:
        mix = CLI_COLD_MIX if workload == "cli-cold" else REPORT_WARM_MIX
        block = [_ARGV_KINDS[kind](rng) for kind, count in mix.items() for _ in range(count)]
    rng.shuffle(block)
    return block


def blocks(workload: str, seed: int) -> Iterator[list[Request]]:
    """Endless seeded stream of request blocks for one workload."""
    if workload not in WHY:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield _block(rng, workload)
