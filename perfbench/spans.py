"""Spans and counts at the layer boundaries, recorded from outside the program.

``Tracer.install`` replaces public functions of the loopreg modules, and
``scipy.integrate.quad`` (which the oracle looks up at call time), by
wrappers that record a span: name, start, end, parent span, request id, a
tag and the exception raised, if any.  ``oracle.radial_integrand`` is only
counted, since ``quad`` calls it thousands of times.  Spans stay in memory
until ``save``/``dump`` writes them.  ``layer_metrics`` derives self time
(a span's duration minus its direct children's) and the per-layer metrics;
``import_probe`` supplies the ``init.*`` numbers from fresh interpreters.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable, Iterable, Optional

#: (layer, module, attribute) of every spanned function; the span is "<layer>.<attribute>".
SPANNED = (
    ("cli", "loopreg.cli", "run"),
    ("kernel", "loopreg.kernel", "regularize"),
    ("kernel", "loopreg.kernel", "evaluate_convergent"),
    ("feynpar", "loopreg.feynpar", "integrate_poly_log"),
    ("qed", "loopreg.qed", "pipeline_coefficients"),
    ("qed", "loopreg.qed", "on_shell_mass_shift"),
    ("qed", "loopreg.qed", "solve_mu1"),
    ("qed", "loopreg.qed", "solve_mu1_by_root"),
    ("qed", "loopreg.qed", "lamb_shift_estimate"),
    ("phi4", "loopreg.phi4", "ssb_vacuum"),
    ("phi4", "loopreg.phi4", "lambda_renormalized"),
    ("phi4", "loopreg.phi4", "lambda_invariant_ratio"),
    ("phi4", "loopreg.phi4", "resum_chain"),
    ("phi4", "loopreg.phi4", "resum_first_order"),
    ("phi4", "loopreg.phi4", "critical_scale"),
    ("phi4", "loopreg.phi4", "symmetry_status"),
    ("oracle", "loopreg.oracle", "radial_integral"),
    ("oracle", "loopreg.oracle", "wick_rotated_radial"),
    ("oracle", "loopreg.oracle", "divergence_signature"),
    ("oracle", "loopreg.oracle", "asymptote_constant"),
    ("oracle", "scipy.integrate", "quad"),  # the oracle's own quadrature work
)
COUNTED = (("oracle", "loopreg.oracle", "radial_integrand"),)
LAYERS = ("cli", "kernel", "feynpar", "qed", "phi4", "oracle")


def _regularize_tag(args: tuple, kwargs: dict) -> str:
    power = args[0].power
    return "n1" if power == 1 else "n2" if power == 2 else "n3plus"


def _radial_tag(args: tuple, kwargs: dict) -> list:
    """(n, M^2, cutoff, rel_tol): equal tags are repeated quadrature work."""
    names = ("power", "mass_sq", "cutoff", "rel_tol")
    values = dict(zip(names, args), **kwargs)
    return [values["power"], values["mass_sq"], values["cutoff"], values.get("rel_tol", 1e-10)]


TAGS: dict[str, Callable[[tuple, dict], Any]] = {
    "kernel.regularize": _regularize_tag,
    "oracle.radial_integral": _radial_tag,
}

# span fields
NAME, START, END, PARENT, REQUEST, TAG, ERROR = range(7)


class Tracer:
    """Records spans and counts of the wrapped functions in one process."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.first_us: dict[str, float] = {}
        self.request = ""
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        for layer, module, attr in SPANNED:
            self._replace(module, attr, lambda fn, name=f"{layer}.{attr}": self._spanned(name, fn))
        for layer, module, attr in COUNTED:
            self._replace(module, attr, lambda fn, name=f"{layer}.{attr}": self._counted(name, fn))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def _replace(self, module: str, attr: str, make: Callable[[Any], Any]) -> None:
        mod = importlib.import_module(module)
        original = getattr(mod, attr)
        self._saved.append((mod, attr, original))
        setattr(mod, attr, make(original))

    def _spanned(self, name: str, fn: Callable) -> Callable:
        tag = TAGS.get(name)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = self._stack[-1] if self._stack else None
            span = [name, 0.0, 0.0, parent, self.request, tag(args, kwargs) if tag else None, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = time.perf_counter()
                self._stack.pop()
                self.first_us.setdefault(name, (span[END] - span[START]) * 1e6)

        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            self.counts[self.request][name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def save(self, path: Path) -> None:
        """Write this process's spans, counts and first-call times (for a parent to absorb)."""
        path.write_text(json.dumps({"spans": self.spans, "counts": self.counts.get("", {}), "first_us": self.first_us}))

    def absorb(self, path: Path, request: str) -> dict[str, float]:
        """Merge a child's saved trace under one request id; returns its first-call times."""
        data = json.loads(path.read_text())
        offset = len(self.spans)
        for span in data["spans"]:
            if span[PARENT] is not None:
                span[PARENT] += offset
            span[REQUEST] = request
            self.spans.append(span)
        self.counts[request].update(data["counts"])
        return data["first_us"]

    def dump(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "request", "tag", "error")
        with path.open("w") as f:
            for span in self.spans:
                f.write(json.dumps(dict(zip(keys, span))) + "\n")


def _median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(
    tracer: Tracer,
    requests: dict[str, str],
    walls: float,
    passes: int,
    cold_pipeline_us: list[float],
    exit_nonzero: int,
) -> dict[str, float]:
    """Per-layer metrics over the traced requests (ids in ``requests``, mapped to their pass).

    ``walls`` is the summed wall time of those requests, the base of every
    ``*.self_share``; counts are per pass, and every pass runs the same requests.
    """
    spans = tracer.spans
    duration = [s[END] - s[START] for s in spans]
    self_time = list(duration)
    for i, s in enumerate(spans):
        if s[PARENT] is not None:
            self_time[s[PARENT]] -= duration[i]

    calls: dict[str, list[int]] = defaultdict(list)
    layer_self: Counter = Counter()
    for i, s in enumerate(spans):
        if s[REQUEST] in requests:
            calls[s[NAME]].append(i)
            layer_self[s[NAME].split(".")[0]] += self_time[i]

    def count(name: str, error: Optional[str] = None) -> float:
        return sum(1 for i in calls[name] if error is None or spans[i][ERROR] == error) / passes

    def median_us(name: str, tag: Optional[str] = None) -> float:
        return _median(duration[i] * 1e6 for i in calls[name] if tag is None or spans[i][TAG] == tag)

    radial_by_pass: dict[str, list[tuple]] = defaultdict(list)
    for i in calls["oracle.radial_integral"]:
        radial_by_pass[requests[spans[i][REQUEST]]].append(tuple(spans[i][TAG]))
    counted = Counter()
    for request in requests:
        counted.update(tracer.counts.get(request, {}))

    metrics = {
        "cli.run_calls": count("cli.run"),
        "cli.self_ms_p50": _median(self_time[i] * 1e3 for i in calls["cli.run"]),
        "cli.exit_nonzero": exit_nonzero / passes,
        "kernel.regularize_calls": count("kernel.regularize"),
        "kernel.regularize_us.n1": median_us("kernel.regularize", "n1"),
        "kernel.regularize_us.n2": median_us("kernel.regularize", "n2"),
        "kernel.regularize_us.n3plus": median_us("kernel.regularize", "n3plus"),
        "feynpar.integrate_poly_log_calls": count("feynpar.integrate_poly_log"),
        "feynpar.self_us_total": layer_self["feynpar"] * 1e6 / passes,
        "qed.pipeline_coefficients_calls": count("qed.pipeline_coefficients"),
        "qed.pipeline_cold_us": _median(cold_pipeline_us),
        "qed.solve_mu1_by_root_calls": count("qed.solve_mu1_by_root"),
        "qed.solve_mu1_by_root_us_p50": median_us("qed.solve_mu1_by_root"),
        "phi4.resum_chain_calls": count("phi4.resum_chain"),
        "phi4.resum_chain_us_p50": median_us("phi4.resum_chain"),
        "phi4.landau_pole_raised": count("phi4.resum_chain", "LandauPoleError"),
        "oracle.radial_integral_calls": count("oracle.radial_integral"),
        "oracle.radial_integral_us_p50": median_us("oracle.radial_integral"),
        "oracle.quad_calls": count("oracle.quad"),
        "oracle.integrand_evals": counted["oracle.radial_integrand"] / passes,
        "oracle.distinct_radial_ratio": _median(len(set(keys)) / len(keys) for keys in radial_by_pass.values()),
        "oracle.quadrature_errors": count("oracle.radial_integral", "QuadratureError"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = layer_self[layer] / walls
    return metrics


# ----------------------------- import probe -----------------------------

_PLAIN_PROBE = (
    "import sys, time\n"
    "before = len(sys.modules)\n"
    "start = time.perf_counter()\n"
    "import loopreg\n"
    "print(time.perf_counter() - start, len(sys.modules) - before)\n"
)


def child_env(root: Path) -> dict[str, str]:
    """Environment of every benchmark child: the checkout's src first, default precision."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    env.pop("LOOPREG_PRECISION", None)
    return env


def scipy_numpy_share(importtime: str) -> float:
    """Share of the loopreg import spent in numpy/scipy and what they pull in.

    ``-X importtime`` lists modules children first, two spaces of indent per
    level; walked in reverse, every parent precedes its children.
    """
    entries = []
    for line in importtime.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cumulative_us, raw = line[len("import time:"):].split("|")
        name = raw.lstrip()
        entries.append(((len(raw) - len(name) - 1) // 2, name, int(self_us), int(cumulative_us)))
    total = next(cum for depth, name, _, cum in entries if depth == 0 and name == "loopreg")
    inside = 0
    stack: list[tuple[int, bool]] = []
    for depth, name, self_us, _ in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        heavy = (bool(stack) and stack[-1][1]) or name.split(".")[0] in ("numpy", "scipy")
        stack.append((depth, heavy))
        inside += self_us if heavy else 0
    return inside / total


def import_probe(root: Path) -> dict[str, float]:
    """init.* metrics: ``import loopreg`` in a fresh interpreter, plain and under -X importtime."""
    env = child_env(root)
    plain = subprocess.run([sys.executable, "-c", _PLAIN_PROBE], cwd=root, env=env,
                           capture_output=True, text=True, timeout=60, check=True)
    seconds, modules = plain.stdout.split()
    timed = subprocess.run([sys.executable, "-X", "importtime", "-c", "import loopreg"], cwd=root,
                           env=env, capture_output=True, text=True, timeout=60, check=True)
    return {
        "init.import_ms": float(seconds) * 1e3,
        "init.modules_loaded": float(modules),
        "init.scipy_numpy_import_share": scipy_numpy_share(timed.stderr),
    }
