"""Smoke check of the benchmark itself; takes about two minutes.

    python3 perfbench/smoke.py

For each workload: a small untraced run prints every end-to-end metric with
no wrong value, and two traced runs at one seed print every per-layer
metric with identical counts, attempted and failed requests included.  The only failures allowed are resum reports
that print a critical scale beyond the float range as inf, a known defect of
the program.  It also checks that a default n = 2 oracle
report makes 75 quad calls with distinct_radial_ratio 1/3, that layers.json
maps exactly the per-layer metrics of BENCHMARK.json, and that run.py fails
without a result in a directory holding only the benchmark's own files.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
#: Per-layer metrics that are counts of work, so they must repeat exactly at a fixed seed.
EXACT = ("init.modules_loaded", "oracle.integrand_evals", "oracle.distinct_radial_ratio",
         "cli.exit_nonzero", "phi4.landau_pole_raised", "oracle.quadrature_errors")
#: The one failure the program shows at this commit: a pole scale beyond the float range printed as inf.
KNOWN_FAILURE = "outputs.critical_scale is not finite: 'inf'"


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
                           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def _result(workload: str, trace: int, names: list[str]) -> dict:
    proc = _run(workload, trace)
    assert proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr}"
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert sorted(result["metrics"]) == sorted(names), f"{workload}: metrics {sorted(result['metrics'])}"
    printed = {line.split()[0] for line in proc.stdout.splitlines()[1:-1]}
    assert set(names) <= printed, f"{workload}: not printed: {set(names) - printed}"
    assert result["correct"], proc.stdout
    reasons = [line for line in proc.stdout.splitlines() if line.lstrip().startswith("FAILED")]
    unknown = [r for r in reasons if KNOWN_FAILURE not in r and "warm-up requests" not in r]
    assert not unknown, f"{workload}: failures other than the known one: {unknown}"
    assert result["failed"] == 0 or reasons, proc.stdout
    return result


def check_workloads(spec: dict) -> None:
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    exact = [n for n in per_layer if n in EXACT or n.endswith("_calls")]
    for workload in (w["name"] for w in spec["workloads"]):
        _result(workload, 0, end_to_end)
        first, second = (_result(workload, 1, per_layer) for _ in range(2))
        changed = [n for n in exact if first["metrics"][n]["value"] != second["metrics"][n]["value"]]
        changed += [k for k in ("attempted", "failed") if first[k] != second[k]]
        assert not changed, f"{workload}: counts differ between runs at seed {SEED}: {changed}"
        print(f"ok  {workload}: every metric printed, no wrong value, {len(exact)} counts repeat exactly")


def check_default_sweep() -> None:
    sys.path.insert(0, str(HERE))
    import spans
    import workloads
    from worker import SweepClient

    client = SweepClient()
    params = {"n": 2, "msq": 1.0, "grid": workloads.DEFAULT_GRID_FACTORS, "rel_tol": 1e-10, "units": "GeV"}
    req = workloads.Request("sweep", None, params)
    tracer = spans.Tracer()
    tracer.request = "p0.0"
    tracer.install()
    try:
        wall, _, result = client.execute(req)
    finally:
        tracer.uninstall()
    assert client.verify(req, result) is None
    metrics = spans.layer_metrics(tracer, {"p0.0": "p0"}, wall, 1, [], 0)
    assert metrics["oracle.quad_calls"] == 75, metrics["oracle.quad_calls"]
    assert Fraction(metrics["oracle.distinct_radial_ratio"]).limit_denominator(100) == Fraction(1, 3)
    print("ok  default n = 2 report: 75 quad calls, distinct_radial_ratio 1/3")


def check_layer_map(spec: dict) -> None:
    mapped = [m for layer in json.loads((HERE / "layers.json").read_text())["layers"] for m in layer["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in spec["per_layer"]), "layers.json and BENCHMARK.json disagree"
    print(f"ok  layers.json maps all {len(mapped)} per-layer metrics")


def check_bare_directory() -> None:
    bare = HERE / "_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run("report-warm", 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print(f"ok  without the program: exit {proc.returncode}, no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_layer_map(spec)
    check_default_sweep()
    check_bare_directory()
    check_workloads(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
