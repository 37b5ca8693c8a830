"""loopreg benchmark: one workload, one client, a closed loop; prints every metric by name.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Untraced (``--trace 0``) it reports the
end-to-end metrics of BENCHMARK.json; set-up runs SETUP_REPEATS times, each
in its own process right after a host-speed reference process, and
``setup_s`` is the median of the set-up times scaled to the quiet host (see
hostspeed).  Traced (``--trace 1``) it reports the per-layer metrics.  Every
output is checked independently (``checker.py``).  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: ``failed`` counts the timed requests that failed their check, and
``correct`` is false when any request, warm-up included, printed a usable
value that misses its expectation.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_S = 150
WORKLOADS = ("cli-cold", "report-warm", "oracle-sweep")


def _worker(args: argparse.Namespace, *extra: str, timeout: float) -> dict[str, Any]:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (ROOT / "src" / "loopreg" / "__init__.py").is_file():
        print(f"error: no loopreg package under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    setups: list[tuple[dict[str, Any], float]] = []
    try:
        for _ in range(0 if args.trace else SETUP_REPEATS - 1):
            slowdown = hostspeed.process_slowdown()
            setups.append((_worker(args, "--setup-only", timeout=SETUP_TIMEOUT_S), slowdown))
        slowdown = hostspeed.process_slowdown()
        report = _worker(args, timeout=RUN_TIMEOUT_S)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append((report, slowdown))
    runs = [r for r, _ in setups]
    metrics = dict(report["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(r["setup_s"] / slowdown for r, slowdown in setups)
        metrics["success_ratio"] = (report["attempted"] - report["failed"]) / report["attempted"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1

    warmup_failed = sum(r["warmup_failed"] for r in runs)
    wrong = sum(r["wrong"] for r in runs)
    print(f"workload {args.workload}, seed {args.seed}, {'traced' if args.trace else 'untraced'}")
    for m in wanted:
        print(f"  {m['name']:<34} {metrics[m['name']]:.6g} {m['unit']}")
    if not args.trace:  # measured and printed, but too sensitive to host stalls to carry a bound
        print(f"  {'latency_tail_ms':<34} {metrics['latency_tail_ms']:.6g} ms (not in BENCHMARK.json)")
        print(f"  failed_ratio {report['failed'] / report['attempted']:.6g} ({report['failed']} of "
              f"{report['attempted']}); setup_s over {len(runs)} set-ups, raw median "
              f"{statistics.median(r['setup_s'] for r in runs):.6g} s")
    for note in report["notes"]:
        print(f"  {note}")
    for count, example in report["failures"]:
        print(f"  FAILED {count}x, first: {example}")
    if warmup_failed:
        print(f"  FAILED {warmup_failed} warm-up requests")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
