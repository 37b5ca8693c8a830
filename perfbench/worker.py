"""One benchmark process: set up, then drive one workload as a closed loop with one client.

    python perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

Set-up is everything before the first timed request: for the in-process
workloads ``import loopreg`` and one warm-up block, for ``cli-cold`` argv
generation and one warm-up process running ``demo``.  ``--seconds`` sets
the amount of work, a whole number of blocks (see ``BLOCK_SECONDS``), so a
seed fixes every request of a run and with it the attempted and failed
counts.  Untraced, the worker times those blocks and reports the end-to-end
metrics; traced, it alternates untraced and traced passes over one fixed
block and reports the per-layer metrics.  It prints one JSON object on its
last line.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import selectors  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Iterator, Optional  # noqa: E402

import checker  # noqa: E402
import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
CHILD_TIMEOUT_S = 120
REFERENCE_EVERY_S = 0.1
#: Wall seconds of one block on a 2-CPU VM at its usual, shared speed.  A run
#: given ``--seconds S`` times round(S / BLOCK_SECONDS) blocks, at least one.
BLOCK_SECONDS = {"cli-cold": 12.5, "report-warm": 0.14, "oracle-sweep": 0.03}
#: A traced pass pair over one block costs about this many untraced blocks.
TRACED_PAIR_BLOCKS = 3.5
#: A timed run stops after the request that passes this, so a very slow host still gets a result.
MAX_TIMED_S = 110


def _import_loopreg() -> Any:
    sys.path.insert(0, str(ROOT / "src"))
    import loopreg.cli

    if Path(loopreg.__file__).resolve().parent != ROOT / "src" / "loopreg":
        raise RuntimeError(f"imported loopreg from {loopreg.__file__}, not from this checkout")
    return loopreg


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class InProcessClient:
    """Requests served by loopreg imported into this process; CPU time from RUSAGE_SELF."""

    slowdown = staticmethod(hostspeed.slowdown)
    window_requests = 800  # whole blocks of either in-process workload: the same mix in every window

    def __init__(self) -> None:
        self.loopreg = _import_loopreg()

    def set_traced(self, tracer: spans.Tracer, traced: bool) -> None:
        if traced:
            tracer.install()
        else:
            tracer.uninstall()

    def execute(self, req: workloads.Request) -> tuple[float, float, Any]:
        """(wall s, CPU s, result) of one request."""
        cpu0, start = _cpu_s(), time.perf_counter()
        result = self.call(req)
        wall = time.perf_counter() - start
        return wall, _cpu_s() - cpu0, result

    def call(self, req: workloads.Request) -> Any:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class ReportClient(InProcessClient):
    """report-warm: ``loopreg.cli.run(argv)`` in this process, output captured."""

    def call(self, req: workloads.Request) -> Any:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code: Optional[int] = self.loopreg.cli.run(list(req.argv))
            except Exception:
                code = None
                err.write(traceback.format_exc())
        return code, out.getvalue(), err.getvalue()

    def verify(self, req: workloads.Request, result: Any) -> Optional[checker.Miss]:
        code, out, err = result
        if code is None:
            return checker.Miss(f"exception: {err.strip().splitlines()[-1]}")
        return checker.check_cli(req.kind, req.params, code, out, err)


class SweepClient(InProcessClient):
    """oracle-sweep: the library work behind one oracle report, in this process."""

    def call(self, req: workloads.Request) -> Any:
        oracle, p = self.loopreg.oracle, req.params
        try:
            probe = oracle.CutoffProbe(p["n"], p["msq"], p["grid"], oracle.QuadratureSpec(rel_tol=p["rel_tol"]))
            radials = [oracle.radial_integral(p["n"], p["msq"], cutoff, p["rel_tol"]) for cutoff in p["grid"]]
            kind = oracle.divergence_signature(probe).kind
            asymptote = oracle.asymptote_constant(probe) if p["n"] == 2 else None
            return 0, radials, kind, asymptote
        except Exception:
            return None, traceback.format_exc()

    def verify(self, req: workloads.Request, result: Any) -> Optional[checker.Miss]:
        if result[0] is None:
            return checker.Miss(f"exception: {result[1].strip().splitlines()[-1]}")
        return checker.check_sweep(req.params, *result[1:])


class ColdClient:
    """cli-cold: every request is a fresh ``python -m loopreg.cli`` process (traced: the shim).

    Each child is reaped with ``os.wait4``, so CPU time and peak RSS are
    those of the loopreg processes alone, without the ``hostspeed`` references.
    """

    slowdown = staticmethod(hostspeed.process_slowdown)
    window_requests = None

    def __init__(self) -> None:
        if not (ROOT / "src" / "loopreg" / "__init__.py").is_file():
            raise RuntimeError(f"no loopreg package under {ROOT / 'src'}")
        self.env = spans.child_env(ROOT)
        self.trace_file = OUT / f"child-{os.getpid()}.json"
        self.traced = False
        self.peak_rss_kb = 0

    def set_traced(self, tracer: spans.Tracer, traced: bool) -> None:
        self.traced = traced

    def execute(self, req: workloads.Request) -> tuple[float, float, Any]:
        """(wall s, CPU s, result) of one child process."""
        if self.traced:
            cmd = [sys.executable, str(HERE / "shim.py"), str(self.trace_file), *req.argv]
        else:
            cmd = [sys.executable, "-m", "loopreg.cli", *req.argv]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        output = {proc.stdout: bytearray(), proc.stderr: bytearray()}
        timed_out = False
        with selectors.DefaultSelector() as selector:
            for pipe in output:
                selector.register(pipe, selectors.EVENT_READ)
            while selector.get_map():
                remaining = start + CHILD_TIMEOUT_S - time.perf_counter()
                if remaining <= 0 and not timed_out:
                    proc.kill()
                    timed_out = True
                for key, _ in selector.select(max(remaining, 0.1)):
                    chunk = os.read(key.fd, 1 << 16)
                    if chunk:
                        output[key.fileobj] += chunk
                    else:
                        selector.unregister(key.fileobj)
                        key.fileobj.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        out, err = (output[pipe].decode(errors="replace") for pipe in (proc.stdout, proc.stderr))
        if timed_out:
            return wall, usage.ru_utime + usage.ru_stime, (None, out, f"timed out after {CHILD_TIMEOUT_S} s")
        return wall, usage.ru_utime + usage.ru_stime, (proc.returncode, out, err)

    def verify(self, req: workloads.Request, result: Any) -> Optional[checker.Miss]:
        code, out, err = result
        if code is None:
            return checker.Miss(err)
        return checker.check_cli(req.kind, req.params, code, out, err)

    def peak_rss_mb(self) -> float:
        return self.peak_rss_kb / 1024.0


CLIENTS = {"cli-cold": ColdClient, "report-warm": ReportClient, "oracle-sweep": SweepClient}


class Tally:
    """Attempted, failed and wrong requests, and the failures by kind.

    A request that fails its check is failed; it is also wrong when it gave a
    usable value that misses its expectation (``checker.Wrong``).  Failures
    whose reasons agree up to the first colon are one kind, kept with a count
    and the first example.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.kinds: dict[str, list[Any]] = {}

    def add(self, req: workloads.Request, miss: Optional[checker.Miss]) -> None:
        self.attempted += 1
        if miss is not None:
            self.failed += 1
            self.wrong += miss.wrong
            example = f"{req.kind} {' '.join(req.argv or ())}: {miss}"
            self.kinds.setdefault(f"{req.kind}: {str(miss).split(':')[0]}", [0, example])[0] += 1


def warm_up(client: Any, block: list[workloads.Request], tally: Tally) -> None:
    for req in block:
        tally.add(req, client.verify(req, client.execute(req)[2]))


class Window:
    """Consecutive requests, with the host slowdowns measured beside them."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.cpu_s = 0.0
        self.slowdowns: list[float] = []

    def speed_factor(self) -> float:
        """Scales this window's times to the quiet host."""
        return 1.0 / statistics.median(self.slowdowns)


def _tail(ordered: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest rank with at least 10 samples beyond it, else the maximum."""
    index = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def timed_run(client: Any, stream: Iterator[list[workloads.Request]], blocks: int, tally: Tally) -> dict[str, Any]:
    """Closed loop over ``blocks`` blocks; output checks and reference timings are off the clock.

    Times are scaled to the host's quiet speed window by window (see
    hostspeed), the raw figures printed beside them.  In-process requests
    are timed in windows of ``client.window_requests`` (whole blocks, so
    every window holds the same mix), and throughput and CPU per request are
    the medians over the full windows, so that a stall of the host shorter
    than the reference interval moves one window only; cli-cold is one window.
    """
    requests = itertools.chain.from_iterable(itertools.islice(stream, blocks))
    size = client.window_requests or sys.maxsize
    windows: list[Window] = []
    cap = time.perf_counter() + MAX_TIMED_S
    req = next(requests, None)
    while req is not None and time.perf_counter() < cap:
        window, last_reference = Window(), -REFERENCE_EVERY_S
        while req is not None and len(window.latencies) < size and time.perf_counter() < cap:
            if time.perf_counter() >= last_reference + REFERENCE_EVERY_S:
                window.slowdowns.append(client.slowdown())
                last_reference = time.perf_counter()
            wall, cpu_s, result = client.execute(req)
            window.latencies.append(wall)
            window.cpu_s += cpu_s
            tally.add(req, client.verify(req, result))
            req = next(requests, None)
        window.slowdowns.append(client.slowdown())
        windows.append(window)

    scaled = sorted(x * w.speed_factor() for w in windows for x in w.latencies)
    raw = [x for w in windows for x in w.latencies]
    count = len(scaled)
    tail_s, percentile = _tail(scaled)
    factors = [w.speed_factor() for w in windows]
    full = [w for w in windows if len(w.latencies) == size] or windows
    return {
        "metrics": {
            "latency_p50_ms": statistics.median(scaled) * 1e3,
            "latency_tail_ms": tail_s * 1e3,
            "throughput_rps": statistics.median(len(w.latencies) / (sum(w.latencies) * w.speed_factor())
                                                for w in full),
            "cpu_ms_per_request": statistics.median(w.cpu_s * w.speed_factor() * 1e3 / len(w.latencies)
                                                    for w in full),
            "peak_rss_mb": client.peak_rss_mb(),
        },
        "notes": [
            f"{count} requests of {blocks} blocks" + (f", stopped at the {MAX_TIMED_S} s cap" if req else ""),
            f"latency_tail_ms is p{percentile:.2f} of {count} requests",
            f"times at quiet host speed; speed factor over {len(windows)} windows: "
            f"min {min(factors):.3f}, median {statistics.median(factors):.3f}, max {max(factors):.3f}",
            f"raw: latency_p50_ms {statistics.median(raw) * 1e3:.6g}, throughput_rps {count / sum(raw):.6g}",
        ],
    }


def trace_run(client: Any, block: list[workloads.Request], passes: int, tracer: spans.Tracer,
              cold_pipeline_us: list[float], tally: Tally, in_process: bool) -> dict[str, Any]:
    """``passes`` untraced and as many traced passes over one block, in pairs."""
    walls = {False: 0.0, True: 0.0}
    traced_requests: dict[str, str] = {}
    exit_nonzero = 0
    for pass_index in range(passes):
        for traced in (False, True):
            client.set_traced(tracer, traced)
            for i, req in enumerate(block):
                request_id = f"p{pass_index}.{i}"
                tracer.request = request_id
                wall, _, result = client.execute(req)
                walls[traced] += wall
                tally.add(req, client.verify(req, result))
                if not traced:
                    continue
                traced_requests[request_id] = f"p{pass_index}"
                exit_nonzero += result[0] != 0
                if not in_process and client.trace_file.exists():  # absent if the child was killed
                    first_us = tracer.absorb(client.trace_file, request_id)
                    client.trace_file.unlink()
                    if "qed.pipeline_coefficients" in first_us:
                        cold_pipeline_us.append(first_us["qed.pipeline_coefficients"])
        client.set_traced(tracer, False)
    metrics = spans.layer_metrics(tracer, traced_requests, walls[True], passes, cold_pipeline_us, exit_nonzero)
    metrics["trace.overhead_ratio"] = walls[True] / walls[False]
    metrics.update(spans.import_probe(ROOT))
    return {"metrics": metrics, "notes": [f"{passes} untraced and {passes} traced passes of {len(block)} requests"]}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(CLIENTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    stream = workloads.blocks(args.workload, args.seed)
    tally = Tally()
    tracer = spans.Tracer()
    cold_pipeline_us: list[float] = []
    in_process = args.workload != "cli-cold"
    client = CLIENTS[args.workload]()
    if args.trace:
        OUT.mkdir(exist_ok=True)
        if in_process:  # trace the warm-up too: it holds each cache's cold first call
            tracer.request = "warmup"
            client.set_traced(tracer, True)
    warm_block = next(stream)  # cli-cold warms with its demo, the one request that is the same at every seed
    warm_up(client, warm_block if in_process else [r for r in warm_block if r.kind == "demo"], tally)
    setup_s = time.perf_counter() - _STARTED
    client.set_traced(tracer, False)
    if in_process and "qed.pipeline_coefficients" in tracer.first_us:
        cold_pipeline_us.append(tracer.first_us["qed.pipeline_coefficients"])
    warmup_failed = tally.failed
    tally.attempted = tally.failed = 0  # the timed requests; wrong and kinds keep the warm-up's

    blocks = max(1, round(args.seconds / BLOCK_SECONDS[args.workload]))
    if args.setup_only:
        report: dict[str, Any] = {"metrics": {}, "notes": []}
    elif args.trace:
        passes = max(1, round(blocks / TRACED_PAIR_BLOCKS))
        report = trace_run(client, next(stream), passes, tracer, cold_pipeline_us, tally, in_process)
        path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(path)
        report["notes"].append(f"spans written to {path.relative_to(ROOT)}")
    else:
        report = timed_run(client, stream, blocks, tally)
    report.update(setup_s=setup_s, warmup_failed=warmup_failed, wrong=tally.wrong, attempted=tally.attempted,
                  failed=tally.failed, failures=list(tally.kinds.values()))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
