"""Host speed, from fixed work that shares no code with loopreg.

Co-tenants of a shared host slow a CPU for seconds to minutes at a time.  On
a 2-CPU VM the median report-warm request took 1.4 ms in quiet stretches and
2.6 ms in busy ones, within two minutes, and cli-cold requests 1.0 s and 1.45 s.
The benchmark times a reference beside the requests and reports their times
divided by the reference's slowdown over its quiet time: the times the
requests would take on the host at its quiet speed.

- ``slowdown`` times a few hundred microseconds of interpreter work in this
  thread, for in-process requests: across one-second windows the ratio of
  request to reference time varied by 5%, the raw request time by 25%.
- ``process_slowdown`` times a fresh interpreter importing standard modules,
  for requests that are processes of their own; a reference in the parent
  did not track them.  The ratio of a cold CLI request to it moved 8% from a
  quiet to a busy stretch, where the raw time moved 40%.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction

#: Reference times on an uncontended CPU of the 2-CPU VM on which the bounds were set.
QUIET_S = 3.5e-4
PROCESS_QUIET_S = 0.2

_ARGV = [token for k in range(8) for token in (f"--x{k}", str(k * 1.25))]
_IMPORTS = (
    "import argparse, asyncio, concurrent.futures, csv, decimal, difflib, email.mime.multipart, fractions, "
    "http.client, json, logging, pydoc, sqlite3, statistics, tarfile, unittest, xml.dom.minidom, zipfile"
)


def _work() -> None:
    parser = argparse.ArgumentParser(prog="reference")
    for k in range(8):
        parser.add_argument(f"--x{k}", type=float)
    values = vars(parser.parse_args(_ARGV))
    values["sum"] = float(sum((Fraction(1, k) for k in range(1, 40)), Fraction(0)))
    json.dumps({k: format(v, ".12g") for k, v in values.items()}, indent=2)


def slowdown() -> float:
    """Median of three timings of the reference work in this thread, over QUIET_S."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _work()
        times.append(time.perf_counter() - start)
    return statistics.median(times) / QUIET_S


def process_slowdown() -> float:
    """Wall time of an isolated interpreter importing _IMPORTS, over PROCESS_QUIET_S."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-c", _IMPORTS], capture_output=True, check=True, timeout=60)
    return (time.perf_counter() - start) / PROCESS_QUIET_S
