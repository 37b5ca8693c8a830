"""Acceptance gate: every row of ``loopreg.checks.CHECKS`` passes in its time bound.

The rows are the lines ``loopreg demo`` prints.  Run with
``pytest -v tests/test_acceptance.py`` to see one line per check.
"""

import re
import time

import pytest

from loopreg import checks, cli


@pytest.mark.parametrize("check", checks.CHECKS, ids=[re.sub(r"\W+", "-", c.name).strip("-") for c in checks.CHECKS])
def test_check(check):
    start = time.perf_counter()
    ok, detail = check.run()
    elapsed = time.perf_counter() - start
    assert ok, detail
    if check.seconds is not None:
        assert elapsed < check.seconds


def test_criterion_10_demo(capsys):
    start = time.perf_counter()
    code = cli.run(["demo"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert "ALL CHECKS PASSED" in out
    assert elapsed < 30.0
