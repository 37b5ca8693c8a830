"""Byte identity of the CLI over a committed argv corpus.

``golden/outputs.txt`` holds one line per argv: a short hash of its
``(exit code, stdout, stderr)``, its group, and the argv itself, shell-quoted.
The test replays every argv through ``cli.run`` in this process, from
``tests/golden`` (so the relative ``--config`` paths find the fixture files
there), with ``COLUMNS=80`` and ``LOOPREG_PRECISION`` unset.  On a mismatch
it names each argv whose hash changed and prints its new output.

The ``argparse`` group holds the argv whose output comes from argparse (help,
usage errors); its messages differ between Python versions (3.13 words them
differently), so that group is checked on 3.10-3.12 only.

After an intended output change, rewrite the hashes in process with

    PYTHONPATH=src python tests/test_golden.py --update

and list the argv whose lines changed.  To add an argv, append a line
``- any <argv>`` and run the update.
"""

import contextlib
import hashlib
import io
import os
import shlex
import sys
from pathlib import Path

from loopreg import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
OUTPUTS = GOLDEN / "outputs.txt"
HEADER = "# hash group argv: run in tests/golden at COLUMNS=80; see tests/test_golden.py\n"
#: the versions whose argparse prints the messages the ``argparse`` group was hashed from
ARGPARSE_VERSIONS = ((3, 10), (3, 11), (3, 12))


def _read() -> list[tuple[str, str, list[str]]]:
    entries = []
    for line in OUTPUTS.read_text().splitlines():
        if line and not line.startswith("#"):
            digest, group, *rest = line.split(" ", 2)
            entries.append((digest, group, shlex.split(rest[0]) if rest else []))
    return entries


def _outcome(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def _digest(outcome: tuple[int, str, str]) -> str:
    return hashlib.sha256(repr(outcome).encode()).hexdigest()[:12]


def _group(outcome: tuple[int, str, str]) -> str:
    return "argparse" if "usage: loopreg" in outcome[1] + outcome[2] else "any"


@contextlib.contextmanager
def _fixed_setting():
    """cwd tests/golden, COLUMNS=80 and no LOOPREG_PRECISION, restored afterwards."""
    cwd, env = os.getcwd(), dict(os.environ)
    os.chdir(GOLDEN)
    os.environ["COLUMNS"] = "80"
    os.environ.pop(cli.PRECISION_ENV_VAR, None)
    try:
        yield
    finally:
        os.chdir(cwd)
        os.environ.clear()
        os.environ.update(env)


def test_outputs_match_the_golden_hashes():
    entries = _read()
    groups = {"any"} | ({"argparse"} if sys.version_info[:2] in ARGPARSE_VERSIONS else set())
    changed = []
    with _fixed_setting():
        for digest, group, argv in entries:
            if group in groups:
                outcome = _outcome(argv)
                if _digest(outcome) != digest:
                    changed.append(f"{shlex.join(argv)}\n  exit {outcome[0]}\n  stdout {outcome[1]!r}\n  stderr {outcome[2]!r}")
    assert not changed, f"{len(changed)} of {len(entries)} argv changed their output:\n" + "\n".join(changed)


def _update() -> None:
    lines = [HEADER]
    with _fixed_setting():
        for _, _, argv in _read():
            outcome = _outcome(argv)
            lines.append(f"{_digest(outcome)} {_group(outcome)} {shlex.join(argv)}".rstrip() + "\n")
    OUTPUTS.write_text("".join(lines))


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --update")
    if sys.version_info[:2] not in ARGPARSE_VERSIONS:
        sys.exit("update on Python 3.10-3.12: the argparse group is hashed from their messages")
    _update()
