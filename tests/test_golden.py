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
``- any <argv>`` and run the update.  Lines that start with ``#`` are
comments (the reason an argv is there); the update keeps them where they are.
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
#: the versions whose argparse prints the messages the ``argparse`` group was hashed from
ARGPARSE_VERSIONS = ((3, 10), (3, 11), (3, 12))


def _entry(line: str) -> tuple[str, str, list[str]] | None:
    """(hash, group, argv) of a corpus line; None for a comment or a blank line."""
    if not line.strip() or line.startswith("#"):
        return None
    digest, group, *rest = line.split(" ", 2)
    return digest, group, shlex.split(rest[0]) if rest else []


def _read(path: Path = OUTPUTS) -> list[tuple[str, str, list[str]]]:
    return [entry for entry in map(_entry, path.read_text().splitlines()) if entry]


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


def _update(path: Path = OUTPUTS) -> None:
    lines = []
    with _fixed_setting():
        for line in path.read_text().splitlines():
            entry = _entry(line)
            if entry:
                outcome = _outcome(entry[2])
                line = f"{_digest(outcome)} {_group(outcome)} {shlex.join(entry[2])}".rstrip()
            lines.append(line + "\n")
    path.write_text("".join(lines))


def test_update_keeps_comment_lines(tmp_path):
    corpus = tmp_path / "outputs.txt"
    corpus.write_text(
        "# hash group argv\n"
        "- any mu1 --m 1\n"
        "# why the next argv is here\n"
        "\n"
        "000000000000 any regularize --n 3 --msq 2\n"
        "# a comment last\n"
    )
    _update(corpus)
    lines = corpus.read_text().splitlines()
    assert [lines[i] for i in (0, 2, 3, 5)] == ["# hash group argv", "# why the next argv is here", "", "# a comment last"]
    with _fixed_setting():
        expected = [(_digest(_outcome(argv)), "any", argv) for argv in (["mu1", "--m", "1"], ["regularize", "--n", "3", "--msq", "2"])]
    assert _read(corpus) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --update")
    if sys.version_info[:2] not in ARGPARSE_VERSIONS:
        sys.exit("update on Python 3.10-3.12: the argparse group is hashed from their messages")
    _update()
