"""Child process of a traced cli-cold request: installs the tracer, then runs the CLI.

    python perfbench/shim.py TRACE_JSON ARGV...

Equivalent to ``python -m loopreg.cli ARGV...`` with the layer wrappers of
``spans.Tracer`` in place; the spans, counts and first-call times go to
TRACE_JSON for the parent to absorb.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import loopreg.cli  # noqa: E402
from spans import Tracer  # noqa: E402


def main() -> int:
    trace_path, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return loopreg.cli.run(argv)
    finally:
        tracer.uninstall()
        tracer.save(trace_path)


if __name__ == "__main__":
    sys.exit(main())
