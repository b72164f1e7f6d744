"""``repro serve`` with the ledger's span wrappers installed.

Usage: ``python -m benchmarks.ledger.traced_server SPANS_FILE [serve args]``.
Installs the wrappers of ``trace.py``, then runs the same code path as
``python -m repro serve`` (its argument parser, server construction and
SIGTERM drain), and writes the spans to ``SPANS_FILE`` once the server
has drained and stopped.
"""

import sys
from pathlib import Path

from benchmarks.ledger.trace import Tracer


def main(argv: list[str]) -> int:
    spans_file, *serve_args = argv
    tracer = Tracer()
    tracer.install()
    from repro.cli import main as repro_main

    try:
        return repro_main(["serve", *serve_args])
    finally:
        tracer.dump(Path(spans_file))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
