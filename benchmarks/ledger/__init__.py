"""The performance ledger: five named workloads, one command.

See ``README.md`` in this directory.  Run from the repository root::

    PYTHONPATH=src python -m benchmarks.ledger --help
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
