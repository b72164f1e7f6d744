"""Entry point: ``python -m benchmarks.ledger`` or ``python3 benchmarks/ledger``.

Run as a directory, the interpreter puts this directory first on
``sys.path`` (where ``trace.py`` would shadow the standard library's
``trace``); it is replaced by the repository root and ``src``.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"ledger: no program to measure: {ROOT / 'src' / 'repro'} is missing")
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != HERE]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

if __name__ == "__main__":
    from benchmarks.ledger.cli import main

    sys.exit(main())
