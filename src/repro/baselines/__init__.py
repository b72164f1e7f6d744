"""The paper's MySQL CSV engine baseline, kept as the test oracle.

:class:`~repro.baselines.csv_engine.CSVEngine` — SQL over the flat file
with zero caching (section 3.2), implemented as a thin veneer over the
``external`` loading policy so the comparison runs through exactly the
same substrate code.  The differential suites state the engine's
correctness invariant against it.
"""

from repro.baselines.csv_engine import CSVEngine

__all__ = ["CSVEngine"]
