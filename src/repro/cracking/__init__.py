"""Database cracking — the adaptive index of the engine's warm path.

The paper's Figure 1 includes an "Index DB" series: MonetDB with database
cracking [Idreos, Kersten, Manegold, CIDR 2007], where each range predicate
physically reorganizes the column as a side effect of query processing so
that later overlapping queries touch ever-smaller pieces.  The engine
builds a :class:`CrackerColumn` per hot numeric predicate column and
answers warm range selections from it (``EngineConfig.cracking`` /
``crack_after``).  File cracking (section 4.1.5) is explicitly framed as
the same mentality applied to flat files.
"""

from repro.cracking.cracker import CrackerColumn

__all__ = ["CrackerColumn"]
