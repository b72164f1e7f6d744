"""Column-store substrate: the "MonetDB" under the adaptive loader.

Loaded data lives here as NumPy-backed columns.  The subpackage provides
partially-loaded columns with a table of contents of what is materialized,
tables, the catalog of attached flat files, and the memory-budget manager
with LRU eviction.
"""

from repro.storage.catalog import Catalog, TableEntry
from repro.storage.memory import MemoryManager
from repro.storage.partial import CoverageCertificate, PartialColumn
from repro.storage.table import Table

__all__ = [
    "Catalog",
    "CoverageCertificate",
    "MemoryManager",
    "PartialColumn",
    "Table",
    "TableEntry",
]
