"""Loaded tables: named collections of (possibly partial) columns.

A :class:`Table` is the adaptive-store image of one attached flat file.
It starts completely empty — attaching a file loads nothing — and fills in
column by column (or fragment by fragment) as queries demand data, which is
the paper's core inversion: *queries* drive loading, not a load utility.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.flatfile.schema import TableSchema
from repro.storage.partial import PartialColumn


@dataclass
class Table:
    """Adaptive-store state for one table."""

    name: str
    schema: TableSchema
    nrows: int
    columns: dict[str, PartialColumn] = field(default_factory=dict)

    def column(self, name: str) -> PartialColumn:
        """Get-or-create the partial column for ``name``."""
        key = name.lower()
        if key not in self.columns:
            col_schema = self.schema.column(name)
            self.columns[key] = PartialColumn(
                name=col_schema.name, dtype=col_schema.dtype, nrows=self.nrows
            )
        return self.columns[key]

    def loaded_columns(self) -> list[str]:
        return [c.name for c in self.columns.values() if c.loaded_count > 0]

    def fully_loaded_columns(self) -> list[str]:
        return [c.name for c in self.columns.values() if c.is_fully_loaded]

    @property
    def logical_nbytes(self) -> int:
        return sum(c.logical_nbytes for c in self.columns.values())

    def drop_all(self) -> None:
        """Forget all loaded data (file-edit invalidation, section 5.4)."""
        self.columns.clear()

    def grow(self, new_nrows: int, appended: dict[str, "object"]) -> dict[str, bool]:
        """Grow every column after a pure tail-append to the source file.

        ``appended`` maps lower-cased column names to the parsed values
        of the appended rows.  Returns, per column key, whether the
        column kept its loaded data (fully loaded and extended) or was
        dropped back to cold (see :meth:`PartialColumn.grow`).
        """
        kept = {
            key: pc.grow(new_nrows, appended.get(key))
            for key, pc in self.columns.items()
        }
        self.nrows = new_nrows
        return kept
