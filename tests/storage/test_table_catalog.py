"""Tests for tables, the catalog, and invalidation bookkeeping."""

import time

import numpy as np
import pytest

from repro.core.engine import NoDBEngine
from repro.errors import CatalogError
from repro.flatfile.schema import ColumnSchema, DataType, TableSchema
from repro.storage.catalog import Catalog
from repro.storage.table import Table


def make_schema():
    return TableSchema(
        [ColumnSchema("a1", DataType.INT64), ColumnSchema("a2", DataType.INT64)]
    )


class TestTable:
    def test_lazy_column_creation(self):
        t = Table("r", make_schema(), nrows=10)
        assert not t.columns
        pc = t.column("A1")
        assert pc.name == "a1"
        assert pc.nrows == 10
        assert t.column("a1") is pc  # cached

    def test_loaded_column_listing(self):
        t = Table("r", make_schema(), nrows=4)
        t.column("a1").store_full(np.arange(4))
        t.column("a2").store(np.array([0]), np.array([5]))
        assert t.loaded_columns() == ["a1", "a2"]
        assert t.fully_loaded_columns() == ["a1"]

    def test_logical_bytes_sum(self):
        t = Table("r", make_schema(), nrows=4)
        assert t.logical_nbytes == 0
        t.column("a1").store_full(np.arange(4))
        assert t.logical_nbytes > 0

    def test_drop_all(self):
        t = Table("r", make_schema(), nrows=4)
        t.column("a1").store_full(np.arange(4))
        t.drop_all()
        assert not t.columns


class TestCatalog:
    def test_attach_and_get(self, small_csv):
        c = Catalog()
        c.attach("R", small_csv)
        assert "r" in c
        assert "R" in c
        assert c.get("r").name == "R"
        assert c.names() == ["R"]

    def test_double_attach_rejected(self, small_csv):
        c = Catalog()
        c.attach("r", small_csv)
        with pytest.raises(CatalogError, match="already attached"):
            c.attach("R", small_csv)

    def test_get_unknown(self):
        with pytest.raises(CatalogError, match="not attached"):
            Catalog().get("nope")

    def test_detach(self, small_csv):
        c = Catalog()
        c.attach("r", small_csv)
        c.detach("r")
        assert "r" not in c
        with pytest.raises(CatalogError):
            c.detach("r")

    def test_schema_inference_lazy(self, small_csv):
        c = Catalog()
        entry = c.attach("r", small_csv)
        assert entry.schema is None  # attach reads nothing
        schema = entry.ensure_schema()
        assert schema.names == ["a1", "a2", "a3", "a4"]
        assert all(col.dtype is DataType.INT64 for col in schema)

    def test_header_detection(self, mixed_csv):
        c = Catalog()
        entry = c.attach("m", mixed_csv)
        schema = entry.ensure_schema()
        assert entry.has_header
        assert schema.names == ["id", "price", "name", "qty"]
        assert schema.dtype_of("price") is DataType.FLOAT64
        assert schema.dtype_of("name") is DataType.STRING

    def test_ensure_table_row_count_conflict(self, small_csv):
        c = Catalog()
        entry = c.attach("r", small_csv)
        entry.ensure_table(500)
        with pytest.raises(CatalogError, match="row count changed"):
            entry.ensure_table(400)

    def test_staleness_detection(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1,2\n")
        c = Catalog()
        entry = c.attach("t", path)
        assert not entry.is_stale()  # nothing loaded yet
        entry.ensure_table(1)
        # The engine's lifecycle brands a table once its load ends.
        entry.loaded_fingerprint = entry.file.fingerprint()
        assert not entry.is_stale()
        time.sleep(0.01)
        path.write_text("3,4\n5,6\n")
        assert entry.is_stale()

    def test_invalidate_clears_everything(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1,2\n")
        c = Catalog()
        entry = c.attach("t", path)
        entry.ensure_schema()
        entry.ensure_table(1)
        entry.positional_map.record_nrows(1)
        entry.loaded_fingerprint = entry.file.fingerprint()
        NoDBEngine().lifecycle.invalidate(entry)
        assert entry.table is None
        assert entry.schema is None
        assert entry.positional_map.nrows is None
        assert not entry.is_stale()
