"""Catalog, profiler, and Result-object behaviour."""

import threading

import numpy as np
import pytest

from repro.db.catalog import Catalog, LayerMetadata, ModelMetadata
from repro.db.engine import Database, Result
from repro.db.profiler import MemoryAccountant, QueryProfile, Stopwatch
from repro.db.schema import Schema
from repro.db.table import Table
from repro.db.types import SqlType
from repro.errors import CatalogError, ExecutionError


def table(name="t"):
    return Table(name, Schema.of(("a", SqlType.INTEGER)))


class TestCatalog:
    def test_create_and_lookup_case_insensitive(self):
        catalog = Catalog()
        catalog.create_table(table("MyTable"))
        assert catalog.has_table("mytable")
        assert catalog.table("MYTABLE").name == "MyTable"

    def test_duplicate_rejected_unless_replace(self):
        catalog = Catalog()
        catalog.create_table(table())
        with pytest.raises(CatalogError):
            catalog.create_table(table())
        catalog.create_table(table(), replace=True)

    def test_drop_missing(self):
        catalog = Catalog()
        with pytest.raises(CatalogError):
            catalog.drop_table("ghost")
        catalog.drop_table("ghost", if_exists=True)

    def test_model_requires_backing_table(self):
        catalog = Catalog()
        metadata = ModelMetadata(
            "m", "missing", 2, (LayerMetadata("dense", 1, "linear"),)
        )
        with pytest.raises(CatalogError, match="does not exist"):
            catalog.register_model(metadata)

    def test_model_registration_and_cascade(self):
        catalog = Catalog()
        catalog.create_table(table("weights"))
        metadata = ModelMetadata(
            "m", "weights", 2, (LayerMetadata("dense", 3, "relu"),)
        )
        catalog.register_model(metadata)
        assert catalog.model("M").output_width == 3
        catalog.drop_table("weights")
        assert not catalog.has_model("m")

    def test_duplicate_model_rejected(self):
        catalog = Catalog()
        catalog.create_table(table("weights"))
        metadata = ModelMetadata(
            "m", "weights", 2, (LayerMetadata("dense", 1, "linear"),)
        )
        catalog.register_model(metadata)
        with pytest.raises(CatalogError):
            catalog.register_model(metadata)
        catalog.register_model(metadata, replace=True)

    def test_layer_metadata_validation(self):
        with pytest.raises(CatalogError):
            LayerMetadata("conv", 3, "relu")
        with pytest.raises(CatalogError):
            LayerMetadata("dense", 0, "relu")


class TestMemoryAccountant:
    def test_peak_tracking(self):
        accountant = MemoryAccountant()
        accountant.allocate(100, "a")
        accountant.allocate(50, "b")
        accountant.release(100, "a")
        accountant.allocate(20, "b")
        assert accountant.peak_bytes == 150
        assert accountant.current_bytes == 70
        assert accountant.by_category == {"a": 0, "b": 70}

    def test_negative_rejected(self):
        accountant = MemoryAccountant()
        with pytest.raises(ValueError):
            accountant.allocate(-1)
        with pytest.raises(ValueError):
            accountant.release(-1)

    def test_reset(self):
        accountant = MemoryAccountant()
        accountant.allocate(10)
        accountant.reset()
        assert accountant.peak_bytes == 0
        assert accountant.by_category == {}

    def test_thread_safety(self):
        accountant = MemoryAccountant()

        def worker():
            for _ in range(1000):
                accountant.allocate(1)
                accountant.release(1)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert accountant.current_bytes == 0


class TestStopwatch:
    def test_measure_accumulates(self):
        stopwatch = Stopwatch()
        with stopwatch.measure("phase"):
            sum(range(1000))
        with stopwatch.measure("phase"):
            sum(range(1000))
        assert list(stopwatch.phases) == ["phase"]
        assert stopwatch.phases["phase"] > 0

    def test_profile_peak_property(self):
        profile = QueryProfile()
        profile.memory.allocate(42)
        assert profile.peak_memory_bytes == 42


class TestResult:
    @pytest.fixture
    def result(self, db: Database) -> Result:
        db.execute("CREATE TABLE t (a INTEGER, b VARCHAR)")
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
        return db.execute("SELECT a, b FROM t ORDER BY a")

    def test_rows_cached(self, result):
        assert result.rows is result.rows

    def test_row_count(self, result):
        assert result.row_count == 2

    def test_column_concat(self, result):
        assert result.column("a").tolist() == [1, 2]

    def test_column_concat_cached(self, result):
        assert result.column("a") is result.column("a")

    def test_column_cache_is_per_column(self, result):
        a = result.column("a")
        b = result.column("b")
        assert a is not b
        assert result.column("b") is b

    def test_column_unknown_name_rejected(self, result):
        from repro.errors import BindError

        with pytest.raises(BindError):
            result.column("missing")

    def test_column_of_empty_result(self, db):
        db.execute("CREATE TABLE e (a INTEGER)")
        result = db.execute("SELECT a FROM e")
        assert result.column("a").dtype == np.int64
        assert len(result.column("a")) == 0

    def test_to_dict(self, result):
        data = result.to_dict()
        assert set(data) == {"a", "b"}

    def test_scalar_requires_1x1(self, result):
        with pytest.raises(ExecutionError):
            result.scalar()

    def test_empty_factory(self):
        empty = Result.empty()
        assert empty.row_count == 0
        assert empty.rows == []
