"""Partition-parallel execution: parallel == serial for the query
shapes the ModelJoin workloads use."""

import numpy as np
import pytest

from repro.db.engine import Database


@pytest.fixture
def pdb() -> Database:
    db = Database(parallelism=4)
    db.execute(
        "CREATE TABLE fact (id INTEGER, a FLOAT, b FLOAT) "
        "PARTITION BY (id) PARTITIONS 4 SORTED BY (id)"
    )
    n = 5000
    ids = np.arange(n, dtype=np.int64)
    db.table("fact").append_columns(
        id=ids,
        a=(ids % 7).astype(np.float32),
        b=(ids % 13).astype(np.float32),
    )
    db.execute("CREATE TABLE dim (k INTEGER, w FLOAT)")
    db.execute(
        "INSERT INTO dim VALUES (0, 1.0), (1, 2.0), (2, 3.0), "
        "(3, 4.0), (4, 5.0), (5, 6.0), (6, 7.0)"
    )
    return db


def rows_sorted(result):
    return sorted(result.rows)


class TestParallelEqualsSerial:
    def test_scan_filter_project(self, pdb):
        sql = "SELECT id, a * b AS ab FROM fact WHERE a > 3"
        assert rows_sorted(pdb.execute(sql)) == rows_sorted(
            pdb.execute(sql, parallel=True)
        )

    def test_join_with_broadcast_dim(self, pdb):
        sql = (
            "SELECT fact.id, dim.w FROM fact, dim "
            "WHERE fact.a = dim.k AND fact.id < 1000"
        )
        assert rows_sorted(pdb.execute(sql)) == rows_sorted(
            pdb.execute(sql, parallel=True)
        )

    def test_aggregation_grouped_by_partition_key(self, pdb):
        sql = "SELECT id, SUM(a + b) AS s FROM fact GROUP BY id"
        assert rows_sorted(pdb.execute(sql)) == rows_sorted(
            pdb.execute(sql, parallel=True)
        )

    def test_order_by_is_global(self, pdb):
        sql = "SELECT id FROM fact WHERE a = 1 ORDER BY id DESC LIMIT 5"
        serial = pdb.execute(sql).rows
        parallel = pdb.execute(sql, parallel=True).rows
        assert serial == parallel
        assert parallel == sorted(parallel, reverse=True)

    def test_limit_applied_after_merge(self, pdb):
        sql = "SELECT id FROM fact ORDER BY id LIMIT 7"
        assert pdb.execute(sql, parallel=True).rows == [
            (i,) for i in range(7)
        ]

    def test_distinct_matches_serial(self, pdb):
        sql = "SELECT DISTINCT a FROM fact"
        assert rows_sorted(pdb.execute(sql)) == rows_sorted(
            pdb.execute(sql, parallel=True)
        )

    def test_parallel_flag_noop_when_parallelism_one(self):
        db = Database(parallelism=1)
        db.execute("CREATE TABLE t (a INTEGER)")
        db.execute("INSERT INTO t VALUES (1)")
        assert db.execute("SELECT a FROM t", parallel=True).rows == [(1,)]

    def test_grouped_by_sorted_key_streams_with_zero_buffering(self, pdb):
        # Group keys covered by the partition sort key use the ordered
        # aggregate, which holds no buffered input (paper Section 4.4).
        pdb.execute(
            "SELECT id, SUM(a) AS s FROM fact GROUP BY id",
            parallel=True,
        )
        assert pdb.last_profile.peak_memory_bytes == 0

    def test_join_build_accounted_across_pipelines(self, pdb):
        pdb.execute(
            "SELECT fact.id, dim.w FROM fact, dim WHERE fact.a = dim.k",
            parallel=True,
        )
        assert pdb.last_profile.peak_memory_bytes > 0
