"""Multiprocess sharded execution: routing, merging, chaos, reopen.

One sharded engine (2 worker processes) and one single-process
reference engine are loaded with identical data; every query class is
asserted bit-exact across the two.  Chaos and persistence tests spawn
their own fleets.
"""

import time

import numpy as np
import pytest

import repro
from repro.db.shard.tables import ShardedTable
from repro.db.vector import VectorBatch
from repro.errors import PlanError, ShardCrashError, ShardError
from repro.nn.layers import Dense
from repro.nn.model import Sequential

# reopens persistent databases: runs again under `python -X dev` with
# ResourceWarnings as errors
pytestmark = pytest.mark.leak_guard

ROWS = 1200


def _load(db):
    db.execute(
        "CREATE TABLE events (k INTEGER, g INTEGER, v DOUBLE) "
        "PARTITION BY (k)"
    )
    db.execute("CREATE TABLE dims (g INTEGER, w DOUBLE)")
    rng = np.random.default_rng(42)
    table = db.table("events")
    table.append_batch(
        VectorBatch.from_dict(
            table.schema,
            {
                "k": rng.integers(0, 40, ROWS).astype(np.int64),
                "g": rng.integers(0, 7, ROWS).astype(np.int64),
                # multiples of 1/8: float folds exact in any order
                "v": (
                    rng.integers(-400, 400, ROWS).astype(np.float64) / 8.0
                ),
            },
        )
    )
    dims = db.table("dims")
    dims.append_batch(
        VectorBatch.from_dict(
            dims.schema,
            {
                "g": np.arange(7, dtype=np.int64),
                "w": np.arange(7, dtype=np.float64) / 4.0,
            },
        )
    )
    return db


@pytest.fixture(scope="module")
def fleet():
    sharded = _load(repro.connect(shards=2))
    reference = _load(repro.connect())
    yield sharded, reference
    sharded.close()
    reference.close()


def both(fleet, sql):
    sharded, reference = fleet
    left = sharded.execute(sql)
    right = reference.execute(sql)
    assert tuple(left.schema.names) == tuple(right.schema.names)
    return left.rows, right.rows


class TestBitExactQueries:
    def test_scan_filter_projection(self, fleet):
        got, want = both(
            fleet,
            "SELECT k, v FROM events WHERE v > 10 ORDER BY k, v",
        )
        assert got == want

    def test_disjoint_groupby_is_bit_exact(self, fleet):
        # GROUP BY includes the partition key: shard results are final
        got, want = both(
            fleet,
            "SELECT k, SUM(v) AS s, AVG(v) AS a FROM events "
            "GROUP BY k ORDER BY k",
        )
        assert got == want

    def test_decomposed_groupby(self, fleet):
        # groups span shards: partial decomposition + coordinator merge
        got, want = both(
            fleet,
            "SELECT g, SUM(v) AS s, COUNT(v) AS c, AVG(v) AS a, "
            "MIN(v) AS lo, MAX(v) AS hi FROM events GROUP BY g "
            "ORDER BY g",
        )
        assert got == want

    def test_having_after_merge(self, fleet):
        got, want = both(
            fleet,
            "SELECT g, SUM(v) AS s FROM events GROUP BY g "
            "HAVING COUNT(v) > 100 ORDER BY g",
        )
        assert got == want

    def test_distinct_order_limit(self, fleet):
        got, want = both(
            fleet,
            "SELECT DISTINCT g FROM events ORDER BY g LIMIT 4",
        )
        assert got == want

    def test_join_with_replicated_dimension(self, fleet):
        got, want = both(
            fleet,
            "SELECT events.g, SUM(dims.w) AS t FROM events "
            "JOIN dims ON events.g = dims.g GROUP BY events.g "
            "ORDER BY g",
        )
        assert got == want

    def test_replica_cache_resyncs_after_update(self, fleet):
        sharded, reference = fleet
        sql = (
            "SELECT events.g, COUNT(dims.w) AS c FROM events "
            "JOIN dims ON events.g = dims.g GROUP BY events.g "
            "ORDER BY g LIMIT 1"
        )
        first = sharded.execute(sql).rows
        assert first == reference.execute(sql).rows
        for db in (sharded, reference):
            db.execute("INSERT INTO dims VALUES (99, 0.5)")
        # version bump must invalidate the shipped replica copies
        assert sharded.execute(sql).rows == reference.execute(sql).rows


class TestModelJoin:
    def test_modeljoin_broadcast_is_bit_exact(self):
        from repro.core.registry import publish_model

        model = Sequential(
            [Dense(5, "relu"), Dense(1, "sigmoid")],
            input_width=3,
            seed=7,
        )
        results = []
        for shards in (2, 0):
            db = repro.connect(shards=shards)
            db.execute(
                "CREATE TABLE feats (id INTEGER, x1 FLOAT, x2 FLOAT, "
                "x3 FLOAT) PARTITION BY (id)"
            )
            rng = np.random.default_rng(3)
            table = db.table("feats")
            table.append_batch(
                VectorBatch.from_dict(
                    table.schema,
                    {
                        "id": np.arange(300, dtype=np.int64),
                        "x1": rng.random(300, dtype=np.float32),
                        "x2": rng.random(300, dtype=np.float32),
                        "x3": rng.random(300, dtype=np.float32),
                    },
                )
            )
            publish_model(db, "clf", model)
            results.append(
                db.execute(
                    "SELECT id, prediction_0 FROM feats MODEL JOIN clf "
                    "ORDER BY id"
                ).rows
            )
            db.close()
        assert results[0] == results[1]

    def test_direct_runners_refuse_sharded_fact_table(self, fleet):
        # they used to scan the coordinator's empty stub: 0 rows, no error
        from repro.core.modeljoin.runner import NativeModelJoin
        from repro.core.registry import publish_model
        from repro.core.runtime_api.runner import RuntimeApiModelJoin

        sharded, _ = fleet
        model = Sequential([Dense(1, "sigmoid")], input_width=1, seed=2)
        publish_model(sharded, "runner_clf", model, replace=True)
        runners = [
            NativeModelJoin(sharded, "runner_clf"),
            RuntimeApiModelJoin(sharded, model),
        ]
        for runner in runners:
            with pytest.raises(ShardError, match="MODEL JOIN"):
                runner.execute("events", ["v"])
            row = sharded.query_log.entries()[-1]
            assert (row["sql"], row["error_class"]) == (
                runner.label,
                "ShardError",
            )


class TestTopologyAndObservability:
    def test_default_is_single_process(self):
        db = repro.connect()
        assert db.sharding is None
        assert db.metrics.gauge("shard.count").value == 0
        db.close()

    def test_invalid_shard_configuration(self):
        with pytest.raises(ValueError):
            repro.connect(shards=-1)
        with pytest.raises(ValueError):
            repro.connect(shards=2, shard_workers=0)

    def test_topology_gauges_and_prometheus(self, fleet):
        sharded, _ = fleet
        assert sharded.metrics.gauge("shard.count").value == 2
        assert sharded.metrics.gauge("worker.pool_size").value == 1
        text = sharded.export_metrics_text()
        assert "repro_shard_count 2" in text
        assert "repro_worker_pool_size 1" in text

    def test_system_shards(self, fleet):
        sharded, _ = fleet
        rows = sharded.execute(
            "SELECT shard_id, alive, rows, rows_read FROM system.shards "
            "ORDER BY shard_id"
        ).rows
        assert [row[0] for row in rows] == [0, 1]
        assert all(row[1] for row in rows)
        assert sum(row[2] for row in rows) >= ROWS
        assert all(row[3] > 0 for row in rows)

    def test_per_shard_counters_in_profile(self, fleet):
        sharded, _ = fleet
        sharded.execute("SELECT k, v FROM events WHERE v > 0")
        counters = sharded.last_profile.counters.snapshot()
        assert counters.get("scan.rows_read.shard-0", 0) > 0
        assert counters.get("scan.rows_read.shard-1", 0) > 0

    def test_explain_shows_fragment_tree(self, fleet):
        sharded, _ = fleet
        text = sharded.explain(
            "SELECT g, SUM(v) AS s FROM events GROUP BY g"
        )
        assert "GatherExchange" in text
        assert "Fragment" in text
        assert "MergeAggregate" in text

    def test_explain_analyze_of_sharded_table_raises(self, fleet):
        # it used to time the coordinator's empty stub table
        sharded, _ = fleet
        with pytest.raises(PlanError, match="sharded"):
            sharded.explain_analyze("SELECT k, v FROM events WHERE v > 10")

    def test_coordinator_scan_of_sharded_table_raises(self, fleet):
        sharded, _ = fleet
        table = sharded.table("events")
        assert isinstance(table, ShardedTable)
        with pytest.raises(ShardError):
            list(table.scan())

    def test_system_tables_cannot_mix_with_sharded(self, fleet):
        sharded, _ = fleet
        with pytest.raises(ShardError):
            sharded.execute(
                "SELECT events.k FROM events "
                "JOIN system.tables s ON events.k = s.version"
            )


class TestChaosAndLifecycle:
    def test_killed_shard_raises_typed_error_not_hang(self):
        db = repro.connect(shards=2)
        db.execute(
            "CREATE TABLE t (k INTEGER, v DOUBLE) PARTITION BY (k)"
        )
        db.execute("INSERT INTO t VALUES (1, 1.0), (2, 2.0), (3, 3.0)")
        db.sharding.kill_shard(1)
        started = time.perf_counter()
        with pytest.raises(ShardCrashError):
            db.execute("SELECT k, SUM(v) AS s FROM t GROUP BY k")
        assert time.perf_counter() - started < 10.0
        # degraded but responsive: fails fast, not differently
        with pytest.raises(ShardCrashError):
            db.execute("SELECT k, v FROM t")
        # a dead shard still renders (alive=false) in system.shards
        rows = db.execute(
            "SELECT shard_id, alive FROM system.shards ORDER BY shard_id"
        ).rows
        assert rows[1][1] is np.False_ or rows[1][1] == False  # noqa: E712
        started = time.perf_counter()
        db.close(drain_seconds=2.0)
        assert time.perf_counter() - started < 8.0

    def test_close_is_idempotent_and_bounded(self):
        db = repro.connect(shards=2)
        started = time.perf_counter()
        db.close(drain_seconds=2.0)
        db.close(drain_seconds=2.0)
        assert time.perf_counter() - started < 8.0
        for handle in db.sharding.handles:
            assert not handle.process.is_alive()

    def test_drop_table_broadcasts(self):
        db = repro.connect(shards=2)
        db.execute(
            "CREATE TABLE t (k INTEGER, v DOUBLE) PARTITION BY (k)"
        )
        db.execute("INSERT INTO t VALUES (1, 1.0)")
        db.execute("DROP TABLE t")
        db.execute(
            "CREATE TABLE t (k INTEGER, v DOUBLE) PARTITION BY (k)"
        )
        assert db.execute("SELECT k FROM t").row_count == 0
        db.close()

    def test_worker_error_propagates_with_taxonomy(self):
        db = repro.connect(shards=2)
        db.execute(
            "CREATE TABLE t (k INTEGER, v DOUBLE) PARTITION BY (k)"
        )
        db.execute("INSERT INTO t VALUES (1, 1.0)")
        from repro.errors import BindError

        with pytest.raises(BindError):
            db.execute("SELECT nope FROM t")
        # the fleet stays healthy after a worker-side error
        assert db.execute("SELECT k FROM t").row_count == 1
        db.close()


class TestPersistence:
    def test_reopen_restores_sharded_tables(self, tmp_path):
        path = str(tmp_path / "db")
        db = repro.connect(shards=2, path=path)
        db.execute(
            "CREATE TABLE t (k INTEGER, v DOUBLE) PARTITION BY (k)"
        )
        db.execute(
            "INSERT INTO t VALUES (1, 1.0), (2, 2.0), (3, 3.0), (4, 4.0)"
        )
        before = db.execute("SELECT k, v FROM t ORDER BY k").rows
        db.close()

        db = repro.connect(shards=2, path=path)
        assert isinstance(db.table("t"), ShardedTable)
        assert db.execute("SELECT k, v FROM t ORDER BY k").rows == before
        # appends keep routing after reopen
        db.execute("INSERT INTO t VALUES (5, 5.0)")
        assert db.execute("SELECT k FROM t").row_count == 5
        db.close()

    def test_reopen_with_wrong_shard_count_raises(self, tmp_path):
        from repro.errors import CatalogError

        path = str(tmp_path / "db")
        db = repro.connect(shards=2, path=path)
        db.execute(
            "CREATE TABLE t (k INTEGER, v DOUBLE) PARTITION BY (k)"
        )
        db.close()
        with pytest.raises(CatalogError):
            repro.connect(shards=3, path=path)
