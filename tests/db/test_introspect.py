"""The SQL-queryable system catalog (docs/OBSERVABILITY.md).

Covers: name resolution and read-only guards, the query log (success,
error, fault, slow and fallback rows; the top-5-slowest ranking),
joins of ``system.*`` tables against user tables (bit-exact vs the
providers' Python-side state), live progress through
``system.active_queries`` from a second thread, query-log persistence
across a crash-kill restart, query ids that stay unique and monotonic
while another query's row is being flushed, and the Prometheus round
trip.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

import repro
from repro.db import faults
from repro.db.engine import Database
from repro.db.faults import FaultInjector, InjectedFaultError
from repro.db.introspect import (
    metrics_to_prometheus,
    parse_prometheus_text,
)
from repro.db.introspect.log import LOG_FILE_NAME, QueryLog
from repro.errors import BindError, CatalogError

# runs again under `python -X dev` with ResourceWarnings as errors
pytestmark = pytest.mark.leak_guard


def _fill(db: Database, rows: int = 64) -> None:
    db.execute("CREATE TABLE t (a INTEGER, b DOUBLE)")
    db.execute(
        "INSERT INTO t VALUES "
        + ", ".join(f"({i}, {i * 0.5})" for i in range(rows))
    )


class TestResolution:
    def test_system_tables_resolve_through_the_planner(self, db):
        _fill(db)
        result = db.execute("SELECT name FROM system.tables")
        assert result.rows == [("t",)]

    def test_explain_over_a_system_scan(self, db):
        plan = db.explain("SELECT * FROM system.queries")
        assert "TableScan(system.queries)" in plan

    def test_unknown_system_table(self, db):
        with pytest.raises(CatalogError, match="system.nope"):
            db.execute("SELECT * FROM system.nope")

    def test_alias_binds_the_last_component(self, db):
        _fill(db)
        result = db.execute(
            "SELECT columns.column_name FROM system.columns "
            "WHERE columns.table_name = 't' ORDER BY column_name"
        )
        assert result.rows == [("a",), ("b",)]

    def test_read_only_guards(self, db):
        for sql in (
            "INSERT INTO system.queries VALUES (1)",
            "CREATE TABLE system.extra (a INTEGER)",
            "DROP TABLE system.queries",
        ):
            with pytest.raises(CatalogError, match="read-only"):
                db.execute(sql)

    def test_every_documented_table_answers(self, db):
        _fill(db)
        for name in db.introspection.table_names():
            result = db.execute(f"SELECT * FROM {name}")
            assert result.schema.names  # resolves with a real schema


class TestQueryLog:
    def test_success_row_with_resource_profile(self, db):
        _fill(db)
        db.execute("SELECT a FROM t WHERE a >= 0")
        result = db.execute(
            "SELECT sql, status, rows_returned, rows_read, bytes_read, "
            "blocks_scanned FROM system.queries "
            "WHERE sql = 'SELECT a FROM t WHERE a >= 0'"
        )
        (row,) = result.rows
        assert row[1] == "ok"
        assert row[2] == 64  # rows returned
        assert row[3] == 64  # rows read
        assert row[4] > 0  # bytes read
        assert row[5] >= 1  # blocks scanned

    def test_top_5_slowest_ranking(self, db):
        _fill(db)
        for limit in (1, 2, 3):
            db.execute(f"SELECT a FROM t LIMIT {limit}")
        # Bit-exact expectation from the log's state as the ranking
        # query will see it (the ranking query itself is only logged
        # after it finishes, so it cannot appear in its own snapshot).
        expected = sorted(
            (entry["latency_seconds"] for entry in db.query_log.entries()),
            reverse=True,
        )[:5]
        result = db.execute(
            "SELECT sql, latency_seconds FROM system.queries "
            "ORDER BY latency_seconds DESC LIMIT 5"
        )
        assert 1 <= result.row_count <= 5
        latencies = [row[1] for row in result.rows]
        assert latencies == sorted(latencies, reverse=True)
        assert latencies == expected

    def test_error_row_carries_the_taxonomy_class(self, db):
        _fill(db)
        with pytest.raises(BindError):
            db.execute("SELECT missing_column FROM t")
        result = db.execute(
            "SELECT status, error_class FROM system.queries "
            "WHERE status = 'error'"
        )
        assert ("error", "BindError") in result.rows

    def test_injected_fault_still_lands_a_row(self):
        db = repro.connect(parallelism=4, task_retries=0)
        db.execute(
            "CREATE TABLE p (k INTEGER, v DOUBLE) "
            "PARTITION BY (k) PARTITIONS 4"
        )
        db.execute(
            "INSERT INTO p VALUES "
            + ", ".join(f"({i}, {i * 1.0})" for i in range(400))
        )
        injector = FaultInjector(seed=3).raise_with_probability(
            "worker.morsel", 1.0
        )
        with faults.active(injector):
            with pytest.raises(InjectedFaultError):
                db.execute("SELECT k, v FROM p WHERE k >= 0", parallel=True)
        result = db.execute(
            "SELECT error_class, parallel FROM system.queries "
            "WHERE status = 'error'"
        )
        assert ("InjectedFaultError", True) in result.rows
        db.close()

    def test_slow_marking_and_counter(self):
        db = repro.connect(slow_query_seconds=0.0)
        _fill(db)
        db.execute("SELECT a FROM t LIMIT 1")
        result = db.execute(
            "SELECT slow FROM system.queries WHERE slow = TRUE"
        )
        assert result.row_count >= 1
        assert db.metrics.counter("query.slow").value >= 1
        db.close()

    def test_collection_off_leaves_no_rows(self):
        db = repro.connect(collect_query_log=False)
        _fill(db)
        db.execute("SELECT a FROM t LIMIT 1")
        assert len(db.query_log) == 0
        assert db.execute("SELECT * FROM system.queries").row_count == 0
        db.close()

    def test_ring_buffer_capacity(self):
        db = Database(query_log_capacity=4)
        _fill(db)
        for limit in range(1, 9):
            db.execute(f"SELECT a FROM t LIMIT {limit}")
        assert len(db.query_log) == 4
        ids = [entry["query_id"] for entry in db.query_log.entries()]
        assert ids == sorted(ids)

    def test_morsel_and_retry_accounting(self):
        db = repro.connect(parallelism=4, task_retries=2)
        db.execute(
            "CREATE TABLE p (k INTEGER, v DOUBLE) "
            "PARTITION BY (k) PARTITIONS 4"
        )
        db.execute(
            "INSERT INTO p VALUES "
            + ", ".join(f"({i}, {i * 1.0})" for i in range(400))
        )
        injector = FaultInjector(seed=5).raise_with_probability(
            "worker.morsel", 0.2
        )
        with faults.active(injector):
            db.execute("SELECT k, v FROM p WHERE k >= 0", parallel=True)
        result = db.execute(
            "SELECT morsels, retries FROM system.queries "
            "WHERE parallel = TRUE AND status = 'ok'"
        )
        (row,) = result.rows
        assert row[0] >= 4  # every pipeline pulled morsels
        assert row[1] >= 1  # the injected crashes forced retries
        db.close()


class TestJoinsAgainstUserTables:
    def test_system_columns_join_bit_exact(self, db):
        _fill(db)
        db.execute("CREATE TABLE notes (column_name VARCHAR, note VARCHAR)")
        db.execute(
            "INSERT INTO notes VALUES ('a', 'key'), ('b', 'value')"
        )
        result = db.execute(
            "SELECT c.column_name, n.note FROM system.columns c "
            "JOIN notes n ON c.column_name = n.column_name "
            "WHERE c.table_name = 't' ORDER BY column_name"
        )
        expected = [
            (column.name, note)
            for column, note in zip(
                db.table("t").schema, ("key", "value")
            )
        ]
        assert result.rows == expected

    def test_storage_blocks_join_on_persistent_db(self, tmp_path):
        root = str(tmp_path / "store")
        db = repro.connect(path=root)
        _fill(db, rows=256)
        db.close()
        db = repro.connect(path=root)
        db.execute("CREATE TABLE labels (codec VARCHAR, label VARCHAR)")
        db.execute(
            "INSERT INTO labels VALUES ('sequence', 'delta-friendly'), "
            "('raw', 'uncompressed')"
        )
        result = db.execute(
            "SELECT b.column_name, b.codec, l.label "
            "FROM system.storage_blocks b "
            "JOIN labels l ON b.codec = l.codec "
            "WHERE b.table_name = 't' ORDER BY column_name"
        )
        # Bit-exact vs the partition's own footer metadata.
        expected = sorted(
            (
                entry["column"],
                entry["codec"],
                "delta-friendly"
                if entry["codec"] == "sequence"
                else "uncompressed",
            )
            for partition in db.table("t").partitions
            for entry in partition.disk_block_metadata()
            if entry["codec"] in ("sequence", "raw")
        )
        assert sorted(result.rows) == expected
        assert result.rows  # the join actually matched disk codecs
        db.close()

    def test_zone_maps_in_storage_blocks(self, tmp_path):
        db = repro.connect(path=str(tmp_path / "zm"))
        _fill(db, rows=100)
        db.close()
        db = repro.connect(path=str(tmp_path / "zm"))
        result = db.execute(
            "SELECT min_value, max_value FROM system.storage_blocks "
            "WHERE column_name = 'a'"
        )
        assert result.rows == [(0.0, 99.0)]
        db.close()


class TestActiveQueries:
    def test_query_observes_itself(self, db):
        result = db.execute(
            "SELECT sql, morsels_completed FROM system.active_queries"
        )
        (row,) = result.rows
        assert "system.active_queries" in row[0]

    def test_progress_visible_from_a_second_thread(self):
        db = repro.connect(parallelism=2)
        db.execute(
            "CREATE TABLE p (k INTEGER, v DOUBLE) "
            "PARTITION BY (k) PARTITIONS 2"
        )
        db.execute(
            "INSERT INTO p VALUES "
            + ", ".join(f"({i}, {i * 1.0})" for i in range(600))
        )
        observed: list[tuple] = []

        def watch() -> None:
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                rows = [
                    profile
                    for profile in db.active_queries.snapshot()
                    if "FROM p" in profile.sql
                ]
                if rows:
                    profile = rows[0]
                    observed.append(
                        (
                            profile.sql,
                            profile.elapsed_seconds,
                            profile.morsels_completed(),
                            profile.morsels_total,
                        )
                    )
                    return
                time.sleep(0.001)

        watcher = threading.Thread(target=watch)
        injector = FaultInjector(seed=1).delay_ms("worker.morsel", 20.0)
        with faults.active(injector):
            watcher.start()
            db.execute("SELECT k, v FROM p WHERE k >= 0", parallel=True)
            watcher.join()
        assert observed, "watcher never saw the running query"
        sql, elapsed, _completed, _total = observed[0]
        assert "FROM p" in sql
        assert elapsed >= 0.0
        # The query is gone from the registry once finished.
        assert all(
            "FROM p" not in profile.sql
            for profile in db.active_queries.snapshot()
        )
        db.close()


class TestPersistence:
    def test_log_survives_crash_kill_restart(self, tmp_path):
        root = str(tmp_path / "crash")
        db = repro.connect(path=root)
        _fill(db)
        db.execute("SELECT a FROM t WHERE a < 5")
        db.checkpoint()
        # Crash-kill: no close(); the JSONL file is flushed per query.
        crashed = db
        db = repro.connect(path=root)
        result = db.execute(
            "SELECT query_id, sql, status FROM system.queries "
            "WHERE sql = 'SELECT a FROM t WHERE a < 5'"
        )
        assert result.row_count == 1
        assert result.rows[0][2] == "ok"
        # Fresh queries continue the persisted id sequence.
        restored_max = max(
            entry["query_id"] for entry in db.query_log.entries()
        )
        db.execute("SELECT a FROM t LIMIT 1")
        new_max = max(
            entry["query_id"] for entry in db.query_log.entries()
        )
        assert new_max > restored_max
        db.close()
        crashed.close()  # release what the killed process held open

    def test_torn_tail_line_is_skipped(self, tmp_path):
        root = str(tmp_path / "torn")
        db = repro.connect(path=root)
        _fill(db)
        db.execute("SELECT a FROM t LIMIT 1")
        db.close()
        log_path = tmp_path / "torn" / LOG_FILE_NAME
        with open(log_path, "a") as handle:
            handle.write('{"query_id": 99, "sql": "torn')  # no newline
        db = repro.connect(path=root)
        entries = db.query_log.entries()
        assert entries  # intact rows restored
        assert all(entry["sql"] != "torn" for entry in entries)
        db.close()

    def test_reopen_compacts_the_log_file(self, tmp_path):
        root = str(tmp_path / "compact")
        capacity = 8
        log_path = tmp_path / "compact" / LOG_FILE_NAME
        db = repro.connect(path=root, query_log_capacity=capacity)
        _fill(db)
        last_id = -1
        for _ in range(3):
            for _ in range(capacity):
                db.execute("SELECT a FROM t LIMIT 1")
            ids = [entry["query_id"] for entry in db.query_log.entries()]
            assert ids[0] > last_id and ids == sorted(ids)
            last_id = ids[-1]
            db.close()
            db = repro.connect(path=root, query_log_capacity=capacity)
            with open(log_path) as handle:
                lines = [json.loads(line) for line in handle if line.strip()]
            assert len(lines) <= capacity
            assert lines[-1]["query_id"] == last_id
        db.execute("SELECT a FROM t LIMIT 1")
        assert db.query_log.entries()[-1]["query_id"] == last_id + 1
        db.close()

    def test_log_file_is_append_only_jsonl(self, tmp_path):
        root = str(tmp_path / "jsonl")
        db = repro.connect(path=root)
        _fill(db)
        db.execute("SELECT a FROM t LIMIT 2")
        db.close()
        with open(tmp_path / "jsonl" / LOG_FILE_NAME) as handle:
            lines = [line for line in handle if line.strip()]
        parsed = [json.loads(line) for line in lines]
        assert any(
            entry["sql"] == "SELECT a FROM t LIMIT 2" for entry in parsed
        )


class _BlockingHandle:
    """A log file whose flush waits until released (a slow disk)."""

    def __init__(self, handle):
        self._handle = handle
        self.flushing = threading.Event()
        self.release = threading.Event()

    def write(self, text):
        self._handle.write(text)

    def flush(self):
        self.flushing.set()
        self.release.wait(5.0)
        self._handle.flush()

    def close(self):
        self._handle.close()


class TestQueryIds:
    THREADS = 8
    IDS_PER_THREAD = 200

    def test_unique_and_monotonic_while_record_flushes(self, tmp_path):
        path = tmp_path / LOG_FILE_NAME
        log = QueryLog(capacity=16, path=path)
        allocated = [[] for _ in range(self.THREADS)]
        stop = threading.Event()

        def allocate(ids):
            for _ in range(self.IDS_PER_THREAD):
                query_id = log.allocate_query_id()
                ids.append(query_id)
                log.record({"query_id": query_id, "sql": "x"})

        def record():
            while not stop.is_set():
                log.record({"query_id": -1, "sql": "flush"})

        recorder = threading.Thread(target=record)
        recorder.start()
        workers = [
            threading.Thread(target=allocate, args=(ids,))
            for ids in allocated
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        stop.set()
        recorder.join()
        flat = [query_id for ids in allocated for query_id in ids]
        total = self.THREADS * self.IDS_PER_THREAD
        assert sorted(flat) == list(range(total))
        assert all(ids == sorted(ids) for ids in allocated)
        log.close()
        # reopen continues above every id the file holds
        reopened = QueryLog(capacity=16, path=path)
        assert reopened.allocate_query_id() == total
        reopened.close()

    def test_allocation_does_not_wait_for_a_flush(self, tmp_path):
        log = QueryLog(capacity=4, path=tmp_path / LOG_FILE_NAME)
        slow = _BlockingHandle(log._handle)
        log._handle = slow
        writer = threading.Thread(
            target=log.record, args=({"query_id": 0, "sql": "x"},)
        )
        writer.start()
        try:
            assert slow.flushing.wait(5.0)
            allocated = []
            starter = threading.Thread(
                target=lambda: allocated.append(log.allocate_query_id())
            )
            starter.start()
            starter.join(2.0)
            # the id came back while record() was still flushing
            assert allocated == [0]
            assert writer.is_alive()
        finally:
            slow.release.set()
            writer.join()
            log.close()


class TestPrometheus:
    def test_round_trip(self, db):
        _fill(db)
        db.execute("SELECT a FROM t LIMIT 1")
        text = db.export_metrics_text()
        parsed = parse_prometheus_text(text)
        assert "repro_query_count" in parsed
        assert parsed["repro_query_count"]["type"] == "counter"
        latency = parsed["repro_query_latency"]
        assert latency["type"] == "summary"
        assert latency["count"] >= 1
        # Round trip: re-rendering the engine snapshot is stable.
        assert metrics_to_prometheus(db.metrics.snapshot()) is not None

    def test_values_match_the_registry(self, db):
        _fill(db)
        db.execute("SELECT a FROM t LIMIT 1")
        parsed = parse_prometheus_text(db.export_metrics_text())
        assert (
            parsed["repro_query_count"]["value"]
            == db.metrics.counter("query.count").value
        )


class TestFallbackFlag:
    def test_compiled_flag_set_for_fused_queries(self, db):
        _fill(db)
        db.execute("SELECT a, b FROM t WHERE a > 3")
        result = db.execute(
            "SELECT compiled FROM system.queries "
            "WHERE sql = 'SELECT a, b FROM t WHERE a > 3'"
        )
        assert result.rows == [(True,)]
