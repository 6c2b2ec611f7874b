"""Tests for the concurrent serving layer (repro.db.serve).

Covers the admission queue's deterministic shedding and fair dispatch,
session lifecycle (close cancels in-flight queries), close-under-load,
snapshot isolation with generation pinning/GC, the wire protocol, the
serving system tables and metrics, and a chaos variant driven through
the ``REPRO_FAULTS`` spec grammar.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.db import faults
from repro.db.engine import Database
from repro.db.introspect import parse_prometheus_text
from repro.db.operators import QueryContext
from repro.db.resilience import CancellationToken
from repro.db.serve import (
    AdmissionQueue,
    AdmittedQuery,
    Server,
    WireClient,
    WireServer,
)
from repro.db.sql.parser import parse_statement
from repro.db.udf import PythonUdf
from repro.errors import (
    CatalogError,
    QueryCancelledError,
    QueryRejectedError,
    QueryTimeoutError,
    SessionClosedError,
    SqlSyntaxError,
)

# runs again under `python -X dev` with ResourceWarnings as errors:
# served reads pin generations and hold sockets
pytestmark = pytest.mark.leak_guard

EVENT_ROWS = 120


def make_database(**kwargs) -> Database:
    database = Database(**kwargs)
    database.execute(
        "CREATE TABLE events (id INTEGER, grp INTEGER, val DOUBLE)"
    )
    database.execute(
        "INSERT INTO events VALUES "
        + ", ".join(
            f"({i}, {i % 4}, {i * 0.5})" for i in range(EVENT_ROWS)
        )
    )
    return database


def olap(group: int) -> str:
    return (
        "SELECT grp, COUNT(*), SUM(val) FROM events "
        f"WHERE grp = {group} GROUP BY grp"
    )


class _StubSession:
    """Just enough session surface for direct AdmissionQueue tests."""

    def __init__(self, tenant="default", priority=0, session_id="stub"):
        self.tenant = tenant
        self.priority = priority
        self.session_id = session_id

    def _query_done(self, entry):
        pass


def make_entry(priority=0, tenant="default", deadline=None):
    session = _StubSession(tenant=tenant, priority=priority)
    token = (
        CancellationToken.with_timeout(deadline)
        if deadline is not None
        else CancellationToken()
    )
    return AdmittedQuery("SELECT 1", session, token)


class TestAdmissionQueue:
    def test_shed_lowest_priority_first(self):
        queue = AdmissionQueue(capacity=2)
        low = make_entry(priority=1)
        high = make_entry(priority=9)
        assert queue.admit(low) == []
        assert queue.admit(high) == []
        shed = queue.admit(make_entry(priority=5))
        assert shed == [low]

    def test_shed_closest_deadline_among_equal_priority(self):
        queue = AdmissionQueue(capacity=2)
        relaxed = make_entry(priority=3, deadline=60.0)
        urgent = make_entry(priority=3, deadline=0.5)
        queue.admit(relaxed)
        queue.admit(urgent)
        shed = queue.admit(make_entry(priority=3, deadline=30.0))
        assert shed == [urgent]

    def test_new_entry_itself_shed_raises(self):
        queue = AdmissionQueue(capacity=1)
        queue.admit(make_entry(priority=9))
        with pytest.raises(QueryRejectedError, match="queue is full"):
            queue.admit(make_entry(priority=1))
        assert len(queue) == 1  # the incumbent survived

    def test_take_prefers_idle_tenant_then_priority(self):
        queue = AdmissionQueue(capacity=8)
        busy_high = make_entry(priority=9, tenant="busy")
        idle_low = make_entry(priority=1, tenant="idle")
        idle_high = make_entry(priority=5, tenant="idle")
        for entry in (busy_high, idle_low, idle_high):
            queue.admit(entry)
        # tenant fairness dominates raw priority...
        assert queue.take({"busy": 2}) is idle_high
        # ...and priority breaks ties within a tenant
        assert queue.take({"busy": 2}) is idle_low
        assert queue.take({"busy": 2}) is busy_high

    def test_close_returns_pending_and_rejects_admission(self):
        queue = AdmissionQueue(capacity=4)
        entry = make_entry()
        queue.admit(entry)
        assert queue.close() == [entry]
        with pytest.raises(QueryRejectedError, match="closed"):
            queue.admit(make_entry())
        assert queue.take({}) is None


class TestServing:
    def test_concurrent_sessions_bit_exact(self):
        database = make_database(parallelism=2)
        references = {
            group: database.execute(olap(group)).rows
            for group in range(4)
        }
        errors = []
        with Server(database, queue_capacity=32, dispatchers=3) as server:

            def client(index):
                with server.open_session(tenant=f"t{index % 2}") as s:
                    for turn in range(6):
                        group = (index + turn) % 4
                        rows = s.execute(olap(group)).rows
                        if rows != references[group]:
                            errors.append((index, group, rows))

            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert errors == []
        database.close()

    def test_overload_sheds_and_nothing_hangs(self):
        database = make_database()
        with Server(database, queue_capacity=2, dispatchers=1) as server:
            session = server.open_session(timeout_seconds=30.0)
            futures, rejected = [], 0
            for index in range(40):
                try:
                    futures.append(session.submit(olap(index % 4)))
                except QueryRejectedError:
                    rejected += 1
            completed = 0
            for future in futures:
                try:
                    future.wait(timeout=30.0)
                    completed += 1
                except QueryRejectedError:
                    rejected += 1
            assert completed + rejected == 40
            assert completed > 0
            assert rejected > 0
        database.close()

    def test_terminal_statuses_land_in_query_log(self):
        database = make_database()
        gate = threading.Event()

        def hold(values):
            gate.wait(10.0)
            return values

        database.register_udf(
            PythonUdf("hold_a", 1, hold, marshal=False)
        )
        server = Server(database, queue_capacity=2, dispatchers=1)
        blocker = server.open_session()
        low = server.open_session(priority=1)
        high = server.open_session(priority=5)
        running = blocker.submit(
            "SELECT id, hold_a(val) FROM events WHERE grp = 0"
        )
        time.sleep(0.1)  # let the dispatcher pick it up
        queued = high.submit(olap(1))
        expired = high.submit(olap(3), timeout_seconds=0.001)
        with pytest.raises(QueryRejectedError):
            low.submit(olap(2)).wait(5.0)  # lowest priority -> shed
        time.sleep(0.05)  # let the expiring entry's deadline pass
        gate.set()
        running.wait(10.0)
        queued.wait(10.0)
        with pytest.raises(QueryTimeoutError):
            expired.wait(10.0)
        statuses = {
            entry["status"] for entry in database.query_log.entries()
        }
        assert {"ok", "rejected", "timeout"} <= statuses
        rejected_rows = [
            entry
            for entry in database.query_log.entries()
            if entry["status"] == "rejected"
        ]
        assert rejected_rows[0]["error_class"] == "QueryRejectedError"
        assert rejected_rows[0]["session_id"] == low.session_id
        server.close()
        database.close()

    def test_session_close_cancels_in_flight(self):
        database = make_database()
        gate = threading.Event()

        def hold(values):
            gate.wait(10.0)
            return values

        database.register_udf(
            PythonUdf("hold_b", 1, hold, marshal=False)
        )
        with Server(database, queue_capacity=4, dispatchers=1) as server:
            session = server.open_session()
            future = session.submit(
                "SELECT id, hold_b(val) FROM events WHERE grp = 0"
            )
            time.sleep(0.1)
            session.close()
            gate.set()
            with pytest.raises(QueryCancelledError, match="session closed"):
                future.wait(10.0)
            with pytest.raises(SessionClosedError):
                session.execute(olap(0))
            log_statuses = [
                entry["status"]
                for entry in database.query_log.entries()
            ]
            assert "cancelled" in log_statuses
        database.close()

    def test_deadline_inheritance(self):
        database = make_database()
        with Server(
            database, default_timeout_seconds=12.0
        ) as server:
            session = server.open_session()
            future = session.submit(olap(0))
            remaining = future.token.remaining_seconds()
            assert remaining is not None and 0 < remaining <= 12.0
            future.wait(10.0)
            # per-query override beats the session default
            override = session.submit(olap(1), timeout_seconds=60.0)
            assert override.token.remaining_seconds() > 12.0
            override.wait(10.0)
        database.close()

    def test_database_close_under_load(self):
        """Regression: close() must drain, not assume an idle caller."""
        database = make_database()
        gate = threading.Event()

        def hold(values):
            gate.wait(10.0)
            return values

        database.register_udf(
            PythonUdf("hold_c", 1, hold, marshal=False)
        )
        server = Server(database, queue_capacity=8, dispatchers=2)
        session = server.open_session()
        future = session.submit(
            "SELECT id, hold_c(val) FROM events WHERE grp = 0"
        )
        time.sleep(0.1)
        closed = threading.Event()

        def closer():
            database.close(drain_seconds=0.5)
            closed.set()

        thread = threading.Thread(target=closer)
        thread.start()
        # close() cancels the in-flight token, the UDF is still blocked
        # on the gate, and the bounded drain lets close() return anyway.
        assert closed.wait(10.0), "close() hung on an in-flight query"
        gate.set()
        thread.join()
        with pytest.raises(
            (QueryCancelledError, QueryTimeoutError)
        ):
            future.wait(10.0)
        with pytest.raises((QueryRejectedError, SessionClosedError)):
            session.execute(olap(0))


class TestSnapshotIsolation:
    def test_pinned_generation_survives_until_unpinned(self, tmp_path):
        database = make_database(path=str(tmp_path))
        database.checkpoint()
        table_dir = tmp_path / "tables" / "events"
        first = {p.name for p in table_dir.iterdir()}
        snapshot = database.snapshot()
        database.execute("INSERT INTO events VALUES (900, 9, 1.0)")
        database.checkpoint()
        database.execute("INSERT INTO events VALUES (901, 9, 1.0)")
        database.checkpoint()
        survived = {p.name for p in table_dir.iterdir()}
        assert first <= survived, "pinned generation dir was deleted"
        assert database.storage.pinned_generations() == 1
        assert database.storage.retired_generations() >= 1
        # the snapshot still reads the pre-write state, bit-exact
        frozen = snapshot.catalog.tables["events"]
        assert frozen.row_count == EVENT_ROWS
        snapshot.release()
        after = {p.name for p in table_dir.iterdir()}
        assert first.isdisjoint(after), "stale generation not GC'd"
        assert database.storage.pinned_generations() == 0
        assert database.storage.retired_generations() == 0
        snapshot.release()  # idempotent
        database.close()

    def test_readers_bit_exact_while_writer_publishes(self, tmp_path):
        database = make_database(path=str(tmp_path), parallelism=2)
        database.checkpoint()
        references = {
            group: database.execute(olap(group)).rows
            for group in range(4)
        }
        errors = []
        stop = threading.Event()
        with Server(database, queue_capacity=64, dispatchers=3) as server:

            def reader(group):
                with server.open_session(tenant=f"r{group}") as s:
                    while not stop.is_set():
                        rows = s.execute(olap(group)).rows
                        if rows != references[group]:
                            errors.append((group, rows))
                            return

            threads = [
                threading.Thread(target=reader, args=(group,))
                for group in range(4)
            ]
            for thread in threads:
                thread.start()
            with server.open_session(tenant="writer") as writer:
                for sequence in range(6):
                    writer.execute(
                        "INSERT INTO events VALUES "
                        f"({1000 + sequence}, 999, 1.0)"
                    )
                    database.checkpoint()
            stop.set()
            for thread in threads:
                thread.join()
        assert errors == []
        assert database.storage.pinned_generations() == 0
        assert database.storage.retired_generations() == 0
        # exactly one live generation remains on disk
        generations = list((tmp_path / "tables" / "events").iterdir())
        assert len(generations) == 1
        database.close()

    def test_frozen_table_rejects_writes(self):
        database = make_database()
        snapshot = database.snapshot()
        frozen = snapshot.catalog.tables["events"]
        with pytest.raises(Exception, match="read-only snapshot"):
            frozen.append_rows([(1, 1, 1.0)])
        snapshot.release()
        database.close()

    def test_served_explain_plans_against_its_snapshot(self):
        # what Server._run_admitted does for a read, with the DROP
        # landing between snapshot capture and planning
        database = make_database()
        statement = parse_statement("EXPLAIN " + olap(1))
        with database.snapshot() as snapshot:
            database.execute("DROP TABLE events")
            result = database.execute_statement(
                statement,
                QueryContext(sql="EXPLAIN", catalog=snapshot.catalog),
            )
            assert "TableScan(events" in "\n".join(
                row[0] for row in result.rows
            )
        with pytest.raises(CatalogError):
            database.execute("EXPLAIN " + olap(1))
        database.close()

    def test_chaos_faults_including_serve_admit(self):
        """REPRO_FAULTS grammar drives the serving chaos variant."""
        injector = faults.parse_spec(
            "seed=7,serve.admit=prob:0.2,worker.task=prob:0.05"
        )
        database = make_database(parallelism=2)
        references = {
            group: database.execute(olap(group)).rows
            for group in range(4)
        }
        completed, rejected, failures = [], [], []
        with faults.active(injector):
            with Server(
                database, queue_capacity=32, dispatchers=2
            ) as server:

                def client(index):
                    with server.open_session(
                        timeout_seconds=30.0
                    ) as s:
                        for turn in range(8):
                            group = (index + turn) % 4
                            try:
                                rows = s.execute(olap(group)).rows
                            except QueryRejectedError:
                                rejected.append(group)
                                continue
                            except Exception as error:  # noqa: BLE001
                                failures.append(repr(error))
                                continue
                            if rows != references[group]:
                                failures.append(f"bleed grp {group}")
                            completed.append(group)

                threads = [
                    threading.Thread(target=client, args=(i,))
                    for i in range(4)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
        assert failures == []
        assert len(completed) + len(rejected) == 32
        assert completed, "every query was rejected"
        stats = injector.statistics()
        assert stats["serve.admit"]["visits"] >= 32
        database.close()


class TestSystemTablesAndMetrics:
    def test_sessions_and_admission_queue_tables(self):
        database = make_database()
        server = Server(database, queue_capacity=8, dispatchers=1)
        session = server.open_session(tenant="acme", priority=3)
        session.execute(olap(0))
        rows = database.execute(
            "SELECT session_id, tenant, priority, state, completed "
            "FROM system.sessions"
        ).rows
        assert (session.session_id, "acme", 3, "open", 1) in rows
        queue_result = database.execute(
            "SELECT position, sql, queued_seconds "
            "FROM system.admission_queue"
        )
        assert queue_result.row_count == 0  # drained
        server.close()
        rows = database.execute(
            "SELECT state FROM system.sessions"
        ).rows
        assert rows == [("closed",)]
        database.close()

    def test_active_queries_has_session_columns(self):
        database = make_database()
        with Server(database) as server:
            with server.open_session(tenant="acme") as session:
                # the observing query itself runs session-less through
                # the engine, but the schema must expose the columns
                result = database.execute(
                    "SELECT query_id, session_id, tenant "
                    "FROM system.active_queries"
                )
                assert result.schema.names[-2:] == (
                    "session_id",
                    "tenant",
                )
                # and a session-scoped row carries its identity
                rows = session.execute(
                    "SELECT session_id, tenant "
                    "FROM system.active_queries"
                ).rows
                assert (session.session_id, "acme") in rows
        database.close()

    def test_prometheus_round_trip_of_server_metrics(self):
        database = make_database()
        with Server(database, queue_capacity=1, dispatchers=1) as server:
            session = server.open_session(timeout_seconds=30.0)
            futures = []
            for index in range(20):
                try:
                    futures.append(session.submit(olap(index % 4)))
                except QueryRejectedError:
                    pass
            for future in futures:
                try:
                    future.wait(30.0)
                except QueryRejectedError:
                    pass
            text = database.export_metrics_text()
            parsed = parse_prometheus_text(text)
            assert "repro_server_queries_rejected" in parsed
            assert "repro_server_queue_depth" in parsed
            assert "repro_server_queries_admitted" in parsed
            rejected = parsed["repro_server_queries_rejected"]
            assert rejected["value"] >= 1.0
            assert rejected["type"] == "counter"
        database.close()


class TestWireProtocol:
    def test_round_trip(self):
        database = make_database()
        with Server(database) as server, WireServer(server) as wire:
            with WireClient(
                wire.host, wire.port, tenant="wire", priority=2
            ) as client:
                assert client.session_id
                response = client.query(olap(1), request_id=7)
                assert response["id"] == 7
                assert response["columns"] == ["grp", "col1", "col2"]
                assert response["rows"][0][0] == 1
                assert response["row_count"] == 1
                # values crossed the wire as plain JSON scalars
                assert all(
                    isinstance(value, (int, float))
                    for value in response["rows"][0]
                )
        database.close()

    def test_errors_reraise_typed(self):
        database = make_database()
        with Server(database) as server, WireServer(server) as wire:
            with WireClient(wire.host, wire.port) as client:
                with pytest.raises(SqlSyntaxError):
                    client.query("SELEC nonsense")
                # the connection survives a failed query
                assert client.query(olap(0))["row_count"] == 1
        database.close()

    def test_disconnect_closes_session(self):
        database = make_database()
        with Server(database) as server, WireServer(server) as wire:
            client = WireClient(wire.host, wire.port)
            client.query(olap(0))
            # abrupt disconnect: no close op, just tear the socket down
            import socket as _socket

            client._socket.shutdown(_socket.SHUT_RDWR)
            client._socket.close()
            deadline = time.time() + 5.0
            while time.time() < deadline:
                states = [
                    stats["state"]
                    for stats in server.sessions_snapshot()
                ]
                if states == ["closed"]:
                    break
                time.sleep(0.02)
            assert states == ["closed"]
        database.close()

    def test_close_joins_every_wire_thread(self):
        database = make_database()
        with Server(database) as server:
            wire = WireServer(server)
            client = WireClient(wire.host, wire.port)
            assert client.query(olap(0))["row_count"] == 1
            # close with the client still connected: the accept thread
            # is woken and the connection dropped, not left to daemons
            wire.close()
            assert not [
                thread.name
                for thread in threading.enumerate()
                if thread.name.startswith("repro-wire-")
            ]
            with pytest.raises(OSError):
                client.query(olap(0))
            client.close()
        database.close()
