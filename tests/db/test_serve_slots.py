"""Tests for the two admission paths of the serving layer.

A blocking ``Session.execute`` that finds a slot free and nothing queued
runs its statement on the calling thread; everything else queues for a
dispatcher.  These tests pin down who runs a statement, that queued
statements leave in take-key order once slots free, that the inline path
is still admission (fault site, counters, log rows) and that shutdown
drains statements running on callers' threads.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.db import faults
from repro.db.engine import Database
from repro.db.serve import Server, WireClient, WireServer
from repro.db.udf import PythonUdf
from repro.errors import (
    QueryCancelledError,
    QueryRejectedError,
    QueryTimeoutError,
)

# runs again under `python -X dev` with ResourceWarnings as errors:
# served reads pin generations and hold sockets
pytestmark = pytest.mark.leak_guard

SELECT_ONE_GROUP = "FROM events WHERE grp = 0"


def make_database() -> Database:
    database = Database()
    database.execute(
        "CREATE TABLE events (id INTEGER, grp INTEGER, val DOUBLE)"
    )
    database.execute(
        "INSERT INTO events VALUES "
        + ", ".join(f"({i}, {i % 4}, {i * 0.5})" for i in range(40))
    )
    return database


def register_hold(database: Database, name: str, gate: threading.Event):
    """A UDF that blocks on *gate*, recording the thread it ran on."""
    threads: list[str] = []

    def hold(values):
        threads.append(threading.current_thread().name)
        gate.wait(10.0)
        return values

    database.register_udf(PythonUdf(name, 1, hold, marshal=False))
    return threads


def register_mark(database: Database):
    """A UDF that records the constant it is given and its thread."""
    marks: list[tuple[int, str]] = []

    def mark(values):
        marks.append((int(values[0]), threading.current_thread().name))
        return values

    database.register_udf(PythonUdf("mark", 1, mark, marshal=False))
    return marks


def wait_until(predicate, seconds: float = 10.0) -> None:
    deadline = time.perf_counter() + seconds
    while not predicate():
        assert time.perf_counter() < deadline, "condition never held"
        time.sleep(0.005)


def serve_threads() -> list[str]:
    return [
        thread.name
        for thread in threading.enumerate()
        if thread.name.startswith(("repro-serve-", "repro-wire-"))
    ]


class TestWhoRunsAStatement:
    def test_execute_with_a_free_slot_runs_on_the_caller(self):
        database = make_database()
        marks = register_mark(database)
        with Server(database, dispatchers=2) as server:
            with server.open_session() as session:
                session.execute(f"SELECT mark(val * 0 + 1) {SELECT_ONE_GROUP}")
                # submit() returns a future: it always queues
                session.submit(
                    f"SELECT mark(val * 0 + 2) {SELECT_ONE_GROUP}"
                ).wait(10.0)
        assert marks[0] == (1, threading.current_thread().name)
        assert marks[1][0] == 2
        assert marks[1][1].startswith("repro-serve-")
        assert serve_threads() == []
        database.close()

    def test_wire_query_runs_on_its_connection_thread(self):
        database = make_database()
        marks = register_mark(database)
        with Server(database, dispatchers=2) as server:
            with WireServer(server) as wire:
                with WireClient(wire.host, wire.port) as client:
                    response = client.query(
                        f"SELECT mark(val * 0 + 3) {SELECT_ONE_GROUP}"
                    )
                    assert response["row_count"] == 10
        assert marks == [(3, "repro-wire-conn")]
        assert serve_threads() == []
        database.close()


class TestQueuedStatements:
    def test_full_slots_queue_and_drain_in_take_key_order(self):
        database = make_database()
        gate_busy, gate_other = threading.Event(), threading.Event()
        held_busy = register_hold(database, "hold_busy", gate_busy)
        held_other = register_hold(database, "hold_other", gate_other)
        marks = register_mark(database)
        outcomes: dict[str, object] = {}
        server = Server(database, queue_capacity=8, dispatchers=2)

        def run(name, session, sql):
            try:
                outcomes[name] = session.execute(sql).row_count
            except Exception as error:  # noqa: BLE001
                outcomes[name] = error

        busy = server.open_session(tenant="busy", priority=9)
        other = server.open_session(tenant="other")
        idle = server.open_session(tenant="idle", priority=1)
        threads = [
            threading.Thread(
                target=run,
                args=(
                    "busy_holder",
                    server.open_session(tenant="busy"),
                    f"SELECT hold_busy(val) {SELECT_ONE_GROUP}",
                ),
            ),
            threading.Thread(
                target=run,
                args=(
                    "other_holder",
                    other,
                    f"SELECT hold_other(val) {SELECT_ONE_GROUP}",
                ),
            ),
        ]
        for thread in threads:
            thread.start()
        wait_until(lambda: len(held_busy) == 1 and len(held_other) == 1)
        assert server.queue.running == 2
        # both holders run on their own callers' threads
        assert held_busy[0] == threads[0].name
        assert held_other[0] == threads[1].name
        # every slot is held: these queue, the busy tenant's first
        for name, session, tag in (("busy_9", busy, 9), ("idle_1", idle, 1)):
            thread = threading.Thread(
                target=run,
                args=(
                    name,
                    session,
                    f"SELECT mark(val * 0 + {tag}) {SELECT_ONE_GROUP}",
                ),
            )
            thread.start()
            threads.append(thread)
            wait_until(lambda tag=tag: len(server.queue) == (
                1 if tag == 9 else 2
            ))
        queued = database.execute(
            "SELECT tenant, priority FROM system.admission_queue"
        ).rows
        assert sorted(queued) == [("busy", 9), ("idle", 1)]
        assert marks == []
        # one slot frees while the busy tenant still holds the other:
        # the idle tenant goes first despite its lower priority
        gate_other.set()
        wait_until(lambda: len(marks) == 2)
        assert [tag for tag, _ in marks] == [1, 9]
        assert all(name.startswith("repro-serve-") for _, name in marks)
        gate_busy.set()
        for thread in threads:
            thread.join(10.0)
        assert outcomes == {
            "busy_holder": 10,
            "other_holder": 10,
            "busy_9": 10,
            "idle_1": 10,
        }
        assert database.execute(
            "SELECT tenant FROM system.admission_queue"
        ).row_count == 0
        server.close()
        assert serve_threads() == []
        database.close()


class TestInlinePathIsAdmission:
    def test_admit_fault_rejects_with_a_log_row(self):
        database = make_database()
        injector = faults.FaultInjector().raise_once("serve.admit")
        with Server(database, dispatchers=2) as server:
            with server.open_session(tenant="acme") as session:
                with faults.active(injector):
                    with pytest.raises(QueryRejectedError, match="fault"):
                        session.execute(
                            f"SELECT id {SELECT_ONE_GROUP}"
                        )
                # the next statement is admitted and runs
                assert session.execute(
                    f"SELECT id {SELECT_ONE_GROUP}"
                ).row_count == 10
                assert session.stats()["rejected"] == 1
        assert injector.statistics()["serve.admit"]["raised"] == 1
        rejected = [
            entry
            for entry in database.query_log.entries()
            if entry["status"] == "rejected"
        ]
        assert len(rejected) == 1
        assert rejected[0]["session_id"] == session.session_id
        assert rejected[0]["error_class"] == "QueryRejectedError"
        counters = database.metrics.snapshot()
        assert counters["server.queries_rejected"]["value"] == 1
        database.close()

    @pytest.mark.parametrize("path", ["inline", "queued"])
    def test_each_statement_counts_once(self, path):
        database = make_database()
        metrics = database.metrics

        def counts():
            snapshot = metrics.snapshot()
            return (
                snapshot.get("server.queries_submitted", {}).get("value", 0),
                snapshot.get("server.tenant.t.submitted", {}).get(
                    "value", 0
                ),
                snapshot.get("server.queries_admitted", {}).get("value", 0),
                snapshot.get("server.queue_wait", {}).get("count", 0),
            )

        with Server(database, dispatchers=2) as server:
            with server.open_session(tenant="t") as session:
                for turn in range(3):
                    sql = f"SELECT id FROM events WHERE grp = {turn}"
                    if path == "inline":
                        session.execute(sql)
                    else:
                        session.submit(sql).wait(10.0)
                    assert counts() == (turn + 1,) * 4
            if path == "inline":
                # nothing waited in the queue
                assert metrics.histogram("server.queue_wait").total == 0.0
            assert metrics.gauge("server.queries_active").value == 0
            assert server.stats()["queries_active"] == 0
            assert server.queue.running == 0
        database.close()


class TestClosingWithInlineStatements:
    def test_close_drains_a_statement_blocked_on_its_caller(self):
        database = make_database()
        gate = threading.Event()
        held = register_hold(database, "hold_inline", gate)
        server = Server(database, dispatchers=2)
        session = server.open_session()
        outcome: list[BaseException] = []

        def client():
            try:
                session.execute(f"SELECT hold_inline(val) {SELECT_ONE_GROUP}")
            except Exception as error:  # noqa: BLE001
                outcome.append(error)

        thread = threading.Thread(target=client, name="inline-client")
        thread.start()
        wait_until(lambda: held == ["inline-client"])
        started = time.perf_counter()
        server.close(drain_seconds=0.3)
        # the drain bound holds, and the dispatchers are gone
        assert time.perf_counter() - started < 3.0
        assert serve_threads() == []
        gate.set()
        thread.join(10.0)
        assert not thread.is_alive()
        assert len(outcome) == 1
        assert isinstance(
            outcome[0], (QueryCancelledError, QueryTimeoutError)
        )
        statuses = {
            entry["status"] for entry in database.query_log.entries()
        }
        assert statuses & {"cancelled", "timeout"}
        assert server.queue.running == 0
        database.close()

    def test_close_waits_for_an_inline_statement_that_finishes(self):
        database = make_database()
        gate = threading.Event()
        held = register_hold(database, "hold_brief", gate)
        server = Server(database, dispatchers=1)
        session = server.open_session()
        outcome: list[BaseException] = []

        def client():
            try:
                session.execute(f"SELECT hold_brief(val) {SELECT_ONE_GROUP}")
            except Exception as error:  # noqa: BLE001
                outcome.append(error)

        thread = threading.Thread(target=client)
        thread.start()
        wait_until(lambda: len(held) == 1)
        timer = threading.Timer(0.1, gate.set)
        timer.start()
        # close waits (within its bound) for the slot to come back
        server.close(drain_seconds=5.0)
        assert server.queue.running == 0
        timer.join()
        thread.join(10.0)
        assert [type(error) for error in outcome] == [QueryCancelledError]
        database.close()
