"""Lifecycle parity: every entry point leaves the same bookkeeping.

One statement, whatever the door it came in through — ``execute``
serial or partition-parallel, ``explain_analyze``, a serving
``Session``, the wire protocol, a sharded fleet, a direct inference
runner (``NativeModelJoin``, ``RuntimeApiModelJoin``) — and whatever its kind
(``SELECT``, ``CREATE MODEL``, ``ALTER MODEL``, ``INSERT ... SELECT``)
and outcome (ok, typed error, deadline miss, compile-fallback retry)
runs inside the engine's one query lifecycle, so it must leave exactly
one ``system.queries`` row carrying the caller's identity, an empty
active-query registry, ``query.count`` + 1, a fresh ``last_profile``
and no pinned storage generations.  Each in-query event is counted
once, on the statement's profile: the engine metrics registry gains
exactly the profile's counters (their per-worker and per-shard
breakdown keys aside), a compile fallback's discarded attempt included
in neither.
"""

from __future__ import annotations

import threading
import time
import re
from dataclasses import dataclass

import numpy as np
import pytest

import repro
from repro.core.modeljoin.runner import NativeModelJoin
from repro.core.registry import publish_model
from repro.core.runtime_api.runner import RuntimeApiModelJoin
from repro.db import faults
from repro.db.faults import FaultInjector
from repro.db.profiler import ProfileCounters, Stopwatch
from repro.db.serve import Server, WireClient, WireServer
from repro.db.udf import PythonUdf
from repro.errors import QueryCancelledError, QueryTimeoutError, ReproError
from repro.nn.layers import Dense
from repro.nn.model import Sequential
from repro.workloads.iris import load_iris_table
from repro.workloads.models import make_dense_model

# runs again under `python -X dev` with ResourceWarnings as errors
pytestmark = pytest.mark.leak_guard

ROWS = 96
SERVED_TIMEOUT = 0.5

#: a fused filter->project pipeline, so the ``compile.kernel`` fault has
#: a generated kernel to fail in
SELECT_OK = "SELECT id, val * 2.0 AS v FROM events WHERE val >= 1.0"
SELECT_ERROR = "SELECT nope FROM events"
#: outlives SERVED_TIMEOUT inside the engine, so a *served* query
#: misses its deadline while executing, not while it is still queued
SELECT_SLOW = "SELECT id, lifecycle_outlast(val) AS v FROM events"

CREATE_MODEL = (
    "CREATE MODEL fresh AS TRAIN DENSE(4 relu, 1 sigmoid) ON "
    "(SELECT {columns} FROM pts WHERE x1 > -100.0) "
    "WITH (epochs=2, batch_size=32, lr=0.05, seed=1, loss='bce')"
)
INSERT_SELECT = "INSERT INTO sink SELECT {columns} FROM events WHERE val >= 1.0"

#: statement kind -> sql; "slow" is the served timeout, the direct
#: timeout (deadline 0) and the compile-fallback run the "ok" text
STATEMENTS = {
    "select": {
        "ok": SELECT_OK,
        "error": SELECT_ERROR,
        "slow": SELECT_SLOW,
    },
    "create_model": {
        "ok": CREATE_MODEL.format(columns="x1, x2, label"),
        "error": CREATE_MODEL.format(columns="nope, label"),
        "slow": CREATE_MODEL.format(
            columns="x1, lifecycle_outlast(x2) AS x2, label"
        ),
    },
    "alter_model": {
        "ok": "ALTER MODEL clf SET VERSION 2",
        "error": "ALTER MODEL clf SET VERSION 9",
    },
    "insert_select": {
        "ok": INSERT_SELECT.format(columns="id, grp, val"),
        "error": INSERT_SELECT.format(columns="nope, grp, val"),
        "slow": INSERT_SELECT.format(
            columns="id, grp, lifecycle_outlast(val) AS val"
        ),
    },
    # a direct runner's input columns (it scores ``pts`` with ``clf``)
    "runner": {"ok": "x1, x2", "error": "x1, nope"},
}

#: a per-worker or per-shard key next to its aggregate counter
BREAKDOWN = re.compile(r"\.(worker|shard)-\d+$")

#: direct runner -> the statement text of its ``system.queries`` row
RUNNER_LABELS = {
    "native_runner": "<native-modeljoin clf>",
    "runtime_api_runner": "<runtime-api>",
}


@dataclass
class EntryPoint:
    """One way into the engine: what runs and who the caller is."""

    name: str
    kind: str = "select"
    served: bool = False
    #: variants with no meaning here (no deadline argument, no kernel)
    skips: tuple[str, ...] = ()


ENTRY_POINTS = [
    EntryPoint("execute"),
    EntryPoint("execute_parallel"),
    EntryPoint("explain_analyze", skips=("timeout",)),
    EntryPoint("explain_analyze_parallel", skips=("timeout",)),
    EntryPoint("session", served=True),
    EntryPoint("wire", served=True),
    # shard processes do not share the coordinator's fault injector
    EntryPoint("shards", skips=("fallback",)),
    EntryPoint("create_model", kind="create_model", served=True),
    # a catalog swap has neither a cancellation checkpoint nor a kernel
    EntryPoint(
        "alter_model",
        kind="alter_model",
        served=True,
        skips=("timeout", "fallback"),
    ),
    EntryPoint("insert_select", kind="insert_select", served=True),
    # no SQL is compiled: the runner lowers its operator itself
    EntryPoint("native_runner", kind="runner", skips=("fallback",)),
    EntryPoint("runtime_api_runner", kind="runner", skips=("fallback",)),
]
VARIANTS = ("ok", "error", "timeout", "fallback")


def _outlast(values):
    time.sleep(SERVED_TIMEOUT + 0.1)
    return values


def _load(database):
    database.execute(
        "CREATE TABLE events (id INTEGER, grp INTEGER, val DOUBLE) "
        "PARTITION BY (id) PARTITIONS 2"
    )
    database.table("events").append_rows(
        [(i, i % 4, i * 0.5) for i in range(ROWS)]
    )
    return database


@pytest.fixture(scope="module")
def fleet():
    database = _load(repro.connect(shards=2))
    yield database
    database.close()


@pytest.fixture
def engine(tmp_path):
    database = _load(repro.connect(parallelism=2, path=str(tmp_path / "db")))
    database.register_udf(
        PythonUdf("lifecycle_outlast", 1, _outlast, marshal=False)
    )
    database.execute("CREATE TABLE sink (id INTEGER, grp INTEGER, val DOUBLE)")
    database.execute("CREATE TABLE pts (x1 DOUBLE, x2 DOUBLE, label DOUBLE)")
    rng = np.random.default_rng(7)
    points = rng.normal(size=(ROWS, 2))
    database.table("pts").append_rows(
        [(a, b, float(a + b > 0)) for a, b in points.tolist()]
    )
    for mode in ("TRAIN", "RETRAIN"):  # clf v1 (current) and v2
        database.execute(
            f"CREATE MODEL clf AS {mode} DENSE(4 relu, 1 sigmoid) ON "
            "(SELECT x1, x2, label FROM pts) "
            "WITH (epochs=1, batch_size=32, seed=1, loss='bce')"
        )
    yield database
    database.close()


def _runner(name, database):
    if name == "native_runner":
        return NativeModelJoin(database, "clf")
    model = Sequential([Dense(1, "sigmoid")], input_width=2, seed=1)
    return RuntimeApiModelJoin(database, model)


def _registry_counters(database):
    return {
        name: rendered["value"]
        for name, rendered in database.metrics.snapshot().items()
        if rendered["type"] == "counter"
    }


def _registry_delta(before, after):
    """The counters that moved between two registry readings."""
    return {
        name: value - before.get(name, 0)
        for name, value in after.items()
        if value != before.get(name, 0)
    }


def _run(entry, sql, timeout, database, session, client):
    """Issue *sql* through *entry*."""
    if entry.kind == "runner":
        _runner(entry.name, database).execute(
            "pts", sql.split(", "), timeout_seconds=timeout
        )
    elif entry.name == "wire":
        client.query(sql, timeout_seconds=timeout)
    elif entry.served:
        session.execute(sql, timeout_seconds=timeout)
    elif entry.name.startswith("explain_analyze"):
        database.explain_analyze(sql, parallel=entry.name.endswith("parallel"))
    else:
        database.execute(
            sql,
            parallel=entry.name == "execute_parallel",
            timeout_seconds=timeout,
        )


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=lambda e: e.name)
def test_one_lifecycle(entry, variant, request):
    if variant in entry.skips:
        pytest.skip(f"{entry.name} has no {variant} variant")
    database = request.getfixturevalue(
        "fleet" if entry.name == "shards" else "engine"
    )
    server = Server(database, dispatchers=1) if entry.served else None
    session = wire = client = None
    session_id = tenant = ""
    if entry.name == "wire":
        wire = WireServer(server)
        client = WireClient(wire.host, wire.port, tenant="acme")
        session_id, tenant = client.session_id, "acme"
    elif entry.served:
        session = server.open_session(tenant="acme")
        session_id, tenant = session.session_id, "acme"

    if variant == "error":
        sql = STATEMENTS[entry.kind]["error"]
    elif variant == "timeout" and entry.served:
        sql = STATEMENTS[entry.kind]["slow"]
    else:
        sql = STATEMENTS[entry.kind]["ok"]
    timeout = None
    if variant == "timeout":
        timeout = SERVED_TIMEOUT if entry.served else 0.0
    rows_before = len(database.query_log.entries())
    count_before = database.metrics.counter("query.count").value
    registry_before = _registry_counters(database)
    profile_before = database.last_profile
    sink_before = (
        database.table("sink").row_count if entry.kind == "insert_select" else 0
    )
    trained_before = database.metrics.counter("training.runs").value
    injector = FaultInjector(seed=1).raise_once("compile.kernel")
    raised = None
    try:
        if variant == "fallback":
            faults.install(injector)
        _run(entry, sql, timeout, database, session, client)
    except ReproError as error:
        raised = error
    finally:
        faults.uninstall()
        if client is not None:
            client.close()
        if wire is not None:
            wire.close()
        if server is not None:
            server.close()

    if variant in ("ok", "fallback"):
        assert raised is None
    elif variant == "timeout":
        assert isinstance(raised, QueryTimeoutError)
    else:
        assert raised is not None
    if variant == "fallback":
        assert injector.total_faults() == 1

    # exactly one row per client statement, carrying the caller
    rows = database.query_log.entries()[rows_before:]
    assert [row["sql"] for row in rows] == [
        RUNNER_LABELS.get(entry.name, sql.strip())
    ]
    (row,) = rows
    expected_status = {"error": "error", "timeout": "timeout"}
    assert row["status"] == expected_status.get(variant, "ok")
    assert row["error_class"] == (
        type(raised).__name__ if raised is not None else ""
    )
    assert (row["session_id"], row["tenant"]) == (session_id, tenant)
    # nothing left running, counted once, profile surface populated
    assert len(database.active_queries) == 0
    assert database.metrics.counter("query.count").value == count_before + 1
    profile = database.last_profile
    assert profile is not None and profile is not profile_before
    assert isinstance(profile.counters, ProfileCounters)
    assert isinstance(profile.stopwatch, Stopwatch)
    assert profile.peak_memory_bytes >= 0 and profile.wall_seconds > 0
    # each event counted once: the registry gained the profile's counts
    moved = _registry_delta(registry_before, _registry_counters(database))
    counted = {
        name: value
        for name, value in profile.counters.snapshot().items()
        if not BREAKDOWN.search(name)
    }
    assert {name: moved.get(name, 0) for name in counted} == counted
    if database.storage is not None:
        assert database.storage.pinned_generations() == 0
    if entry.kind == "create_model":
        # a compile-fallback retry re-scans the source of the same run
        trained = database.metrics.counter("training.runs").value
        assert trained - trained_before == (variant in ("ok", "fallback"))
    if entry.kind == "insert_select":
        # a compile-fallback retry re-runs the SELECT, not the append
        inserted = database.table("sink").row_count - sink_before
        expected = ROWS - 2 if variant in ("ok", "fallback") else 0
        assert inserted == expected


@pytest.mark.parametrize("served", [False, True], ids=["direct", "session"])
def test_nested_queries_run_serial_under_parallel(engine, served):
    """``parallel=True`` fans out a client SELECT only: the nested query
    of an INSERT or a CREATE MODEL runs serial, so it yields its rows in
    serial order — a CREATE MODEL source must give the same rows in the
    same order to train the same weights."""
    engine.execute("CREATE TABLE agg (grp INTEGER, n INTEGER)")
    engine.execute("CREATE TABLE uniq (grp INTEGER)")
    train = (
        "CREATE MODEL {name} AS TRAIN DENSE(4 relu, 1 sigmoid) ON "
        "(SELECT DISTINCT x1, x2, label FROM pts) "
        "WITH (epochs=2, batch_size=32, seed=1, loss='bce')"
    )
    serial = engine.execute(train.format(name="serial_twin")).rows[0]
    rows_before = len(engine.query_log.entries())
    with Server(engine, dispatchers=1) as server:
        with server.open_session(tenant="acme") as session:
            run = session.execute if served else engine.execute
            run(
                "INSERT INTO agg SELECT grp, COUNT(*) AS n FROM events "
                "GROUP BY grp",
                parallel=True,
            )
            run("INSERT INTO uniq SELECT DISTINCT grp FROM events", parallel=True)
            trained = run(train.format(name="parallel_twin"), parallel=True)
    groups = sorted(engine.execute("SELECT grp, n FROM agg").rows)
    assert groups == [(grp, ROWS // 4) for grp in range(4)]
    assert sorted(engine.execute("SELECT grp FROM uniq").rows) == [
        (grp,) for grp in range(4)
    ]
    # same source rows in the same order -> the same trained weights
    assert trained.rows[0][3:] == serial[3:]
    logged = engine.query_log.entries()[rows_before : rows_before + 3]
    assert [row["parallel"] for row in logged] == [False] * 3


@pytest.mark.parametrize("name", list(RUNNER_LABELS))
def test_close_cancels_an_in_flight_runner(engine, name):
    """``close()`` reaches a direct runner through the active-query
    registry like any statement: its token trips at the next morsel."""
    runner = _runner(name, engine)
    closed = []

    def close_when_running() -> None:
        deadline = time.monotonic() + 10.0
        while not len(engine.active_queries) and time.monotonic() < deadline:
            time.sleep(0.005)
        started = time.monotonic()
        engine.close(drain_seconds=5.0)
        closed.append(time.monotonic() - started)

    closer = threading.Thread(target=close_when_running)
    injector = FaultInjector(seed=1).delay_ms("worker.morsel", 300.0)
    with faults.active(injector):
        closer.start()
        # the 2-partition ``events`` splits over the 2 pipelines, so the
        # scans pull morsels (and pay the delay) from a shared queue; the
        # deadline gives the query the token close() cancels (a direct
        # query without one is waited for, not cancelled)
        with pytest.raises(QueryCancelledError):
            runner.execute(
                "events", ["val", "val"], parallel=True, timeout_seconds=30.0
            )
        closer.join(timeout=15.0)
    assert not closer.is_alive()
    (row,) = [
        row
        for row in engine.query_log.entries()
        if row["sql"] == RUNNER_LABELS[name]
    ]
    assert row["status"] == "cancelled"
    assert len(engine.active_queries) == 0
    assert closed and closed[0] < 5.0


def test_a_fallback_counts_its_model_cache_hit_once():
    """A warm filtered MODEL JOIN whose generated kernel fails re-runs
    interpreted: both attempts look the model up, but only the attempt
    that produced the result counts, in the registry as in its row."""
    database = repro.connect()
    try:
        load_iris_table(database, 2_000, seed=11)
        publish_model(database, "m", make_dense_model(8, 2, seed=11))
        sql = (
            "SELECT id, prediction_0 FROM iris MODEL JOIN m "
            "WHERE sepal_length > 5.0"
        )
        database.execute(sql)  # warm: the model build is cached
        before = _registry_counters(database)
        injector = FaultInjector(seed=1).raise_once("compile.kernel")
        with faults.active(injector):
            database.execute(sql)
        assert injector.total_faults() == 1
        moved = _registry_delta(before, _registry_counters(database))
        row = database.query_log.entries()[-1]
        assert row["fallback"] and row["cache_hits"] == 1
        hits = {
            name: moved.get(name, 0)
            for name in ("model-cache-hits", "cache.hits")
        }
        assert hits == {"model-cache-hits": 1, "cache.hits": 0}
        assert database.model_cache.statistics()["hits"] == 2
    finally:
        database.close()


def test_a_fallback_counts_its_variant_decision_once():
    """The re-planned attempt of a compile fallback decides the ModelJoin
    variant again, but the statement counts one decision: the executed
    plan's, in the registry as on its profile."""
    database = repro.connect()
    try:
        load_iris_table(database, 2_000, seed=11)
        publish_model(database, "m", make_dense_model(8, 2, seed=11))
        sql = (
            "SELECT id, prediction_0 FROM iris MODEL JOIN m "
            "WHERE sepal_length > 5.0"
        )
        database.execute(sql)  # warm: the plan and the model are cached
        before = _registry_counters(database)
        injector = FaultInjector(seed=1).raise_once("compile.kernel")
        with faults.active(injector):
            database.execute(sql)
        assert injector.total_faults() == 1
        row = database.query_log.entries()[-1]
        assert row["fallback"]
        names = (
            "planner.variant_selected",
            f"planner.variant_selected.{row['modeljoin_variant']}",
        )
        moved = _registry_delta(before, _registry_counters(database))
        assert {name: moved.get(name, 0) for name in names} == dict.fromkeys(
            names, 1
        )
        counters = database.last_profile.counters
        assert [counters.get(name) for name in names] == [1, 1]
    finally:
        database.close()


def test_shard_statistics_count_morsels():
    """A morsel-driven fragment's morsels reach ``system.shards``."""
    database = repro.connect(shards=2, shard_workers=2)
    try:
        database.execute(
            "CREATE TABLE wide (id INTEGER, val DOUBLE) "
            "PARTITION BY (id) PARTITIONS 2"
        )
        ids = np.arange(40_000)
        database.table("wide").append_columns(id=ids, val=ids * 0.5)
        database.execute(
            "SELECT id, val * 2.0 AS v FROM wide WHERE val >= 1.0",
            parallel=True,
        )
        rows = database.execute(
            "SELECT shard_id, morsels FROM system.shards ORDER BY shard_id"
        ).rows
        assert len(rows) == 2 and all(morsels > 0 for _, morsels in rows)
    finally:
        database.close()


def test_shard_statistics_count_each_fragment_once():
    """``system.shards`` reads each shard's registry: one ``queries``
    per fragment it ran and the rows its scans read, whether the
    fragment ran serial or parallel, and nothing for a statement that
    failed before dispatch."""
    database = _load(repro.connect(shards=2))
    try:
        for sql in (
            "SELECT id, val FROM events WHERE val >= 1.0",
            "SELECT grp, SUM(val) AS s FROM events GROUP BY grp",
        ):
            database.execute(sql)
            database.execute(sql, parallel=True)
        with pytest.raises(ReproError):
            database.execute(SELECT_ERROR)
        rows = database.execute(
            "SELECT shard_id, rows, queries, rows_read FROM system.shards "
            "ORDER BY shard_id"
        ).rows
        assert sum(row[1] for row in rows) == ROWS
        assert [row[2:] for row in rows] == [(4, 4 * row[1]) for row in rows]
    finally:
        database.close()
