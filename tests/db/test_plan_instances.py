"""Compiled plans and their instances (docs/ARCHITECTURE.md, query
lifecycle; :meth:`repro.db.operators.PhysicalOperator.instance`).

A plan template keeps one compiled plan per kind of lowering, and every
statement of its shape — cold or a hit — runs an instance of it bound
to its own context, literal values, tables and pruning ranges.  The
contract checked here:

* two instances of one compiled plan, opened together, share no
  mutable state: no list, dict, set, array, device or operator;
* two sessions running one template at the same time each read their
  own rows;
* a value with no compiled form makes that one statement interpreted,
  with no kernel-cache traffic and nothing recorded;
* a kept compiled plan holds no table.
"""

from __future__ import annotations

import gc
import math
import threading
import weakref

import numpy as np
import pytest

import repro
from repro.db.operators import ExecutionContext, PhysicalOperator
from repro.db.serve import Server
from repro.db.types import SqlType
from repro.db.udf import PythonUdf, register_udf
from repro.device.base import Device
from tests.db.test_partition_paths import SERIAL, SHARDS, THREADS
from tests.db.test_partition_paths import _load as load_partitioned
from tests.db.test_plan_cache import (
    PATH_SHAPES,
    ROWS,
    _load,
    assert_same_outcome,
    cached,
    cold,
    lex_shape,
    outcome,
)

# runs again under `python -X dev` with ResourceWarnings as errors
pytestmark = pytest.mark.leak_guard

#: the kinds of object an instance must not share with another one
MUTABLE = (list, dict, set, np.ndarray, Device, PhysicalOperator)


@pytest.fixture
def db():
    database = _load(repro.connect())
    yield database
    database.close()


@pytest.fixture(scope="module")
def path_engines():
    engines = {
        path: load_partitioned(path.connect())
        for path in (SERIAL, THREADS, SHARDS)
    }
    yield engines
    for database in engines.values():
        database.close()


def held(plan: PhysicalOperator) -> dict:
    """``id -> object`` of every :data:`MUTABLE` object the operators of
    *plan* hold, in their attributes or in containers among them."""
    found: dict = {}

    def visit(value) -> None:
        if isinstance(value, MUTABLE):
            if id(value) in found:
                return
            found[id(value)] = value
        if isinstance(value, PhysicalOperator):
            for item in vars(value).values():
                visit(item)
        elif isinstance(value, (list, tuple, set, frozenset)):
            for item in value:
                visit(item)
        elif isinstance(value, dict):
            for item in value.values():
                visit(item)

    visit(plan)
    return found


@pytest.mark.parametrize("path", (SERIAL, THREADS, SHARDS), ids=str)
@pytest.mark.parametrize("shape", sorted(PATH_SHAPES))
def test_two_instances_share_no_execution_state(
    path_engines, path, shape, monkeypatch
):
    sql, first, second = PATH_SHAPES[shape]
    database = path_engines[path]
    database.plan_cache.clear()
    database.execute(sql.format(first), parallel=path.parallel)
    made: list[tuple[PhysicalOperator, PhysicalOperator, int]] = []
    statement = [0]
    instance = PhysicalOperator.instance

    def recording(self, *args, **kwargs):
        plan = instance(self, *args, **kwargs)
        made.append((self, plan, statement[0]))
        return plan

    monkeypatch.setattr(PhysicalOperator, "instance", recording)
    for index, value in enumerate((first, second)):
        statement[0] = index
        database.execute(sql.format(value), parallel=path.parallel)
        assert cached(database)
    monkeypatch.undo()
    # one instance of each compiled plan from each statement: the
    # serial plan, a partition pipeline's, or the coordinator's merge
    pairs = {}
    for compiled, plan, index in made:
        pairs.setdefault(id(compiled), {}).setdefault(index, plan)
    pairs = [plans for plans in pairs.values() if len(plans) == 2]
    assert pairs
    for plans in pairs:
        left, right = plans[0], plans[1]
        left.open()
        right.open()
        try:
            shared = set(held(left)) & set(held(right))
            objects = held(left)
            assert not shared, [
                type(objects[key]).__name__ for key in shared
            ]
        finally:
            left.close()
            right.close()


def test_concurrent_sessions_on_one_template_read_their_own(db):
    # both statements are hits of one template, held in a UDF at the
    # same time: two instances of one compiled plan run side by side
    arrived, release = threading.Semaphore(0), threading.Event()
    release.set()

    def slow(values):
        arrived.release()
        release.wait(10.0)
        return values

    register_udf(PythonUdf("hold3", 1, slow, result_type=SqlType.DOUBLE))
    sql = "SELECT id, hold3(x) AS h FROM t WHERE id >= {}"
    with Server(db, dispatchers=2) as server:
        with server.open_session() as one, server.open_session() as two:
            one.execute(sql.format(0))
            two.execute(sql.format(ROWS - 1))
            release.clear()
            early = one.submit(sql.format(ROWS - 3), timeout_seconds=20)
            late = two.submit(sql.format(ROWS - 5), timeout_seconds=20)
            assert arrived.acquire(timeout=10.0)
            assert arrived.acquire(timeout=10.0)
            release.set()
            early, late = early.wait(), late.wait()
    assert early.column("id").tolist() == list(range(ROWS - 3, ROWS))
    assert late.column("id").tolist() == list(range(ROWS - 5, ROWS))
    logged = [
        entry["plan_cached"]
        for entry in db.query_log.entries()
        if entry["sql"].startswith("SELECT id, hold3(x)")
    ]
    assert logged == [False, True, True, True]


def requests(database) -> int:
    return database.metrics.counter("compile.requests").value


def test_an_uncompilable_value_interprets_that_statement_only(db):
    sql = "SELECT id, x * 2.0 AS y FROM t WHERE id < {}"
    db.execute(sql.format(5))
    assert db.query_log.entries()[-1]["compiled"]
    before = requests(db)
    # 10**20 is outside int64: that statement runs interpreted and
    # fails as a cold plan of it does
    got = outcome(db, sql.format(10**20))
    assert cached(db) and not db.query_log.entries()[-1]["compiled"]
    assert db.execute(sql.format(3)).column("id").tolist() == [0, 1, 2]
    assert cached(db) and db.query_log.entries()[-1]["compiled"]
    assert requests(db) == before
    assert got[0] == "error"
    assert_same_outcome(got, cold(db, sql.format(10**20)))


def test_a_nan_value_runs_the_interpreted_kernel(db):
    # no statement text spells NaN; a value vector can hold one
    sql = "SELECT id, x * {} AS y FROM t WHERE id < 4"
    db.execute(sql.format(0.5))
    x = db.execute("SELECT x FROM t WHERE id < 4").column("x")
    planner = db._planner()
    before = requests(db)
    prepared = planner.prepare(db.parse(sql.format(1.5)))
    assert prepared.cached
    slot = prepared.values.index(1.5)
    for value, generated in ((math.nan, False), (0.25, True)):
        values = list(prepared.values)
        values[slot] = value
        prepared.values = tuple(values)
        plan = planner.lower(prepared, ExecutionContext())
        rows = [batch for batch in plan.batches()]
        assert plan.kernel.generated is generated
        y = np.concatenate([batch.column("y") for batch in rows])
        np.testing.assert_array_equal(y, x * value)
    assert requests(db) == before
    template = db.plan_cache.get(lex_shape(sql.format(0.5)))
    assert len(template.prototypes) == 1


def test_a_compiled_plan_holds_no_table(db):
    # hits on a snapshot bind its FrozenTables: the compiled plans the
    # template keeps hold identities only
    sql = (
        "SELECT id, prediction_0 FROM t MODEL JOIN m USING (f0, f1) "
        "WHERE id < {}"
    )
    snapshot = db.snapshot()
    fact = weakref.ref(snapshot.catalog.table("t"))
    model = weakref.ref(snapshot.catalog.table("m_table"))
    planner = db._planner(catalog=snapshot.catalog)
    for key in (5, 6, 7):
        prepared = planner.prepare(db.parse(sql.format(key)))
        plan = planner.lower(prepared, ExecutionContext())
        rows = sum(len(batch) for batch in plan.batches())
    assert prepared.cached and rows == 7
    template = db.plan_cache.get(lex_shape(sql.format(5)))
    assert template.prototypes
    snapshot.release()
    del snapshot, planner, prepared, plan
    db.last_profile = None
    gc.collect()
    assert lex_shape(sql.format(5)) in db.plan_cache
    assert fact() is None and model() is None
