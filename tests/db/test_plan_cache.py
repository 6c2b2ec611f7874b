"""The auto-parameterized plan cache (docs/ARCHITECTURE.md, query
lifecycle; :mod:`repro.db.plan.cache`).

A SELECT whose shape was planned before is instantiated from its
template instead of being parsed, bound, rewritten and code-generated.
The contract is that a hit is indistinguishable from planning cold:

* differential — hypothesis draws a statement shape and value vectors;
  on a warm engine the statements after the first are hits (unless a
  fixed slot changed) and must give bit-identical results, the same
  physical plan, the same compiled listings (``# params:`` included)
  and the same ModelJoin variant selection as a second engine planning
  the statement cold;
* edge cases — int vs float and string literals, ``IN`` lists with
  duplicates, ``BETWEEN``, negative and folded literals,
  ``LIMIT``/``OFFSET``/``VERSION k``, ``±inf``, int64 overflow,
  subqueries, CASE, disk tables whose zone-map estimates follow the
  values;
* invalidation — DROP/CREATE of a name, model republish, ``ALTER MODEL
  SET VERSION``, INSERT, served snapshots, UDF re-registration; a
  template keeps no table alive;
* every :class:`~tests.db.test_partition_paths.ExecutionPath` serves
  hits with fresh literals; a sharded or ``parallel=True`` hit plans no
  fragment and no merge, and each shard serves its fragment from its
  own cache — through replica INSERTs, model changes, a re-created
  table and an evicted shard template;
* observability — ``plan_cache.*`` counters, ``system.queries``
  ``plan_cached`` (persisted, FALSE for older log rows).
"""

from __future__ import annotations

import gc
import json
import re
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.core.registry import publish_model
from repro.db import faults
from repro.db.faults import FaultInjector
from repro.db.operators import ExecutionContext
from repro.db.plan.cache import CAPACITY
from repro.db.plan.physical import render_explain
from repro.db.serve import Server
from repro.db.types import SqlType
from repro.db.udf import PythonUdf, register_udf
from repro.nn.layers import Dense
from repro.nn.model import Sequential
from tests.db.test_partition_paths import SERIAL, SHARDS, THREADS
from tests.db.test_partition_paths import _load as load_partitioned

# runs again under `python -X dev` with ResourceWarnings as errors
pytestmark = pytest.mark.leak_guard

#: three storage blocks, so pruning and zone-map estimates show
ROWS = 9_000


def _model(seed: int) -> Sequential:
    return Sequential(
        [Dense(4, "relu"), Dense(1, "sigmoid")], input_width=2, seed=seed
    )


def _load(database, rows: int = ROWS):
    database.execute(
        "CREATE TABLE t (id INTEGER, g INTEGER, x DOUBLE, f0 FLOAT, "
        "f1 FLOAT, s VARCHAR)"
    )
    ids = np.arange(rows, dtype=np.int64)
    database.table("t").append_columns(
        id=ids,
        g=ids % 7,
        x=((ids * 37) % 41 - 20) / 8.0,
        f0=((ids % 17) / 16.0).astype(np.float32),
        f1=((ids % 11) / 10.0).astype(np.float32),
        s=np.array(["a", "b", "it's"], dtype=object)[ids % 3],
    )
    publish_model(database, "m", _model(3))
    return database


@pytest.fixture(scope="module")
def pair():
    """(warm, fresh): two engines holding the same data."""
    engines = (_load(repro.connect()), _load(repro.connect()))
    yield engines
    for database in engines:
        database.close()


@pytest.fixture
def db():
    database = _load(repro.connect())
    yield database
    database.close()


@pytest.fixture(autouse=True)
def no_leaked_injector():
    yield
    faults.uninstall()


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def cached(database) -> bool:
    """Whether the last logged statement was planned from a template."""
    return database.query_log.entries()[-1]["plan_cached"]


def outcome(database, sql: str, parallel: bool = False):
    """``("ok", result)`` or ``("error", type name, message)``."""
    try:
        return ("ok", database.execute(sql, parallel=parallel))
    except Exception as error:  # compared between engines
        return ("error", type(error).__name__, str(error))


def assert_same_outcome(got, want) -> None:
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got == want
        return
    left, right = got[1], want[1]
    assert left.schema == right.schema
    assert left.row_count == right.row_count
    for name in left.schema.names:
        a, b = left.column(name), right.column(name)
        assert a.dtype == b.dtype, name
        if a.dtype == np.dtype(object):
            assert a.tolist() == b.tolist(), name
        else:
            assert a.tobytes() == b.tobytes(), name


def planned(database, sql: str, from_template: bool, partition=None):
    """The physical plan and compiled listings *database* lowers *sql*
    to — from its template, or cold; serially or for one *partition*
    pipeline — and its variant selections.

    Kernel headers name the model table's uid, which differs between
    engines, so it is masked."""
    planner = database._planner()
    if not from_template:
        planner.plan_cache = None
    prepared = planner.prepare(database.parse(sql))
    assert prepared.cached is from_template
    plan = planner.lower(prepared, ExecutionContext(), partition)
    physical = render_explain(prepared, plan).split("== Physical Plan ==")[1]
    selections = [
        (s.model_name, s.tuples, s.chosen, s.reason, s.estimates)
        for s in prepared.selections
    ]
    return re.sub(r"uid=\d+", "uid=*", physical), selections


def rows_read(database) -> int:
    return database.last_profile.counters.snapshot().get("scan.rows_read", 0)


def cold(database, sql: str):
    """*sql* planned cold on *database* (its plan cache emptied)."""
    database.plan_cache.clear()
    result = outcome(database, sql)
    assert not cached(database)
    return result


# ----------------------------------------------------------------------
# differential: hit on a warm engine == cold plan on another engine
# ----------------------------------------------------------------------
#: statement shapes; ``$i``/``$f``/``$s`` are free int/float/string
#: slots, ``$I``/``$F`` slots the template fixes (their value decides
#: the plan: LIMIT, OFFSET, a folded or GROUP BY literal)
SHAPES = [
    "SELECT id, x FROM t WHERE id = $i",
    "SELECT id, x * $f AS y FROM t WHERE id BETWEEN $i AND $i",
    "SELECT id FROM t WHERE id IN ($i, $i, $i) OR x > $f",
    "SELECT id, s FROM t WHERE s = $s AND id < $i",
    "SELECT id, CASE WHEN x > $f THEN $i ELSE x END AS c FROM t "
    "WHERE id < $i",
    "SELECT g, SUM(x) AS sx, COUNT(*) AS n FROM t WHERE id >= $i "
    "GROUP BY g HAVING SUM(x) > $f ORDER BY g",
    "SELECT g + $I AS k, COUNT(*) AS n FROM t WHERE x < $f "
    "GROUP BY g + $I ORDER BY k",
    "SELECT id, x FROM t WHERE x > -$F AND id < $i ORDER BY id "
    "LIMIT $I OFFSET $I",
    "SELECT q.id, q.y FROM (SELECT id, x + $f AS y FROM t WHERE id < $i) "
    "AS q WHERE q.y > $f",
    "SELECT id, prediction_0 FROM t MODEL JOIN m USING (f0, f1) "
    "WHERE id = $i",
    "SELECT id, prediction_0 * $f AS p FROM t MODEL JOIN m "
    "USING (f0, f1) WHERE id BETWEEN $i AND $i",
    "SELECT id, $f AS c, $s AS label, $i AS n FROM t WHERE id < $i",
    "SELECT id FROM t WHERE x < $I + $I AND id > $i",
]

_SLOT = re.compile(r"\$[ifsIF]")


def _render(value) -> str:
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    if isinstance(value, float) and value == float("inf"):
        return "1e999"
    return repr(value)


_VALUES = {
    "i": st.integers(0, ROWS + 100),
    "I": st.integers(0, 3),
    # multiples of 1/8 (exact) up to 50, and +inf
    "f": st.integers(0, 401).map(
        lambda k: float("inf") if k == 401 else k / 8
    ),
    "F": st.sampled_from([0.5, 1.5]),
    "s": st.sampled_from(["a", "b", "it's", ""]),
}


@st.composite
def statements(draw):
    shape = draw(st.sampled_from(SHAPES))
    kinds = [match.group()[1] for match in _SLOT.finditer(shape)]

    def vector():
        return [draw(_VALUES[kind]) for kind in kinds]

    vectors = [vector() for _ in range(4)]
    for later in vectors[1:]:
        if draw(st.booleans()):  # keep the fixed slots, so it hits
            for index, kind in enumerate(kinds):
                if kind.isupper():
                    later[index] = vectors[0][index]

    def text(values) -> str:
        pieces = iter(_render(value) for value in values)
        return _SLOT.sub(lambda _match: next(pieces), shape)

    fixed = [index for index, kind in enumerate(kinds) if kind.isupper()]
    keys = [tuple(values[index] for index in fixed) for values in vectors]
    return [text(values) for values in vectors], keys


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(statements())
def test_a_hit_plans_like_a_fresh_engine(pair, drawn):
    warm, fresh = pair
    texts, keys = drawn
    warm.plan_cache.clear()
    outcome(warm, texts[0])
    template_key = keys[0]
    for text, key in zip(texts[1:], keys[1:]):
        fresh.plan_cache.clear()
        got = outcome(warm, text)
        want = outcome(fresh, text)
        assert not cached(fresh)
        assert_same_outcome(got, want)
        if got[0] == "error":
            return  # e.g. GROUP BY keys that differ: no template
        assert cached(warm) == (key == template_key), text
        template_key = key
        # one more hit of the statement — the template's first hit
        # keeps its lowering, later ones clone it — against the cold
        # plan of the fresh engine
        assert planned(warm, text, True) == planned(fresh, text, False)


# ----------------------------------------------------------------------
# edge cases
# ----------------------------------------------------------------------
EDGE_CASES = {
    # (first, second, second is a hit)
    "int_then_float": (
        "SELECT id, x FROM t WHERE id = 5",
        "SELECT id, x FROM t WHERE id = 5.0",
        False,
    ),
    "quoted_strings": (
        "SELECT id FROM t WHERE s = 'a' AND id < 90",
        "SELECT id FROM t WHERE s = 'it''s' AND id < 95",
        True,
    ),
    "in_list_duplicates": (
        "SELECT id, x FROM t WHERE id IN (5, 5, 4100)",
        "SELECT id, x FROM t WHERE id IN (8200, 8200, 8201)",
        True,
    ),
    "between": (
        "SELECT id, x FROM t WHERE id BETWEEN 10 AND 20",
        "SELECT id, x FROM t WHERE id BETWEEN 8300 AND 8310",
        True,
    ),
    "negative_literal": (
        "SELECT id FROM t WHERE x > -1.5 AND id < 100",
        "SELECT id FROM t WHERE x > -2.5 AND id < 100",
        False,
    ),
    "negative_literal_repeated": (
        "SELECT id FROM t WHERE x > -1.5 AND id < 100",
        "SELECT id FROM t WHERE x > -1.5 AND id < 500",
        True,
    ),
    "folded_literal": (
        "SELECT id FROM t WHERE x < 1 + 2 AND id < 50",
        "SELECT id FROM t WHERE x < 1 + 3 AND id < 50",
        False,
    ),
    "unfolded_division_by_zero": (
        "SELECT id, x + 7 / 0 AS y FROM t WHERE id < 5",
        "SELECT id, x + 7 / 2 AS y FROM t WHERE id < 5",
        False,
    ),
    "limit_offset_same": (
        "SELECT id FROM t WHERE id > 5 ORDER BY id LIMIT 3 OFFSET 1",
        "SELECT id FROM t WHERE id > 90 ORDER BY id LIMIT 3 OFFSET 1",
        True,
    ),
    "limit_changed": (
        "SELECT id FROM t WHERE id > 5 ORDER BY id LIMIT 3 OFFSET 1",
        "SELECT id FROM t WHERE id > 5 ORDER BY id LIMIT 4 OFFSET 1",
        False,
    ),
    "offset_changed": (
        "SELECT id FROM t WHERE id > 5 ORDER BY id LIMIT 3 OFFSET 1",
        "SELECT id FROM t WHERE id > 5 ORDER BY id LIMIT 3 OFFSET 2",
        False,
    ),
    "to_infinity": (
        "SELECT id FROM t WHERE x < 2.5 AND id < 40",
        "SELECT id FROM t WHERE x < 1e999 AND id < 40",
        True,
    ),
    "from_infinity": (
        "SELECT id, x * 1e999 AS y FROM t WHERE x < 1e999 AND id < 40",
        "SELECT id, x * 0.5 AS y FROM t WHERE x < 2.5 AND id < 40",
        True,
    ),
    "subquery": (
        "SELECT q.id FROM (SELECT id, x FROM t WHERE id < 100) AS q "
        "WHERE q.x > 0.5",
        "SELECT q.id FROM (SELECT id, x FROM t WHERE id < 8500) AS q "
        "WHERE q.x > 1.5",
        True,
    ),
    "case": (
        "SELECT id, CASE WHEN x > 0.5 THEN 1 WHEN x < -0.5 THEN -1 "
        "ELSE 0 END AS c FROM t WHERE id < 30",
        "SELECT id, CASE WHEN x > 1.5 THEN 1 WHEN x < -0.5 THEN -1 "
        "ELSE 0 END AS c FROM t WHERE id < 60",
        True,
    ),
    "group_by_literal": (
        "SELECT g * 2 AS k, COUNT(*) AS n FROM t GROUP BY g * 2 ORDER BY k",
        "SELECT g * 3 AS k, COUNT(*) AS n FROM t GROUP BY g * 3 ORDER BY k",
        False,
    ),
    "literal_outputs": (
        "SELECT id, 7 AS seven, 'x' AS tag FROM t WHERE id < 3",
        "SELECT id, 9 AS seven, 'yy' AS tag FROM t WHERE id < 4",
        True,
    ),
    "model_join_epilogue": (
        "SELECT id, prediction_0 + 1.0 AS p FROM t MODEL JOIN m "
        "USING (f0, f1) WHERE id < 20",
        "SELECT id, prediction_0 + 2.5 AS p FROM t MODEL JOIN m "
        "USING (f0, f1) WHERE id < 4200",
        True,
    ),
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_edge_case(db, case):
    first, second, hit = EDGE_CASES[case]
    outcome(db, first)
    got = outcome(db, second)
    assert cached(db) is hit
    scanned = rows_read(db)
    want = cold(db, second)
    assert_same_outcome(got, want)
    assert scanned == rows_read(db)
    if hit:  # again, lowered with the kernels an earlier hit recorded
        db.plan_cache.clear()
        outcome(db, first)
        outcome(db, first)
        got = outcome(db, second)
        assert cached(db)
        assert_same_outcome(got, want)
        assert scanned == rows_read(db)


def test_pruning_is_rederived_for_each_hit(db):
    sql = "SELECT id, x FROM t WHERE id IN ({}, {})"
    db.execute(sql.format(1, 2))
    for keys in ((8200, 8201), (4100, 4101), (1, 8999)):
        result = db.execute(sql.format(*keys))
        assert cached(db)
        assert result.column("id").tolist() == sorted(keys)
        blocks = len({key // 4096 for key in keys})
        assert rows_read(db) == sum(
            min(4096, ROWS - block * 4096)
            for block in {key // 4096 for key in keys}
        ), blocks


def test_int64_overflow_fails_like_a_cold_plan(db):
    # The template's kernel reads the slot as an int64 parameter; a
    # value outside int64 has no compiled form, so the hit cannot clone
    # the prototype and lowers with codegen — interpreted, as a cold
    # plan — and fails the same way.
    sql = "SELECT id FROM t WHERE id < {}"
    for value in (5, 6, 7):  # a miss, the prototype's hit, a clone
        db.execute(sql.format(value))
    overflow = sql.format(10**20)
    got = outcome(db, overflow)
    assert cached(db)
    assert got[0] == "error"
    template = db.plan_cache.get(lex_shape(overflow))
    assert len(template.prototypes) == 1
    assert db.execute(sql.format(8)).row_count == 8
    assert cached(db)
    assert_same_outcome(got, cold(db, overflow))
    # the shape keeps serving ordinary values
    db.execute(sql.format(5))
    db.execute(sql.format(6))
    assert db.execute(sql.format(3)).rows == [(0,), (1,), (2,)]
    assert cached(db)


def test_disk_table_estimates_follow_the_values(tmp_path):
    path = str(tmp_path / "db")
    _load(repro.connect(path=path)).close()
    database = repro.connect(path=path)
    try:
        assert database.table("t").disk_resident
        sql = (
            "SELECT id, prediction_0 FROM t MODEL JOIN m USING (f0, f1) "
            "WHERE id BETWEEN {} AND {}"
        )
        database.execute(sql.format(0, 10))
        for low, high in ((0, 10), (4000, 4200), (10, 8500)):
            text = sql.format(low, high)
            got = outcome(database, text)
            assert cached(database)
            hit_plan = planned(database, text, True)
            cold_plan = planned(database, text, False)
            assert hit_plan == cold_plan
            assert_same_outcome(got, cold(database, text))
        # the estimate starts from the rows of the surviving blocks
        tuples = {
            planned(database, sql.format(*bounds), True)[1][0][1]
            for bounds in ((0, 10), (4000, 4200), (10, 8500))
        }
        assert len(tuples) == 3
    finally:
        database.close()


def test_each_variant_clones_its_own_prototype(tmp_path):
    # the ModelJoin variant follows the estimate, and the device is part
    # of the lowered plan: a hit whose values pick the other variant
    # captures a second prototype and plans like a cold plan
    path = str(tmp_path / "db")
    _load(repro.connect(path=path)).close()
    database = repro.connect(path=path)
    try:
        selector = database.variant_selector
        for variant, fixed, per_tuple in (
            ("native-gpu", 1e-2, 1e-9),
            ("native-cpu", 1e-4, 2e-5),
        ):
            selector.calibrate(
                variant,
                [
                    (tuples, flops, fixed + per_tuple * tuples)
                    for tuples in (10, 100, 1000, 10000)
                    for flops in (10.0, 100.0)
                ],
            )
        sql = (
            "SELECT id, prediction_0 FROM t MODEL JOIN m USING (f0, f1) "
            "WHERE id BETWEEN {} AND {}"
        )
        texts = [
            sql.format(*bounds)
            for bounds in ((0, 10), (0, 20), (10, 8500), (0, 30), (20, 8900))
        ]
        chosen, results = [], []
        for text in texts:
            results.append(outcome(database, text))
            hit_plan = planned(database, text, True)
            assert hit_plan == planned(database, text, False)
            chosen.append(hit_plan[1][0][2])
        assert chosen == [
            "native-cpu", "native-cpu", "native-gpu", "native-cpu",
            "native-gpu",
        ]
        template = database.plan_cache.get(lex_shape(texts[0]))
        assert sorted(key[2] for key in template.prototypes) == [
            ("native-cpu",), ("native-gpu",),
        ]
        for text, got in zip(texts, results):
            assert_same_outcome(got, cold(database, text))
    finally:
        database.close()


def test_uncached_statements(db):
    db.execute("EXPLAIN SELECT id FROM t WHERE id = 1")
    db.execute("EXPLAIN SELECT id FROM t WHERE id = 2")
    assert len(db.plan_cache) == 0
    sql = "SELECT sql FROM system.queries WHERE query_id > {}"
    db.execute(sql.format(0))
    db.execute(sql.format(1))
    assert not cached(db)
    assert len(db.plan_cache) == 0


def test_compile_fallback_retry_plans_cold(db):
    sql = "SELECT id, x * 2.0 AS y FROM t WHERE id < {}"
    db.execute(sql.format(10))
    db.execute(sql.format(11))
    faults.install(FaultInjector(seed=1).raise_once("compile.kernel"))
    result = db.execute(sql.format(12))
    entry = db.query_log.entries()[-1]
    assert entry["fallback"] and not entry["plan_cached"]
    faults.uninstall()
    db.compile_breaker.record_success()
    assert_same_outcome(("ok", result), cold(db, sql.format(12)))
    db.execute(sql.format(13))
    assert cached(db)


# ----------------------------------------------------------------------
# invalidation
# ----------------------------------------------------------------------
def test_drop_and_create_of_the_same_name_misses(db):
    sql = "SELECT k, v FROM r WHERE k = {}"
    db.execute("CREATE TABLE r (k INTEGER, v DOUBLE)")
    db.execute("INSERT INTO r VALUES (1, 1.5), (2, 2.5)")
    db.execute(sql.format(1))
    assert db.execute(sql.format(2)).rows == [(2, 2.5)]
    assert cached(db)
    db.execute("DROP TABLE r")
    db.execute("CREATE TABLE r (k INTEGER, v DOUBLE)")
    db.execute("INSERT INTO r VALUES (2, 9.5)")
    assert db.execute(sql.format(2)).rows == [(2, 9.5)]
    assert not cached(db)
    # same name, another column type: the schema no longer matches
    db.execute("DROP TABLE r")
    db.execute("CREATE TABLE r (k INTEGER, v INTEGER)")
    db.execute("INSERT INTO r VALUES (2, 4)")
    assert db.execute(sql.format(2)).rows == [(2, 4)]
    assert not cached(db)


def test_model_republish_misses(db):
    sql = (
        "SELECT id, prediction_0 FROM t MODEL JOIN m2 USING (f0, f1) "
        "WHERE id = {}"
    )
    first, second = _model(11), _model(12)
    publish_model(db, "m2", first)
    db.execute(sql.format(1))
    db.execute(sql.format(2))
    assert cached(db)
    publish_model(db, "m2", second, replace=True)
    result = db.execute(sql.format(3))
    assert not cached(db)
    features = np.array([[3 % 17 / 16.0, 3 % 11 / 10.0]], dtype=np.float32)
    np.testing.assert_array_equal(
        result.column("prediction_0"), second.predict(features)[:, 0]
    )


def _train(database, mode: str, seed: int) -> None:
    database.execute(
        f"CREATE MODEL clf AS {mode} DENSE(4 relu, 1 sigmoid) "
        "ON (SELECT f0, f1, x FROM t WHERE id < 300) "
        f"WITH (epochs=2, batch_size=64, lr=0.05, seed={seed})"
    )


def test_model_versions_and_alter_model(db):
    _train(db, "TRAIN", 1)
    _train(db, "RETRAIN", 2)
    sql = (
        "SELECT id, prediction_0 FROM t MODEL JOIN clf{} USING (f0, f1) "
        "WHERE id < {}"
    )
    v1 = db.execute(sql.format(" VERSION 1", 50)).column("prediction_0")
    v2 = db.execute(sql.format(" VERSION 2", 50)).column("prediction_0")
    assert not cached(db)  # VERSION k is a fixed slot
    assert not np.array_equal(v1, v2)
    db.execute(sql.format("", 40))
    current = db.execute(sql.format("", 50)).column("prediction_0")
    assert cached(db)
    np.testing.assert_array_equal(current, v1)
    db.execute("ALTER MODEL clf SET VERSION 2")
    current = db.execute(sql.format("", 50)).column("prediction_0")
    assert not cached(db)
    np.testing.assert_array_equal(current, v2)
    again = db.execute(sql.format(" VERSION 1", 50)).column("prediction_0")
    np.testing.assert_array_equal(again, v1)


def test_insert_is_visible_to_the_next_hit(db):
    sql = "SELECT id, x FROM t WHERE id = {}"
    db.execute(sql.format(1))
    assert db.execute(sql.format(ROWS + 5)).rows == []
    db.execute(f"INSERT INTO t VALUES ({ROWS + 5}, 0, 0.25, 0.0, 0.0, 'c')")
    assert db.execute(sql.format(ROWS + 5)).rows == [(ROWS + 5, 0.25)]
    assert cached(db)


def test_reregistered_function_retires_templates(db):
    sql = "SELECT id, twice(x) AS y FROM t WHERE id < {}"
    for factor in (2.0, 3.0):
        register_udf(
            PythonUdf(
                "twice",
                1,
                lambda xs, factor=factor: [v * factor for v in xs],
                result_type=SqlType.DOUBLE,
            )
        )
        result = db.execute(sql.format(4))
        assert not cached(db)
        db.execute(sql.format(3))
        assert cached(db)
        np.testing.assert_array_equal(
            result.column("y"), result.column("id") * 0 + factor * (
                ((np.arange(4) * 37) % 41 - 20) / 8.0
            )
        )


def test_served_hits_read_their_snapshot(db):
    entered, release = threading.Event(), threading.Event()
    release.set()

    def slow(values):
        entered.set()
        release.wait(10.0)
        return values

    register_udf(PythonUdf("hold", 1, slow, result_type=SqlType.DOUBLE))
    sql = "SELECT id, hold(x) AS h FROM t WHERE id >= {}"
    before = ROWS - 3
    with Server(db, dispatchers=2) as server:
        with server.open_session() as reader, server.open_session() as other:
            reader.execute(sql.format(0))
            release.clear()
            entered.clear()
            pending = reader.submit(sql.format(before), timeout_seconds=20)
            assert entered.wait(10.0)
            other.execute(
                f"INSERT INTO t VALUES ({ROWS}, 1, 0.5, 0.0, 0.0, 'c')"
            )
            release.set()
            late = other.execute(sql.format(before))
            early = pending.wait()
    assert early.column("id").tolist() == list(range(before, ROWS))
    assert late.column("id").tolist() == list(range(before, ROWS + 1))
    logged = [
        entry["plan_cached"]
        for entry in db.query_log.entries()
        if entry["sql"] == sql.format(before)
    ]
    assert logged == [True, True]


def test_concurrent_hits_and_records_stay_correct(db):
    # More threads than cores racing on a few shapes: every statement is
    # a hit or a miss (never both, never lost), and every answer is the
    # one its own literals ask for.
    shapes = (
        "SELECT id, x FROM t WHERE id BETWEEN {} AND {}",
        "SELECT id FROM t WHERE id IN ({}, {})",
        "SELECT id, prediction_0 FROM t MODEL JOIN m USING (f0, f1) "
        "WHERE id >= {} AND id <= {}",
    )
    rounds, workers = 40, 6
    errors: list[BaseException] = []

    def work(seed: int) -> None:
        rng = np.random.default_rng(seed)
        try:
            for _ in range(rounds):
                key = int(rng.integers(0, ROWS - 1))
                sql = shapes[int(rng.integers(0, len(shapes)))]
                result = db.execute(sql.format(key, key + 1))
                assert result.column("id").tolist() == [key, key + 1]
        except BaseException as error:  # reported by the main thread
            errors.append(error)

    counter = db.metrics.counter
    before = counter("plan_cache.hits").value + counter(
        "plan_cache.misses"
    ).value
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=work, args=(seed,))
            for seed in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[0]
    after = counter("plan_cache.hits").value + counter(
        "plan_cache.misses"
    ).value
    assert after - before == rounds * workers
    assert counter("plan_cache.hits").value >= rounds * workers - 3 * workers


def test_a_template_keeps_no_table_alive(db):
    sql = "SELECT k, v FROM r WHERE k = {}"
    db.execute("CREATE TABLE r (k INTEGER, v DOUBLE)")
    db.execute("INSERT INTO r VALUES (1, 1.5)")
    db.execute(sql.format(1))
    db.execute(sql.format(2))
    assert cached(db)
    table = weakref.ref(db.table("r"))
    db.execute("DROP TABLE r")
    db.last_profile = None
    gc.collect()
    assert lex_shape(sql.format(1)) in db.plan_cache
    assert table() is None


def test_a_template_keeps_no_snapshot_table_alive(db):
    # hits planned against a snapshot bind its FrozenTable: neither the
    # template nor the prototype its first hit captured may keep it
    sql = "SELECT k, v FROM r WHERE k = {}"
    db.execute("CREATE TABLE r (k INTEGER, v DOUBLE)")
    db.execute("INSERT INTO r VALUES (1, 1.5), (2, 2.5)")
    snapshot = db.snapshot()
    frozen = weakref.ref(snapshot.catalog.table("r"))
    planner = db._planner(catalog=snapshot.catalog)
    for key in (1, 2, 3):
        prepared = planner.prepare(db.parse(sql.format(key)))
        plan = planner.lower(prepared, ExecutionContext())
        rows = sum(len(batch) for batch in plan.batches())
    assert prepared.cached and rows == 0
    template = db.plan_cache.get(lex_shape(sql.format(1)))
    assert template.prototypes
    snapshot.release()
    del snapshot, planner, prepared, plan
    db.last_profile = None
    gc.collect()
    assert lex_shape(sql.format(1)) in db.plan_cache
    assert frozen() is None


def test_concurrent_hits_on_two_snapshots_read_their_own(db):
    # One template, its prototype already captured: a served hit held
    # in a UDF on the snapshot before an INSERT and a served hit on the
    # snapshot after it run their clones at the same time.
    entered, release = threading.Event(), threading.Event()
    release.set()

    def slow(values):
        entered.set()
        release.wait(10.0)
        return values

    register_udf(PythonUdf("hold2", 1, slow, result_type=SqlType.DOUBLE))
    sql = "SELECT id, hold2(x) AS h FROM t WHERE id >= {}"
    before = ROWS - 3
    with Server(db, dispatchers=2) as server:
        with server.open_session() as reader, server.open_session() as other:
            reader.execute(sql.format(0))
            other.execute(sql.format(ROWS - 1))
            release.clear()
            entered.clear()
            pending = reader.submit(sql.format(before), timeout_seconds=20)
            assert entered.wait(10.0)
            other.execute(
                f"INSERT INTO t VALUES ({ROWS}, 1, 0.5, 0.0, 0.0, 'c')"
            )
            late = other.submit(sql.format(before), timeout_seconds=20)
            release.set()
            early, late = pending.wait(), late.wait()
    assert early.column("id").tolist() == list(range(before, ROWS))
    assert late.column("id").tolist() == list(range(before, ROWS + 1))
    logged = [
        entry["plan_cached"]
        for entry in db.query_log.entries()
        if entry["sql"].startswith("SELECT id, hold2(x)")
    ]
    assert logged == [False, True, True, True]


def lex_shape(sql: str) -> str:
    from repro.db.sql.lexer import lex

    return lex(sql).shape


# ----------------------------------------------------------------------
# every execution path serves hits
# ----------------------------------------------------------------------
#: literal-bearing forms of the test_partition_paths shapes
PATH_SHAPES = {
    "filter": ("SELECT id, v FROM t WHERE id > {}", 40, 300),
    "group_off_key": (
        "SELECT a, COUNT(*) AS n, SUM(v) AS s FROM t WHERE x < {} "
        "GROUP BY a",
        3,
        5,
    ),
    "group_on_key": (
        "SELECT id, SUM(v) AS s FROM t WHERE a <> {} GROUP BY id",
        1,
        2,
    ),
    # the literal is in the merge's HAVING, not in the fragment
    "having_off_key": (
        "SELECT a, SUM(v) AS s FROM t GROUP BY a HAVING SUM(v) > {}",
        0.5,
        8.625,
    ),
    "distinct": ("SELECT DISTINCT a FROM t WHERE id >= {}", 10, 500),
    "self_join_on_key": (
        "SELECT p.id, q.v FROM t p, t q WHERE p.id = q.id AND p.a = {}",
        1,
        3,
    ),
    "subquery_grouped_on_key": (
        "SELECT s.id, s.total FROM (SELECT id, SUM(v) AS total FROM t "
        "GROUP BY id) AS s WHERE s.total > {}",
        0.5,
        1.25,
    ),
    "model_join": (
        "SELECT id, prediction_0 FROM t MODEL JOIN m USING (f0, f1) "
        "WHERE id < {}",
        100,
        400,
    ),
    "top_k": (
        "SELECT id, v FROM t WHERE id > {} ORDER BY v DESC, id LIMIT 7",
        3,
        200,
    ),
}


@pytest.fixture(scope="module")
def path_engines():
    engines = {
        path: load_partitioned(path.connect())
        for path in (SERIAL, THREADS, SHARDS)
    }
    yield engines
    for database in engines.values():
        database.close()


def shard_plan_counts(database) -> list[tuple[int, int]]:
    """Each shard's ``plan_cache.hits`` and ``.misses``."""
    database.sharding.refresh_stats()
    return [
        (
            int(handle.last_stats["metrics"].get("plan_cache.hits", 0)),
            int(handle.last_stats["metrics"].get("plan_cache.misses", 0)),
        )
        for handle in database.sharding.handles
    ]


def plan_counts(database) -> tuple[int, int]:
    counter = database.metrics.counter
    return (
        counter("plan_cache.hits").value,
        counter("plan_cache.misses").value,
    )


def counted_since(before, after):
    return tuple(now - then for then, now in zip(before, after))


def shard_counts_since(database, before) -> list[tuple[int, int]]:
    return [
        counted_since(then, now)
        for then, now in zip(before, shard_plan_counts(database))
    ]


@pytest.mark.parametrize("path", (SERIAL, THREADS, SHARDS), ids=str)
@pytest.mark.parametrize("shape", sorted(PATH_SHAPES))
def test_every_path_serves_hits(path_engines, path, shape):
    sql, first, second = PATH_SHAPES[shape]
    database = path_engines[path]
    database.plan_cache.clear()
    if path is SHARDS:
        shards_before = shard_plan_counts(database)
    # a miss, the hit that keeps its lowering, then hits that clone it
    for index, value in enumerate((first, second, first, second)):
        got = database.execute(sql.format(value), parallel=path.parallel)
        assert cached(database) is (index > 0)
    if path is SHARDS:
        # each shard planned the fragment once and served every repeat
        # from its own cache
        counts = shard_counts_since(database, shards_before)
        assert counts == [(3, 1), (3, 1)]
    reference = path_engines[SERIAL]
    reference.plan_cache.clear()
    want = reference.execute(sql.format(second))
    assert tuple(got.schema.names) == tuple(want.schema.names)
    if shape == "top_k":
        assert got.rows == want.rows
    else:
        assert sorted(got.rows) == sorted(want.rows)
    assert got.row_count > 0


@pytest.mark.parametrize("shape", sorted(PATH_SHAPES))
def test_partition_pipelines_clone_like_cold_plans(path_engines, shape):
    # every pipeline of a parallel hit is a clone of the prototype the
    # first pipeline kept; each must lower like a cold plan of it
    sql, first, second = PATH_SHAPES[shape]
    database = path_engines[THREADS]
    database.plan_cache.clear()
    for value in (first, second):
        database.execute(sql.format(value), parallel=True)
    text = sql.format(second)
    for partition in range(4):
        assert planned(database, text, True, partition) == planned(
            database, text, False, partition
        )
    assert planned(database, text, True) == planned(database, text, False)


def test_parallel_partial_merge_repeats_count_one_miss(path_engines):
    # the per-partition statement of a partial merge is planned under
    # the fragment key; it rides on the query's own hit or miss
    sql, first, second = PATH_SHAPES["group_off_key"]
    database = path_engines[THREADS]
    database.plan_cache.clear()
    before = plan_counts(database)
    for value in (first, second, first, second, first):
        database.execute(sql.format(value), parallel=True)
    assert counted_since(before, plan_counts(database)) == (4, 1)


@pytest.mark.parametrize("path", (THREADS, SHARDS), ids=str)
def test_warm_split_statements_plan_nothing(path_engines, path, monkeypatch):
    """After warm-up a sharded or parallel hit binds nothing, splits
    nothing and generates no kernel source: not on the coordinator
    (patched to fail below) and not on a shard, which binds only on a
    miss."""
    from repro.db import planner as planner_module
    from repro.db.compile import kernels
    from repro.db.plan.logical import LogicalBinder

    database = path_engines[path]
    database.plan_cache.clear()
    shapes = ("group_off_key", "model_join", "top_k", "distinct")
    texts = []
    for shape in shapes:
        sql, first, second = PATH_SHAPES[shape]
        for value in (first, second):
            database.execute(sql.format(value), parallel=path.parallel)
        texts += [sql.format(value) for value in (second, first, first + 1)]
    wanted = {
        text: sorted(cold_result(path_engines[SERIAL], text).rows)
        for text in texts
    }

    def fail(*_args, **_kwargs):
        raise AssertionError("a warm split statement planned cold")

    monkeypatch.setattr(planner_module, "plan_fragments", fail)
    monkeypatch.setattr(kernels, "_kernel_source", fail)
    monkeypatch.setattr(LogicalBinder, "bind", fail)
    if path is SHARDS:
        shards_before = shard_plan_counts(database)
    for text in texts:
        got = database.execute(text, parallel=path.parallel)
        assert cached(database)
        assert sorted(got.rows) == wanted[text]
    if path is SHARDS:
        counts = shard_counts_since(database, shards_before)
        assert counts == [(12, 0), (12, 0)]


@pytest.mark.parametrize("path", (THREADS, SHARDS), ids=str)
def test_equal_aggregates_in_other_slots_merge_apart(path_engines, path):
    # the first statement's two partials are equal calls; a hit that
    # gives them other values must not merge them as one
    sql = "SELECT a, SUM(v * {}) AS p, SUM(v * {}) AS q FROM t GROUP BY a"
    database = path_engines[path]
    database.plan_cache.clear()
    for values in ((2, 2), (2, 3), (3, 2), (5, 5)):
        text = sql.format(*values)
        got = database.execute(text, parallel=path.parallel)
        want = cold_result(path_engines[SERIAL], text)
        assert sorted(got.rows) == sorted(want.rows)
    assert cached(database)


@pytest.mark.parametrize("path", (THREADS, SHARDS), ids=str)
def test_a_merge_value_with_no_compiled_form_merges_like_a_cold_plan(
    path_engines, path
):
    # the merge prototype's kernel reads the HAVING slot as an int64
    # parameter; 10**20 has no compiled form, so that merge is built
    # from the fragment plan with the hit's values, as a cold plan's is
    sql = "SELECT a, COUNT(*) AS n FROM t GROUP BY a HAVING COUNT(*) > {}"
    database = path_engines[path]
    database.plan_cache.clear()
    for value in (5, 6):
        database.execute(sql.format(value), parallel=path.parallel)
    for value in (10**20, 100):
        text = sql.format(value)
        got = outcome(database, text, path.parallel)
        assert cached(database)
        assert_same_outcome(got, cold(path_engines[SERIAL], text))


@pytest.fixture
def sharded_pair():
    """(sharded, reference): two shard processes and a single engine
    holding the test_partition_paths data."""
    engines = (
        load_partitioned(SHARDS.connect()),
        load_partitioned(SERIAL.connect()),
    )
    yield engines
    for database in engines:
        database.close()


def cold_result(database, sql: str):
    status, result = cold(database, sql)[:2]
    assert status == "ok", result
    return result


def same_as_cold(pair, sql: str):
    """Run *sql* on the sharded engine; it must give the rows a cold plan
    gives on the reference engine."""
    sharded, reference = pair
    got = sharded.execute(sql)
    want = cold_result(reference, sql)
    assert got.schema == want.schema
    assert sorted(got.rows) == sorted(want.rows)
    return got


def both(pair, statement: str) -> None:
    for database in pair:
        database.execute(statement)


def test_sharded_hits_see_a_replica_insert(sharded_pair):
    sql = "SELECT t.id, u.a FROM t, u WHERE t.a = u.a AND t.id < {}"
    same_as_cold(sharded_pair, sql.format(100))
    same_as_cold(sharded_pair, sql.format(200))
    both(sharded_pair, "INSERT INTO u VALUES (4)")
    got = same_as_cold(sharded_pair, sql.format(300))
    assert cached(sharded_pair[0])
    assert 4 in got.column("a").tolist()


def test_sharded_hits_follow_alter_model(sharded_pair):
    both(sharded_pair, "CREATE TABLE src (f0 FLOAT, f1 FLOAT, y DOUBLE)")
    both(
        sharded_pair,
        "INSERT INTO src VALUES (0.5, -0.25, 1.0), (-0.5, 0.75, 0.0), "
        "(0.25, 0.25, 1.0), (-0.75, -0.5, 0.0)",
    )
    for mode, seed in (("TRAIN", 1), ("RETRAIN", 2)):
        both(
            sharded_pair,
            f"CREATE MODEL clf AS {mode} DENSE(4 relu, 1 sigmoid) "
            "ON (SELECT f0, f1, y FROM src) "
            f"WITH (epochs=2, batch_size=2, lr=0.05, seed={seed})",
        )
    sql = (
        "SELECT id, prediction_0 FROM t MODEL JOIN clf USING (f0, f1) "
        "WHERE id < {}"
    )
    same_as_cold(sharded_pair, sql.format(100))
    version_1 = same_as_cold(sharded_pair, sql.format(200))
    both(sharded_pair, "ALTER MODEL clf SET VERSION 2")
    version_2 = same_as_cold(sharded_pair, sql.format(200))
    assert not np.array_equal(
        version_1.column("prediction_0"), version_2.column("prediction_0")
    )
    same_as_cold(sharded_pair, sql.format(300))
    assert cached(sharded_pair[0])


def test_sharded_hits_follow_a_republished_model(sharded_pair):
    sql = (
        "SELECT id, prediction_0 FROM t MODEL JOIN m USING (f0, f1) "
        "WHERE id < {}"
    )
    same_as_cold(sharded_pair, sql.format(100))
    before = same_as_cold(sharded_pair, sql.format(200))
    for database in sharded_pair:
        publish_model(database, "m", _model(21), replace=True)
    after = same_as_cold(sharded_pair, sql.format(200))
    assert not np.array_equal(
        before.column("prediction_0"), after.column("prediction_0")
    )


def test_sharded_hits_follow_a_recreated_table(sharded_pair):
    sql = "SELECT a, SUM(v) AS s FROM t WHERE id < {} GROUP BY a"
    same_as_cold(sharded_pair, sql.format(100))
    same_as_cold(sharded_pair, sql.format(200))
    shards_before = shard_plan_counts(sharded_pair[0])
    both(sharded_pair, "DROP TABLE t")
    both(
        sharded_pair,
        "CREATE TABLE t (id INTEGER, a INTEGER, v INTEGER) "
        "PARTITION BY (id) PARTITIONS 4",
    )
    both(
        sharded_pair,
        "INSERT INTO t VALUES (1, 1, 10), (2, 1, 20), (3, 2, 5), (250, 2, 7)",
    )
    got = same_as_cold(sharded_pair, sql.format(200))
    assert got.rows and got.column("s").dtype == np.int64
    # each shard held a template of the key whose table is gone: it
    # answered "unknown fragment" and planned the resent AST
    counts = shard_counts_since(sharded_pair[0], shards_before)
    assert counts == [(0, 1), (0, 1)]


def test_an_evicted_shard_template_is_planned_from_the_resent_ast():
    from repro.db.shard.messages import (
        AppendRequest,
        CreateTableRequest,
        ExecuteRequest,
        ResultResponse,
        UnknownFragmentResponse,
        WorkerConfig,
    )
    from repro.db.shard.worker import ShardWorker
    from repro.db.sql.parser import parse_statement

    worker = ShardWorker(WorkerConfig(shard_id=0, shard_count=1))
    try:
        worker.handle(
            CreateTableRequest("r", (("k", "INTEGER"), ("v", "DOUBLE")))
        )
        worker.handle(
            AppendRequest(
                "r", ("k", "v"), (np.arange(10), np.arange(10) / 4.0)
            )
        )
        sql = "SELECT k, v FROM r WHERE k < {}"
        key = "\x00concat\x00r-test\x00()"
        sent = worker.handle(
            ExecuteRequest(key, (4,), parse_statement(sql.format(4)))
        )
        assert isinstance(sent, ResultResponse) and sent.row_count == 4
        by_key = worker.handle(ExecuteRequest(key, (6,)))
        assert isinstance(by_key, ResultResponse) and by_key.row_count == 6
        worker.database.plan_cache.clear()
        assert worker.handle(ExecuteRequest(key, (6,))) == (
            UnknownFragmentResponse(key)
        )
        resent = worker.handle(
            ExecuteRequest(key, (6,), parse_statement(sql.format(6)))
        )
        assert isinstance(resent, ResultResponse)
        assert resent.arrays[0].tolist() == list(range(6))
        counter = worker.database.metrics.counter
        assert counter("plan_cache.misses").value == 2
    finally:
        worker.database.close()


# ----------------------------------------------------------------------
# observability
# ----------------------------------------------------------------------
def test_counters_and_the_query_log_column(db):
    sql = "SELECT id FROM t WHERE id = {}"
    counter = db.metrics.counter
    hits, misses = counter("plan_cache.hits"), counter("plan_cache.misses")
    for key in range(3):
        db.execute(sql.format(key))
    assert (hits.value, misses.value) == (2, 1)
    text = db.export_metrics_text()
    assert "repro_plan_cache_hits 2" in text
    assert "repro_plan_cache_misses 1" in text
    rows = db.execute(
        "SELECT query_id, sql, plan_cached FROM system.queries "
        "ORDER BY query_id"
    ).rows
    assert [row[1:] for row in rows[-3:]] == [
        (sql.format(0), False),
        (sql.format(1), True),
        (sql.format(2), True),
    ]


def test_lru_evictions_are_counted(db):
    for index in range(CAPACITY + 3):
        db.execute(f"SELECT id AS c{index} FROM t WHERE id = 1")
    assert len(db.plan_cache) == CAPACITY
    assert db.metrics.counter("plan_cache.evictions").value == 3


def test_repeated_mask_skips_the_lexer(db, monkeypatch):
    # the memo is keyed by the literal-masked text: a verbatim repeat
    # and a text with other numbers (even of another length) both hit
    from repro.db.plan import cache as cache_module

    lexed = []
    real_lex = cache_module.lex

    def counting_lex(text):
        lexed.append(text)
        return real_lex(text)

    monkeypatch.setattr(cache_module, "lex", counting_lex)
    hits = db.metrics.counter("plan_cache.text_hits")
    misses = db.metrics.counter("plan_cache.text_misses")
    before = hits.value, misses.value
    sql = "SELECT id FROM t WHERE id = {}"
    for key in (1, 1, 2, 1, 100):
        db.execute(sql.format(key))
    assert lexed == [sql.format(1)]
    assert (hits.value - before[0], misses.value - before[1]) == (4, 1)
    # a memoized statement still runs against the live table
    db.execute("INSERT INTO t VALUES (1, 1, 0.5, 0.5, 0.5, 'a')")
    assert len(db.execute(sql.format(1)).rows) == 2


#: statement texts for the lexer memo; ``$`` is a NUMBER literal.  The
#: text around the slots holds no number the memo masks: digits inside
#: identifiers (``d32x2``, ``x1``) and ``t.5`` (an identifier, then the
#: literal ``.5``, which a mask must leave alone) stay verbatim
MEMO_TEXTS = [
    "SELECT id, d32x2, x1 FROM t WHERE id = $",
    "SELECT id FROM t WHERE id IN ($, $, $)",
    "SELECT id FROM t WHERE id IN ($, $)",
    "SELECT id FROM t WHERE x > -$ AND x < $ + $",
    "select a1b2 from t where x=$*$;",
    "SELECT id FROM t\n\tWHERE x BETWEEN $ AND $ LIMIT $",
    "SELECT t.5, id FROM t WHERE id = $",
    "SELECT id FROM t WHERE id = $ AND t.5 > x1",
    # the memo cannot vouch for these: memoized by the whole text
    "SELECT id FROM t WHERE s = 'it''s 5' AND id = $",
    "SELECT id FROM t -- id = 5\nWHERE id = $",
    'SELECT "col 5" FROM t WHERE id = $',
    # a bad character: lex raises, and so must the memo
    "SELECT id FROM t WHERE id = $ @",
    "SELECT id # FROM t WHERE id = $",
]

_NUMBER_TEXTS = st.one_of(
    st.integers(0, 10**12).map(str),
    st.tuples(st.integers(0, 999), st.integers(0, 999)).map(
        lambda pair: f"{pair[0]}.{pair[1]}"
    ),
    st.integers(0, 999).map(lambda k: f".{k}"),
    st.integers(0, 999).map(lambda k: f"{k}."),
    st.tuples(
        st.integers(0, 99),
        st.sampled_from(["e", "E", "e-", "E+"]),
        st.integers(0, 30),
    ).map(lambda parts: "".join(map(str, parts))),
)


@st.composite
def memo_texts(draw):
    """(piece index, text) pairs: the memo texts with fresh numbers."""
    drawn = []
    for _ in range(draw(st.integers(1, 30))):
        index = draw(st.integers(0, len(MEMO_TEXTS) - 1))
        parts = MEMO_TEXTS[index].split("$")
        numbers = [draw(_NUMBER_TEXTS) for _ in parts[1:]]
        text = parts[0] + "".join(
            number + part for number, part in zip(numbers, parts[1:])
        )
        drawn.append((index, text, numbers))
    return drawn


@settings(max_examples=150, deadline=None)
@given(memo_texts())
def test_lexer_memo_matches_lex(drawn):
    # PlanCache.lex(t) == lex(t), errors included; a text whose numbers
    # keep their int/float kinds hits the memo of its piece (a verbatim
    # repeat is the only hit for a quoted or commented text)
    from repro.db.plan.cache import PlanCache
    from repro.db.sql.lexer import lex
    from repro.db.tracing import MetricsRegistry
    from repro.errors import SqlSyntaxError

    metrics = MetricsRegistry()
    cache = PlanCache(metrics)
    kinds: dict[int, tuple] = {}
    verbatim: set[str] = set()
    hits = misses = 0
    for index, text, numbers in drawn:
        try:
            want = lex(text)
        except SqlSyntaxError as error:
            with pytest.raises(SqlSyntaxError) as raised:
                cache.lex(text)
            assert str(raised.value) == str(error)
            assert raised.value.position == error.position
            continue
        assert cache.lex(text) == want
        if any(mark in text for mark in ("'", '"', "--")):
            hit = text in verbatim
            verbatim.add(text)
        else:
            floating = tuple(
                any(mark in number for mark in ".eE") for number in numbers
            )
            hit = kinds.get(index) == floating
            if not hit:
                kinds[index] = floating
        hits += hit
        misses += not hit
    assert metrics.counter("plan_cache.text_hits").value == hits
    assert metrics.counter("plan_cache.text_misses").value == misses


def test_lexer_memo_keeps_the_last_capacity_texts(db):
    cache = db.plan_cache
    first = cache.lex("SELECT id FROM t")
    assert cache.lex("SELECT id FROM t") is first
    for index in range(CAPACITY):
        cache.lex(f"SELECT id AS c{index} FROM t")
    assert cache.lex("SELECT id FROM t") is not first
    assert cache.lex("SELECT id AS c1 FROM t") is cache.lex(
        "SELECT id AS c1 FROM t"
    )


def test_plan_cached_is_persisted_and_defaults_to_false(tmp_path):
    path = str(tmp_path / "db")
    database = _load(repro.connect(path=path), rows=100)
    database.execute("SELECT id FROM t WHERE id = 1")
    database.execute("SELECT id FROM t WHERE id = 2")
    database.close()
    log = tmp_path / "db" / "query_log.jsonl"
    lines = log.read_text().splitlines()
    flags = [json.loads(line)["plan_cached"] for line in lines[-2:]]
    assert flags == [False, True]
    # a row written before the column existed reads as FALSE
    old = json.loads(lines[-1])
    del old["plan_cached"]
    old["query_id"] += 1000
    log.write_text("\n".join(lines + [json.dumps(old)]) + "\n")
    database = repro.connect(path=path)
    try:
        rows = database.execute(
            "SELECT query_id, plan_cached FROM system.queries "
            "ORDER BY query_id DESC LIMIT 1"
        ).rows
        assert rows == [(old["query_id"], False)]
    finally:
        database.close()
