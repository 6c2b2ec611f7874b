"""Path parity: one SELECT, one result, whichever way it runs.

An :class:`ExecutionPath` is one way to run a statement — serial,
thread-parallel over 4 partitions, or sharded over 2 processes — and
``run(path, sql)`` executes it.  Every shape must return the serial
rows on every path; where the rows live on shards and no merge can
finish the query, the sharded path raises a typed ``ShardError``
instead.  Values (inputs and model weights) are multiples of 1/8, so
float folds are exact in any order and the comparison is strict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

import repro
from repro.core.ml_to_sql.generator import SqlGenerator
from repro.core.ml_to_sql.loader import load_model_table
from repro.core.ml_to_sql.representation import build_relational_model
from repro.core.registry import publish_model
from repro.errors import ShardError
from repro.nn.layers import Dense
from repro.nn.model import Sequential

ROWS = 512


@dataclass(frozen=True)
class ExecutionPath:
    """One way to run a SELECT: a topology plus the parallel request."""

    name: str
    parallelism: int = 1
    shards: int = 0

    @property
    def parallel(self) -> bool:
        return self.parallelism > 1

    def connect(self):
        return repro.connect(parallelism=self.parallelism, shards=self.shards)

    def __str__(self) -> str:
        return self.name


SERIAL = ExecutionPath("serial")
THREADS = ExecutionPath("threads=4", parallelism=4)
SHARDS = ExecutionPath("shards=2", shards=2)
SPLIT_PATHS = (THREADS, SHARDS)


def _model() -> Sequential:
    model = Sequential(
        [Dense(3, "relu"), Dense(1, "sigmoid")], input_width=2, seed=5
    )
    for layer in model.dense_layers():
        layer.set_weights(
            np.round(layer.kernel * 8) / 8, np.full(layer.units, 0.125)
        )
    return model


MODEL = _model()
RELATIONAL = build_relational_model(MODEL)


def _load(database):
    database.execute(
        "CREATE TABLE t (id INTEGER, a INTEGER, x INTEGER, v DOUBLE, "
        "f0 FLOAT, f1 FLOAT) PARTITION BY (id) PARTITIONS 4"
    )
    ids = np.arange(ROWS, dtype=np.int64)
    database.table("t").append_columns(
        id=ids,
        a=ids % 5,
        x=ids % 7,
        v=((ids * 37) % 41 - 20) / 8.0,
        f0=(((ids * 11) % 17 - 8) / 8.0).astype(np.float32),
        f1=(((ids * 5) % 13 - 6) / 8.0).astype(np.float32),
    )
    database.execute(
        "CREATE TABLE n (id INTEGER, v DOUBLE, f FLOAT) "
        "PARTITION BY (id) PARTITIONS 4"
    )
    database.table("n").append_columns(
        id=ids,
        v=np.where(ids % 11 == 0, np.nan, (ids * 13) % 9 - 4.0),
        f=np.where(ids % 6 == 1, np.nan, (ids % 5) / 4.0).astype(np.float32),
    )
    database.execute("CREATE TABLE u (a INTEGER)")
    database.execute("INSERT INTO u VALUES (1), (2), (3)")
    publish_model(database, "m", MODEL)
    load_model_table(database, "mlsql", RELATIONAL)
    return database


@pytest.fixture(scope="module")
def engines():
    engines = {path: _load(path.connect()) for path in (SERIAL,) + SPLIT_PATHS}
    yield engines
    for database in engines.values():
        database.close()


@pytest.fixture
def run(engines):
    def run(path: ExecutionPath, sql: str):
        return engines[path].execute(sql, parallel=path.parallel)

    return run


#: shapes whose row order is undefined (compared as sorted bags)
SHAPES = {
    # unpartitioned input: parallel=True used to return every row 4x
    "unpartitioned": "SELECT a FROM u",
    # groups that span partitions: used to return per-partition partials
    "group_off_key": "SELECT a, COUNT(*) AS n, SUM(v) AS s FROM t GROUP BY a",
    "avg_having": (
        "SELECT a, AVG(v) AS m FROM t GROUP BY a HAVING AVG(v) > -0.25"
    ),
    "group_constant": "SELECT COUNT(*) AS n, SUM(v) AS s FROM t GROUP BY 1=1",
    "group_on_key": "SELECT id, SUM(v) AS s FROM t GROUP BY id",
    "distinct": "SELECT DISTINCT a FROM t",
    "self_join_on_key": (
        "SELECT p.id, q.v FROM t p, t q WHERE p.id = q.id AND p.a = 1"
    ),
    "subquery_grouped_on_key": (
        "SELECT s.id, s.total FROM (SELECT id, SUM(v) AS total FROM t "
        "GROUP BY id) AS s WHERE s.total > 0.5"
    ),
    "model_join": "SELECT id, prediction_0 FROM t MODEL JOIN m USING (f0, f1)",
}

#: a join on a non-key column pairs rows of different partitions
OFF_KEY_SELF_JOIN = (
    "SELECT p.id AS pid, q.id AS qid FROM t p, t q WHERE p.x = q.x"
)


@pytest.mark.parametrize("path", SPLIT_PATHS, ids=str)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_shape_matches_serial(run, path, shape):
    sql = SHAPES[shape]
    got = run(path, sql)
    want = run(SERIAL, sql)
    assert tuple(got.schema.names) == tuple(want.schema.names)
    assert sorted(got.rows) == sorted(want.rows)
    assert got.row_count > 0


@pytest.mark.parametrize("path", SPLIT_PATHS, ids=str)
def test_order_by_limit_matches_serial(run, path):
    sql = "SELECT id, v FROM t ORDER BY v DESC, id LIMIT 7"
    assert run(path, sql).rows == run(SERIAL, sql).rows


#: first keys with ties and NaN; the trailing id makes the order total,
#: so every path must return the same rows in the same order
TOP_K_ORDERS = (
    "v DESC, id",
    "v, id DESC",
    "f DESC, v, id",
    "f, id",
)


@pytest.mark.parametrize("path", (SERIAL,) + SPLIT_PATHS, ids=str)
@pytest.mark.parametrize("order", TOP_K_ORDERS)
@pytest.mark.parametrize(
    "limit, offset", [(0, 0), (1, 0), (10, 3), (40, 100), (ROWS, 0), (7, ROWS)]
)
def test_top_k_equals_the_sliced_full_order_by(run, path, order, limit, offset):
    sql = f"SELECT id, v, f FROM n ORDER BY {order}"
    want = run(SERIAL, sql)
    got = run(path, f"{sql} LIMIT {limit} OFFSET {offset}")
    assert got.row_count == len(want.rows[offset : offset + limit])
    for name in ("id", "v", "f"):
        np.testing.assert_array_equal(
            got.column(name), want.column(name)[offset : offset + limit]
        )


@pytest.mark.parametrize("path", SPLIT_PATHS, ids=str)
def test_ml_to_sql_dense_query_matches_serial(run, path):
    sql = SqlGenerator(RELATIONAL, "t", "id", ["f0", "f1"]).inference_query()
    got = sorted(run(path, sql).rows)
    assert got == sorted(run(SERIAL, sql).rows)
    assert len(got) == ROWS


def test_off_key_self_join_runs_serial_on_threads(run):
    got = run(THREADS, OFF_KEY_SELF_JOIN)
    assert sorted(got.rows) == sorted(run(SERIAL, OFF_KEY_SELF_JOIN).rows)
    assert got.row_count == sum(
        count * count for count in np.bincount(np.arange(ROWS) % 7)
    )


def test_off_key_self_join_is_a_typed_error_on_shards(run):
    with pytest.raises(ShardError, match="partition keys"):
        run(SHARDS, OFF_KEY_SELF_JOIN)


def test_query_log_records_whether_the_query_split(engines, run):
    database = engines[THREADS]
    run(THREADS, SHAPES["unpartitioned"])  # declined: runs serially
    run(THREADS, SHAPES["group_off_key"])
    declined, split = database.query_log.entries()[-2:]
    assert (declined["parallel"], split["parallel"]) == (False, True)
