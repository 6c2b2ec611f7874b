"""A Server in front of a shard fleet, and what a shard refuses.

Served reads run on a snapshot of the catalog.  A snapshot cannot pin
the shards' rows yet, so a served read of a sharded table fails with a
typed :class:`~repro.errors.ShardError` naming the table — it must
never plan against the snapshot's empty local stub and return no rows,
nor leave a template that makes a later direct read of the same shape
return none.  Served INSERTs keep reaching the shards.

A shard asked for a fragment it holds no template of, without its
statement, answers before the query lifecycle starts: the refusal is no
query in its log or its ``query.count``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.db.serve import Server
from repro.errors import ShardError
from tests.db.test_partition_paths import SERIAL, SHARDS
from tests.db.test_partition_paths import _load as load_partitioned
from tests.db.test_plan_cache import PATH_SHAPES


@pytest.fixture(scope="module")
def fleet():
    """(sharded engine, its server's session, serial reference)."""
    sharded = load_partitioned(SHARDS.connect())
    reference = load_partitioned(SERIAL.connect())
    server = Server(sharded, dispatchers=1)
    session = server.open_session()
    yield sharded, session, reference
    session.close()
    server.close()
    sharded.close()
    reference.close()


def assert_direct_reads_right(sharded, reference, text: str) -> None:
    got = sharded.execute(text)
    want = reference.execute(text)
    assert tuple(got.schema.names) == tuple(want.schema.names)
    assert sorted(got.rows) == sorted(want.rows)
    assert got.row_count > 0


def assert_served_read_refused(session, text: str, table: str = "t"):
    with pytest.raises(ShardError, match=f"'{table}' is sharded"):
        session.execute(text)


@pytest.mark.parametrize("order", ("served_first", "direct_first"))
@pytest.mark.parametrize("shape", sorted(PATH_SHAPES))
def test_served_and_direct_reads_keep_apart(fleet, shape, order):
    sharded, session, reference = fleet
    sql, first, second = PATH_SHAPES[shape]
    sharded.plan_cache.clear()
    if order == "served_first":
        assert_served_read_refused(session, sql.format(first))
        assert_direct_reads_right(sharded, reference, sql.format(second))
    else:
        assert_direct_reads_right(sharded, reference, sql.format(first))
        assert_served_read_refused(session, sql.format(second))
        assert_direct_reads_right(sharded, reference, sql.format(second))


def test_served_insert_reaches_the_shards():
    text = "SELECT id FROM e WHERE id > 0 ORDER BY id"
    sharded = SHARDS.connect()
    try:
        sharded.execute(
            "CREATE TABLE e (id INTEGER, g INTEGER, v DOUBLE) "
            "PARTITION BY (id) PARTITIONS 2"
        )
        with Server(sharded, dispatchers=1) as server:
            with server.open_session() as session:
                session.execute(
                    "INSERT INTO e VALUES (1, 0, 0.5), (2, 1, 1.5)"
                )
                assert_served_read_refused(session, text, table="e")
        assert sharded.execute(text).rows == [(1,), (2,)]
    finally:
        sharded.close()


def test_a_refused_fragment_is_no_query():
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
    database = worker.database
    try:
        worker.handle(
            CreateTableRequest("r", (("k", "INTEGER"), ("v", "DOUBLE")))
        )
        worker.handle(
            AppendRequest(
                "r", ("k", "v"), (np.arange(10), np.arange(10) / 4.0)
            )
        )
        key = "\x00concat\x00r-refused\x00()"
        assert worker.handle(ExecuteRequest(key, (4,))) == (
            UnknownFragmentResponse(key)
        )
        sent = worker.handle(
            ExecuteRequest(
                key, (4,), parse_statement("SELECT k FROM r WHERE k < 4")
            )
        )
        assert isinstance(sent, ResultResponse) and sent.row_count == 4
        assert database.metrics.counter("query.count").value == 1
        log = database.execute("SELECT sql, status FROM system.queries")
        assert log.rows == [("<fragment>", "ok")]
    finally:
        database.close()
