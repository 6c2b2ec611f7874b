"""Zone-map pruning is a hint: pruned plans return the unpruned rows.

``IN`` lists and ORs of equalities on one column prune blocks as a
union of point ranges (``ColumnRange.points``).  Hypothesis draws WHERE
clauses mixing ``IN`` lists (1-8 values: duplicates, out-of-domain,
negative, ±inf and NaN literals) with ``BETWEEN`` on the same column
(the ranges intersect), ``NOT IN`` and ORs across two columns (neither
prunes), and runs each on every :class:`ExecutionPath` — serial,
threads=4, shards=2, a disk-resident table after a reopen, and a
``Server`` session reading a snapshot — comparing the ids with the
serial engine planned with ``PlannerOptions(use_block_pruning=False)``.
Memory and disk blocks share one zone-map rule: NaN is left out, and a
block with an infinite bound records no zone map.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.db.serve import Server
from tests.db.test_partition_paths import (
    SERIAL,
    SHARDS,
    THREADS,
    ExecutionPath,
)

# runs again under `python -X dev` with ResourceWarnings as errors
pytestmark = pytest.mark.leak_guard

#: 4 partitions of 5 000 contiguous ids: 2 blocks each (4096 + 904)
ROWS = 20_000
BLOCKS = 8

DISK = ExecutionPath("disk-after-reopen")
SERVED = ExecutionPath("served")
PATHS = (SERIAL, THREADS, SHARDS, DISK, SERVED)


def _load(database):
    database.execute(
        "CREATE TABLE p (id INTEGER, g INTEGER, v DOUBLE, w INTEGER) "
        "PARTITION BY (g) PARTITIONS 4"
    )
    ids = np.arange(ROWS, dtype=np.int64)
    v = (ids - ROWS // 2) / 8.0
    v[3000:3010] = np.nan  # left out of the zone map of its block
    v[500] = -np.inf
    v[15000] = np.inf
    database.table("p").append_columns(
        id=ids, g=ids // (ROWS // 4), v=v, w=ids % 7
    )
    return database


@pytest.fixture(scope="module")
def engines(tmp_path_factory):
    engines = {
        path: _load(path.connect())
        for path in (SERIAL, THREADS, SHARDS, SERVED)
    }
    directory = str(tmp_path_factory.mktemp("pruning") / "db")
    _load(repro.connect(path=directory)).close()
    engines[DISK] = repro.connect(path=directory)
    assert engines[DISK].table("p").disk_resident
    yield engines
    for database in engines.values():
        database.close()


@pytest.fixture(scope="module")
def sessions(engines):
    """SERVED reads go through a session, so they plan on a snapshot."""
    with Server(engines[SERVED], dispatchers=1) as server:
        with server.open_session() as session:
            yield {SERVED: session}


def ids(
    database,
    path: ExecutionPath,
    sql: str,
    pruning: bool = True,
    session=None,
):
    saved = database.planner_options
    database.planner_options = dataclasses.replace(
        saved, use_block_pruning=pruning
    )
    try:
        execute = database.execute if session is None else session.execute
        result = execute(sql, parallel=path.parallel)
    finally:
        database.planner_options = saved
    return sorted(result.column("id").tolist())


#: SQL literal text per column, in and out of the stored domain
LITERALS = {
    "id": st.one_of(
        st.integers(0, ROWS - 1),
        st.sampled_from([-5, -1, ROWS, ROWS + 100, 10**6]),
    ).map(str),
    "w": st.integers(-2, 9).map(str),
    "v": st.one_of(
        st.integers(0, ROWS - 1).map(lambda i: repr((i - ROWS // 2) / 8.0)),
        st.sampled_from(
            ["-3000.5", "99999.0", "1e999", "-1e999", "(0.0 * 1e999)"]
        ),
    ),
}


@st.composite
def membership(draw, column=None, negated=False):
    column = column or draw(st.sampled_from(sorted(LITERALS)))
    values = draw(st.lists(LITERALS[column], min_size=1, max_size=8))
    keyword = "NOT IN" if negated else "IN"
    return f"{column} {keyword} ({', '.join(values)})"


@st.composite
def between(draw):
    column = draw(st.sampled_from(["id", "v"]))
    edge = st.integers(0, ROWS)
    low, high = sorted(draw(st.tuples(edge, edge)))
    if column == "v":
        low, high = ((bound - ROWS // 2) / 8.0 for bound in (low, high))
    return f"{column} BETWEEN {low} AND {high}"


@st.composite
def two_column_or(draw):
    first, second = draw(st.permutations(sorted(LITERALS)))[:2]
    return f"({draw(membership(first))} OR {draw(membership(second))})"


PREDICATE = st.one_of(
    membership(),
    membership(),
    membership(negated=True),
    between(),
    two_column_or(),
)
WHERE = st.lists(PREDICATE, min_size=1, max_size=3).map(" AND ".join)


@settings(max_examples=40, deadline=None)
@given(where=WHERE)
def test_pruned_rows_equal_unpruned_on_every_path(engines, sessions, where):
    sql = f"SELECT id FROM p WHERE {where}"
    want = ids(engines[SERIAL], SERIAL, sql, pruning=False)
    for path in PATHS:
        got = ids(engines[path], path, sql, session=sessions.get(path))
        assert got == want, (str(path), sql)


@pytest.mark.parametrize("path", [SERIAL, DISK], ids=str)
@settings(max_examples=20, deadline=None)
@given(keys=st.lists(st.integers(0, ROWS - 1), min_size=1, max_size=8))
def test_in_list_scans_at_most_one_block_per_value(engines, path, keys):
    database = engines[path]
    sql = f"SELECT id FROM p WHERE id IN ({', '.join(map(str, keys))})"
    assert ids(database, path, sql) == sorted(set(keys))
    skipped = database.last_profile.counters.get("scan.blocks_skipped")
    assert skipped >= BLOCKS - len(set(keys))
