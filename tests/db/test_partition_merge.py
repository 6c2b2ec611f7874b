"""Property tests: aggregation merged across K disjoint partitions is
bit-exact against the single-partition run.

Two partitioning regimes are exercised, matching the two partition
merge strategies (see repro.db.plan.fragments):

- *hash-based*: rows are routed by ``abs(hash(group)) % K`` — every
  group wholly owned by one partition, results merged by concat;
- *order-based*: rows sorted by group key and split at group
  boundaries into K contiguous runs — also disjoint, merged by concat;
- the *partial* regime splits rows round-robin (groups span
  partitions) and re-aggregates decomposed partials at the merge.

Values are multiples of 1/8 so float SUM/AVG folds are exact in any
order; bit-exactness is then a strict equality check.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.compile import KernelCompiler
from repro.db.engine import Database
from repro.db.operators import ExecutionContext
from repro.db.plan.physical import GatherExchange
from repro.db.schema import Column, Schema
from repro.db.plan.fragments import (
    FragmentPlan,
    _decompose_aggregation,
    build_merge_plan,
)
from repro.db.sql.parser import parse_statement
from repro.db.types import SqlType
from repro.db.vector import VectorBatch

SQL = (
    "SELECT g, SUM(v) AS s, COUNT(v) AS c, AVG(v) AS a, "
    "MIN(v) AS lo, MAX(v) AS hi FROM t GROUP BY g"
)

SCHEMA = Schema((Column("g", SqlType.INTEGER), Column("v", SqlType.DOUBLE)))

rows_strategy = st.lists(
    st.tuples(
        st.integers(0, 6),
        st.integers(-800, 800).map(lambda n: n / 8.0),
    ),
    min_size=1,
    max_size=60,
)


def _run(rows, sql=SQL):
    """Run *sql* over *rows* in a throwaway in-memory engine."""
    db = Database()
    table = db.create_table("t", SCHEMA)
    if rows:
        table.append_batch(
            VectorBatch.from_dict(
                SCHEMA,
                {
                    "g": np.array([g for g, _ in rows], dtype=np.int64),
                    "v": np.array([v for _, v in rows], dtype=np.float64),
                },
            )
        )
    return db.execute(sql)


def _merge(fragment, results):
    """Coordinator-side merge of per-partition results (production path)."""
    context = ExecutionContext(vector_size=1024)
    schema = results[0].schema
    sources = [result.batches for result in results]
    gather = GatherExchange(context, schema, sources)
    plan = build_merge_plan(context, fragment, gather, KernelCompiler())
    return plan.schema, list(plan.batches())


def _sorted_rows(schema, batches_or_result):
    if hasattr(batches_or_result, "rows"):
        rows = batches_or_result.rows
    else:
        rows = [
            tuple(batch.arrays[i][j] for i in range(len(schema)))
            for batch in batches_or_result
            for j in range(len(batch))
        ]
    return sorted(rows)


def _partial_fragment(sql=SQL):
    statement = parse_statement(sql)
    fragment = FragmentPlan(statement=statement, merge="partial")
    core = dataclasses.replace(
        statement, order_by=(), limit=None, offset=0, distinct=False
    )
    _decompose_aggregation(fragment, core)
    return fragment


class TestDisjointPartitions:
    """Groups wholly owned by one partition: concat merge, bit-exact."""

    @settings(max_examples=20, deadline=None)
    @given(rows_strategy, st.sampled_from([2, 3, 5]))
    def test_hash_partitioned(self, rows, k):
        parts = [
            [row for row in rows if abs(hash(row[0])) % k == shard]
            for shard in range(k)
        ]
        merged = [
            row for result in map(_run, parts) for row in result.rows
        ]
        single = _run(rows)
        assert sorted(merged) == sorted(single.rows)

    @settings(max_examples=20, deadline=None)
    @given(rows_strategy, st.sampled_from([2, 3, 5]))
    def test_order_partitioned(self, rows, k):
        ordered = sorted(rows, key=lambda row: row[0])
        groups = sorted({g for g, _ in ordered})
        parts = [
            [
                row
                for row in ordered
                if groups.index(row[0]) % k == shard
            ]
            for shard in range(k)
        ]
        merged = [
            row for result in map(_run, parts) for row in result.rows
        ]
        single = _run(rows)
        assert sorted(merged) == sorted(single.rows)


class TestPartialMerge:
    """Groups span partitions: decomposed partials re-aggregated."""

    @settings(max_examples=20, deadline=None)
    @given(rows_strategy, st.sampled_from([2, 3, 5]))
    def test_round_robin_partial_merge(self, rows, k):
        fragment = _partial_fragment()
        parts = [rows[shard::k] for shard in range(k)]
        results = [
            _run_statement(part, fragment.statement)
            for part in parts
            if part
        ]
        schema, batches = _merge(fragment, results)
        single = _run(rows)
        assert tuple(schema.names) == tuple(single.schema.names)
        assert _sorted_rows(schema, batches) == _sorted_rows(
            single.schema, single
        )

    def test_one_partial_per_function_and_argument(self):
        fragment = _partial_fragment(
            "SELECT g, SUM(v) AS s, COUNT(v) AS c, AVG(v) AS a "
            "FROM t GROUP BY g"
        )
        partials = [
            str(item.expression)
            for item in fragment.statement.select_items[1:]
        ]
        assert partials == ["SUM(v)", "COUNT(v)"]
        assert len(fragment.merge_specs) == 2

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 6), st.floats(-1e6, 1e6)),
            min_size=1,
            max_size=60,
        ),
        st.sampled_from([2, 3, 5]),
    )
    def test_shared_partials_merge_avg_bit_identically(self, rows, k):
        """AVG reusing SUM's and COUNT's partials merges to the same bits
        as AVG decomposed on its own (arbitrary floats: not exact)."""
        parts = [rows[shard::k] for shard in range(k)]

        def merged_avg(sql):
            fragment = _partial_fragment(sql)
            results = [
                _run_statement(part, fragment.statement)
                for part in parts
                if part
            ]
            schema, batches = _merge(fragment, results)
            position = schema.position_of("a")
            return {
                row[0]: row[position]
                for row in _sorted_rows(schema, batches)
            }

        shared = merged_avg(
            "SELECT g, SUM(v) AS s, COUNT(v) AS c, AVG(v) AS a "
            "FROM t GROUP BY g"
        )
        alone = merged_avg("SELECT g, AVG(v) AS a FROM t GROUP BY g")
        assert shared.keys() == alone.keys()
        for group, value in alone.items():
            assert np.float64(shared[group]).tobytes() == (
                np.float64(value).tobytes()
            )

    def test_having_applied_after_merge(self):
        sql = (
            "SELECT g, SUM(v) AS s FROM t GROUP BY g "
            "HAVING COUNT(v) > 2"
        )
        rows = [(1, 0.5), (1, 1.5), (1, 2.0), (2, 4.0), (2, 0.25)]
        fragment = _partial_fragment(sql)
        assert fragment.having is not None
        parts = [rows[0::2], rows[1::2]]
        results = [
            _run_statement(part, fragment.statement)
            for part in parts
        ]
        schema, batches = _merge(fragment, results)
        single = _run(rows, sql)
        assert _sorted_rows(schema, batches) == _sorted_rows(
            single.schema, single
        )


def _run_statement(rows, statement):
    db = Database()
    table = db.create_table("t", SCHEMA)
    if rows:
        table.append_batch(
            VectorBatch.from_dict(
                SCHEMA,
                {
                    "g": np.array([g for g, _ in rows], dtype=np.int64),
                    "v": np.array([v for _, v in rows], dtype=np.float64),
                },
            )
        )
    return db.execute_statement(statement)
