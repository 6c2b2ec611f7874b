"""Aggregation operators: hash, ordered, and their equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.expressions import BinaryOp, ColumnRef, Literal
from repro.db.operators import (
    AggregateSpec,
    ExecutionContext,
    HashAggregate,
    OrderedAggregate,
    TableScan,
)
from repro.db.operators.misc import ValuesOperator
from repro.db.schema import Schema
from repro.db.table import Table
from repro.db.types import SqlType
from repro.errors import PlanError


@pytest.fixture
def context() -> ExecutionContext:
    return ExecutionContext(vector_size=16)


def grouped_table(keys, values, sort_key=()):
    schema = Schema.of(("g", SqlType.INTEGER), ("x", SqlType.FLOAT))
    table = Table("t", schema, sort_key=sort_key, block_size=8)
    table.append_columns(
        g=np.asarray(keys, dtype=np.int64),
        x=np.asarray(values, dtype=np.float32),
    )
    return table


def collect(operator):
    return sorted(
        row for batch in operator.batches() for row in batch.to_rows()
    )


class TestAggregateSpec:
    def test_unknown_function_rejected(self):
        with pytest.raises(PlanError):
            AggregateSpec("MEDIAN", ColumnRef("x"), "m")

    def test_sum_requires_argument(self):
        with pytest.raises(PlanError):
            AggregateSpec("SUM", None, "s")

    def test_count_star_allowed(self):
        spec = AggregateSpec("COUNT", None, "c")
        assert spec.function == "COUNT"

    def test_output_types(self):
        schema = Schema.of(("x", SqlType.FLOAT))
        assert (
            AggregateSpec("SUM", ColumnRef("x"), "s").output_type(schema)
            is SqlType.FLOAT
        )
        assert (
            AggregateSpec("COUNT", None, "c").output_type(schema)
            is SqlType.INTEGER
        )
        assert (
            AggregateSpec("AVG", ColumnRef("x"), "a").output_type(schema)
            is SqlType.DOUBLE
        )


class TestHashAggregate:
    def test_sum_count_min_max_avg(self, context):
        table = grouped_table([1, 2, 1, 2, 1], [1.0, 2.0, 3.0, 4.0, 5.0])
        agg = HashAggregate(
            context,
            TableScan(context, table),
            [ColumnRef("g")],
            ["g"],
            [
                AggregateSpec("SUM", ColumnRef("x"), "s"),
                AggregateSpec("COUNT", None, "c"),
                AggregateSpec("MIN", ColumnRef("x"), "lo"),
                AggregateSpec("MAX", ColumnRef("x"), "hi"),
                AggregateSpec("AVG", ColumnRef("x"), "a"),
            ],
        )
        rows = collect(agg)
        assert rows == [
            (1, 9.0, 3, 1.0, 5.0, 3.0),
            (2, 6.0, 2, 2.0, 4.0, 3.0),
        ]

    def test_aggregate_over_expression(self, context):
        table = grouped_table([1, 1], [2.0, 3.0])
        agg = HashAggregate(
            context,
            TableScan(context, table),
            [ColumnRef("g")],
            ["g"],
            [
                AggregateSpec(
                    "SUM",
                    BinaryOp("*", ColumnRef("x"), Literal.of(2.0)),
                    "s",
                )
            ],
        )
        assert collect(agg) == [(1, 10.0)]

    def test_empty_input(self, context):
        table = grouped_table([], [])
        agg = HashAggregate(
            context,
            TableScan(context, table),
            [ColumnRef("g")],
            ["g"],
            [AggregateSpec("SUM", ColumnRef("x"), "s")],
        )
        assert collect(agg) == []

    def test_memory_accounted_and_released(self, context):
        table = grouped_table(range(100), range(100))
        agg = HashAggregate(
            context,
            TableScan(context, table),
            [ColumnRef("g")],
            ["g"],
            [AggregateSpec("SUM", ColumnRef("x"), "s")],
        )
        collect(agg)
        assert context.memory.peak_bytes > 0
        assert context.memory.current_bytes == 0

    def test_float32_sum_stays_float32(self, context):
        table = grouped_table([1, 1], [0.5, 0.25])
        agg = HashAggregate(
            context,
            TableScan(context, table),
            [ColumnRef("g")],
            ["g"],
            [AggregateSpec("SUM", ColumnRef("x"), "s")],
        )
        batch = next(iter(agg.batches()))
        assert batch.column("s").dtype == np.float32

    def test_distinct_style_no_aggregates(self, context):
        table = grouped_table([3, 3, 1, 1, 2], [0, 0, 0, 0, 0])
        agg = HashAggregate(
            context,
            TableScan(context, table),
            [ColumnRef("g")],
            ["g"],
            [],
        )
        assert collect(agg) == [(1,), (2,), (3,)]


class TestOrderedAggregate:
    def test_requires_covering_order(self, context):
        table = grouped_table([1, 2], [1.0, 2.0])  # no sort key
        with pytest.raises(PlanError):
            OrderedAggregate(
                context,
                TableScan(context, table),
                [ColumnRef("g")],
                ["g"],
                [AggregateSpec("SUM", ColumnRef("x"), "s")],
            )

    def test_requires_bare_columns(self, context):
        table = grouped_table([1, 2], [1.0, 2.0], sort_key=("g",))
        with pytest.raises(PlanError):
            OrderedAggregate(
                context,
                TableScan(context, table),
                [BinaryOp("+", ColumnRef("g"), Literal.of(1))],
                ["g1"],
                [AggregateSpec("SUM", ColumnRef("x"), "s")],
            )

    def test_streaming_groups_across_batches(self, context):
        keys = sorted([i // 7 for i in range(100)])
        table = grouped_table(keys, np.ones(100), sort_key=("g",))
        agg = OrderedAggregate(
            context,
            TableScan(context, table),
            [ColumnRef("g")],
            ["g"],
            [AggregateSpec("SUM", ColumnRef("x"), "s")],
        )
        rows = collect(agg)
        assert len(rows) == len(set(keys))
        assert all(total in (7.0, 2.0) for _, total in rows)

    def test_single_group_spanning_everything(self, context):
        table = grouped_table([5] * 50, np.ones(50), sort_key=("g",))
        agg = OrderedAggregate(
            context,
            TableScan(context, table),
            [ColumnRef("g")],
            ["g"],
            [AggregateSpec("SUM", ColumnRef("x"), "s")],
        )
        assert collect(agg) == [(5, 50.0)]

    def test_ordering_property_exposed(self, context):
        table = grouped_table([1, 2], [1.0, 2.0], sort_key=("g",))
        agg = OrderedAggregate(
            context,
            TableScan(context, table),
            [ColumnRef("g")],
            ["g"],
            [AggregateSpec("SUM", ColumnRef("x"), "s")],
        )
        assert agg.ordering == ("g",)

    def test_constant_memory(self, context):
        table = grouped_table(
            sorted(range(1000)), np.ones(1000), sort_key=("g",)
        )
        agg = OrderedAggregate(
            context,
            TableScan(context, table),
            [ColumnRef("g")],
            ["g"],
            [AggregateSpec("SUM", ColumnRef("x"), "s")],
        )
        rows = collect(agg)
        assert len(rows) == 1000
        # Order-based aggregation never registers buffered input.
        assert context.memory.by_category.get("aggregation", 0) == 0


@settings(max_examples=40, deadline=None)
@given(
    keys=st.lists(
        st.tuples(
            st.integers(min_value=-5, max_value=5),
            st.integers(min_value=0, max_value=2),
        ),
        max_size=200,
    ),
    functions=st.sets(
        st.sampled_from(["SUM", "COUNT", "MIN", "MAX", "AVG"]),
        min_size=1,
        max_size=3,
    ),
)
def test_hash_equals_ordered_on_sorted_input(keys, functions):
    """Property: both strategies agree on any input sorted by the two
    group keys (so a batch may continue the first key but not the
    second)."""
    keys = sorted(keys)
    values = [float(g) * 0.5 + h + 1.0 for g, h in keys]
    context = ExecutionContext(vector_size=7)
    specs = [
        AggregateSpec(
            function,
            None if function == "COUNT" else ColumnRef("x"),
            f"out_{function}",
        )
        for function in sorted(functions)
    ]
    schema = Schema.of(
        ("g", SqlType.INTEGER), ("h", SqlType.INTEGER), ("x", SqlType.FLOAT)
    )

    def run(cls):
        table = Table("t", schema, sort_key=("g", "h"), block_size=8)
        table.append_columns(
            g=np.asarray([g for g, _ in keys], dtype=np.int64),
            h=np.asarray([h for _, h in keys], dtype=np.int64),
            x=np.asarray(values, dtype=np.float32),
        )
        scan = TableScan(context, table)
        group = [ColumnRef("g"), ColumnRef("h")]
        return collect(cls(context, scan, group, ["g", "h"], specs))

    hash_rows = run(HashAggregate)
    ordered_rows = run(OrderedAggregate)
    assert len(hash_rows) == len(ordered_rows)
    for left, right in zip(hash_rows, ordered_rows):
        assert left[:2] == right[:2]
        np.testing.assert_allclose(left[2:], right[2:], rtol=1e-5)


@settings(max_examples=30, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4),
            st.integers(min_value=0, max_value=4),
            st.floats(
                min_value=-100,
                max_value=100,
                allow_nan=False,
                width=32,
            ),
        ),
        max_size=150,
    )
)
def test_hash_aggregate_matches_python_reference(rows):
    """Property: multi-key hash aggregation equals a dict reference."""
    context = ExecutionContext(vector_size=13)
    schema = Schema.of(
        ("a", SqlType.INTEGER),
        ("b", SqlType.INTEGER),
        ("x", SqlType.FLOAT),
    )
    source = ValuesOperator(context, schema, rows)
    agg = HashAggregate(
        context,
        source,
        [ColumnRef("a"), ColumnRef("b")],
        ["a", "b"],
        [
            AggregateSpec("SUM", ColumnRef("x"), "s"),
            AggregateSpec("COUNT", None, "c"),
        ],
    )
    got = {
        (row[0], row[1]): (row[2], row[3])
        for batch in agg.batches()
        for row in batch.to_rows()
    }
    expected: dict = {}
    for a, b, x in rows:
        total, count = expected.get((a, b), (np.float32(0.0), 0))
        expected[(a, b)] = (total + np.float32(x), count + 1)
    assert set(got) == set(expected)
    for key, (total, count) in expected.items():
        np.testing.assert_allclose(got[key][0], total, rtol=1e-4)
        assert got[key][1] == count
