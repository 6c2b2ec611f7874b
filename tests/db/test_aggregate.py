"""Aggregation operators: hash, ordered, and their equivalence."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.db.engine import Database
from repro.db.expressions import BinaryOp, ColumnRef, Literal
from repro.db.operators import (
    AggregateSpec,
    ExecutionContext,
    HashAggregate,
    OrderedAggregate,
    TableScan,
)
from repro.db.operators.misc import UnionAll, ValuesOperator
from repro.db.schema import Schema
from repro.db.table import Table
from repro.db.types import SqlType
from repro.db.udf import PythonUdf
from repro.errors import PlanError


def values_in_batches(context, schema, rows, size):
    """*rows* as a source of *size*-row batches: a UNION ALL of VALUES
    operators, each of which emits its rows as one batch."""
    return UnionAll(
        context,
        [
            ValuesOperator(context, schema, rows[start : start + size])
            for start in range(0, max(len(rows), 1), size)
        ],
    )


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


@settings(max_examples=80, deadline=None)
@given(
    keys=st.lists(
        st.tuples(
            st.integers(min_value=-3, max_value=3),
            st.integers(min_value=0, max_value=2),
        ),
        max_size=200,
    ),
    functions=st.sets(
        st.sampled_from(["SUM", "COUNT", "MIN", "MAX", "AVG"]),
        min_size=1,
        max_size=3,
    ),
    nans=st.sets(st.integers(min_value=0, max_value=40), max_size=4),
)
# one group over three batches, its NaN in the second
@example(keys=[(0, 0)] * 20, functions={"MIN", "MAX"}, nans={10})
def test_hash_equals_ordered_on_sorted_input(keys, functions, nans):
    """Property: both strategies agree exactly on any input sorted by
    the two group keys (so a batch may continue the first key but not
    the second), NaNs included.  Values are halves, so every float32
    sum is exact in any association."""
    keys = sorted(keys)
    values = [
        np.nan if row in nans else float(g) * 0.5 + h + 1.0
        for row, (g, h) in enumerate(keys)
    ]
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
        np.testing.assert_array_equal(
            np.array(left[2:], dtype=np.float64),
            np.array(right[2:], dtype=np.float64),
        )


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
    source = values_in_batches(context, schema, rows, 13)
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


class TestNanAcrossBatches:
    """OrderedAggregate merges a group's batches with the ufuncs that
    reduce each batch, so a NaN in any batch wins MIN and MAX."""

    SQL = "SELECT g, MIN(v) AS lo, MAX(v) AS hi FROM s GROUP BY g"

    def run(self, sorted_by: str):
        db = Database()
        db.execute(f"CREATE TABLE s (g INTEGER, v DOUBLE){sorted_by}")
        values = np.arange(2048, dtype=np.float64)
        values[1500] = np.nan
        db.table("s").append_columns(
            g=np.zeros(2048, dtype=np.int64), v=values
        )
        return db.explain(self.SQL), db.execute(self.SQL).rows

    @pytest.mark.parametrize(
        "sorted_by, strategy",
        [(" SORTED BY (g)", "OrderedAggregate"), ("", "HashAggregate")],
    )
    def test_nan_in_a_later_batch_wins(self, sorted_by, strategy):
        plan, rows = self.run(sorted_by)
        assert strategy in plan
        ((group, low, high),) = rows
        assert group == 0
        assert np.isnan(low) and np.isnan(high)


def test_streaming_keys_follow_the_input_order():
    """GROUP BY h, g over input sorted by (g, h) streams in (g, h)
    order, so ORDER BY h, g still needs its Sort."""
    db = Database()
    db.execute(
        "CREATE TABLE u (g INTEGER, h INTEGER, v INTEGER) SORTED BY (g, h)"
    )
    db.table("u").append_rows([(1, 2, 1), (2, 1, 1), (3, 0, 1)])
    sql = "SELECT h, g, SUM(v) AS s FROM u GROUP BY h, g ORDER BY h, g"
    plan = db.explain(sql)
    assert "OrderedAggregate(by [u.g, u.h]" in plan and "Sort(" in plan
    assert db.execute(sql).rows == [(0, 3, 1), (1, 2, 1), (2, 1, 1)]


def _bits(result, name):
    return result.column(name).tobytes()


#: every aggregate of the duplicate-argument query, each once more alone
SHARED = ["SUM(v)", "AVG(v)", "MIN(v)", "COUNT(v)", "COUNT(*)", "MAX(v)",
          "SUM(v)", "AVG(v * 2)", "SUM(v * 2)"]


@pytest.mark.parametrize("compiled", [True, False])
@pytest.mark.parametrize(
    "sorted_by, keys, strategy",
    [
        ("", "g", "HashAggregate"),
        ("", "g, h", "HashAggregate"),
        (" SORTED BY (g)", "g", "OrderedAggregate"),
        (" SORTED BY (g)", "g, h", "SegmentedAggregate"),
    ],
)
def test_shared_arguments_match_one_aggregate_per_query(
    compiled, sorted_by, keys, strategy
):
    """Aggregates sharing an argument share its column and reduction;
    each result is bit-identical to the aggregate run on its own."""
    rng = np.random.default_rng(5)
    rows = 5000
    db = Database()
    db.planner_options = dataclasses.replace(
        db.planner_options,
        use_compiled_kernels=compiled,
        use_segmented_aggregation=True,
    )
    db.execute(
        f"CREATE TABLE d (g INTEGER, h INTEGER, v DOUBLE){sorted_by}"
    )
    values = rng.standard_normal(rows) * 1e3
    values[rng.random(rows) < 0.01] = np.nan
    db.table("d").append_columns(
        g=np.sort(rng.integers(0, 9, rows)),
        h=rng.integers(-3, 3, rows),
        v=values,
    )
    items = ", ".join(
        f"{aggregate} AS a{slot}" for slot, aggregate in enumerate(SHARED)
    )
    sql = f"SELECT {keys}, {items} FROM d GROUP BY {keys}"
    assert strategy in db.explain(sql)
    together = db.execute(sql)
    for slot, aggregate in enumerate(SHARED):
        alone = db.execute(
            f"SELECT {keys}, {aggregate} AS a{slot} FROM d GROUP BY {keys}"
        )
        for key in keys.split(", "):
            assert _bits(together, key) == _bits(alone, key)
        assert _bits(together, f"a{slot}") == _bits(alone, f"a{slot}")


class TestBlockBatches:
    """Every aggregate takes one batch per block from its scan; UDFs
    keep one call per scan vector."""

    @pytest.fixture
    def db(self):
        db = Database()
        db.execute("CREATE TABLE b (g INTEGER, v DOUBLE)")
        db.table("b").append_columns(
            g=np.arange(10_000) % 7, v=np.arange(10_000) * 0.5
        )
        db.execute("CREATE TABLE bs (g INTEGER, v DOUBLE) SORTED BY (g)")
        db.table("bs").append_columns(
            g=np.sort(np.arange(10_000) % 7), v=np.arange(10_000) * 0.5
        )
        return db

    def test_hash_aggregate_scans_whole_blocks(self, db):
        for table, strategy in (
            ("b", "HashAggregate"),
            ("bs", "OrderedAggregate"),
        ):
            plan, _ = db.explain_analyze(
                f"SELECT g, SUM(v) AS s FROM {table} GROUP BY g"
            )
            assert strategy in plan
            # blocks of 4096, 4096 and 1808 rows: the last one's whole
            # vector and its trailing partial vector are batches of
            # their own
            assert f"TableScan({table})  [rows: 10000] [batches: 4]" in plan

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT g, SUM(probe(v)) AS s FROM b GROUP BY g",
            "SELECT g, SUM(v) AS s FROM b WHERE probe(v) >= 0 GROUP BY g",
            "SELECT probe(v) AS k, COUNT(*) AS n FROM b GROUP BY probe(v)",
        ],
    )
    @pytest.mark.parametrize("compiled", [True, False])
    def test_udf_inputs_keep_scan_vectors(self, db, sql, compiled):
        db.planner_options = dataclasses.replace(
            db.planner_options, use_compiled_kernels=compiled
        )
        lengths = []

        def probe(values):
            lengths.append(len(values))
            return values

        db.register_udf(
            PythonUdf(
                "probe", 1, probe, result_type=SqlType.DOUBLE, marshal=False
            )
        )
        assert "vector=" not in db.explain(sql)
        db.execute(sql)
        assert sum(lengths) == 10_000
        assert max(lengths) == 1024


def test_shared_arguments_follow_literal_slots_in_cached_plans():
    """Equal arguments with literals from different statement slots keep
    their own input: a cached plan clones its kernels for statements of
    the same shape whose literals then differ."""
    shape = "SELECT g, SUM(v * {}) AS a, SUM(v * {}) AS b FROM d GROUP BY g"

    def load(db):
        db.execute("CREATE TABLE d (g INTEGER, v DOUBLE)")
        db.table("d").append_columns(
            g=np.arange(3000) % 5, v=np.arange(3000) * 0.25
        )
        return db

    db = load(Database())
    for literals in ((2, 2), (2, 2), (2, 3)):
        cached = db.execute(shape.format(*literals))
    assert db.query_log.entries()[-1]["plan_cached"]
    fresh = load(Database()).execute(shape.format(2, 3))
    for name in ("g", "a", "b"):
        assert _bits(cached, name) == _bits(fresh, name)


@settings(max_examples=25, deadline=None)
@example(sizes=[2000] * 5, seed=0)
@given(
    sizes=st.lists(
        st.integers(min_value=1, max_value=3000), min_size=1, max_size=8
    ).filter(lambda sizes: sum(sizes) > 4096),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_ordered_matches_hash_bitwise_across_blocks(sizes, seed):
    """Groups straddling the 4096-row block boundary reduce to the same
    float bits whether the aggregate streams or hashes: both reduce a
    group's rows in one row-order pass of the shared reduction, never
    from per-batch partials."""
    db = Database()
    db.execute("CREATE TABLE t (g INTEGER, v DOUBLE, f FLOAT) SORTED BY (g)")
    rng = np.random.default_rng(seed)
    rows = sum(sizes)
    db.table("t").append_columns(
        g=np.repeat(np.arange(len(sizes)), sizes),
        v=rng.normal(size=rows),
        f=rng.normal(size=rows).astype(np.float32),
    )
    sql = (
        "SELECT g, SUM(v) AS s, AVG(v) AS a, MIN(v) AS lo, MAX(f) AS hi, "
        "SUM(f) AS sf, COUNT(*) AS c FROM t GROUP BY g"
    )
    results = {}
    for ordered, strategy in (
        (True, "OrderedAggregate"),
        (False, "HashAggregate"),
    ):
        db.planner_options = dataclasses.replace(
            db.planner_options, use_ordered_aggregation=ordered
        )
        assert strategy in db.explain(sql)
        results[strategy] = db.execute(sql)
        if ordered:
            # one group's rows at most: key g, then v and f
            assert db.last_profile.peak_memory_bytes <= max(sizes) * 20
    for name in results["HashAggregate"].schema.names:
        assert _bits(results["OrderedAggregate"], name) == _bits(
            results["HashAggregate"], name
        ), name
