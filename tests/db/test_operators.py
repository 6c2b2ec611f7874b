"""Unit tests of the physical operators, driven directly (no SQL)."""

import numpy as np
import pytest

from repro.db.compile import KernelCompiler
from repro.db.expressions import BinaryOp, ColumnRef, Literal
from repro.db.operators import (
    CrossJoin,
    ExecutionContext,
    HashJoin,
    LimitOperator,
    SortOperator,
    TableScan,
    UnionAll,
    ValuesOperator,
)
from repro.db.operators.misc import RenameOperator
from repro.db.plan.physical import pipeline
from repro.db.schema import Schema
from repro.db.table import Table
from repro.db.types import SqlType
from repro.errors import ExecutionError


@pytest.fixture
def context() -> ExecutionContext:
    return ExecutionContext(vector_size=32)


def make_table(name, rows, sort_key=(), num_partitions=1):
    schema = Schema.of(("id", SqlType.INTEGER), ("v", SqlType.FLOAT))
    table = Table(
        name,
        schema,
        sort_key=sort_key,
        num_partitions=num_partitions,
        block_size=16,
    )
    ids = np.arange(rows, dtype=np.int64)
    table.append_columns(id=ids, v=ids.astype(np.float32) * 0.5)
    return table


def collect(operator):
    return [row for batch in operator.batches() for row in batch.to_rows()]


class TestScanAndLifecycle:
    def test_scan_all_rows(self, context):
        scan = TableScan(context, make_table("t", 100))
        assert len(collect(scan)) == 100

    def test_double_open_rejected(self, context):
        scan = TableScan(context, make_table("t", 5))
        scan.open()
        with pytest.raises(ExecutionError):
            scan.open()

    def test_scan_ordering_property(self, context):
        sorted_table = make_table("t", 10, sort_key=("id",))
        assert TableScan(context, sorted_table).ordering == ("id",)
        multi = make_table("m", 10, sort_key=("id",), num_partitions=2)
        assert TableScan(context, multi).ordering == ()
        assert TableScan(context, multi, partition_index=1).ordering == (
            "id",
        )

    def test_scan_counts_pruned_blocks(self, context):
        from repro.db.column import ColumnRange

        scan = TableScan(
            context,
            make_table("t", 100),
            ranges=[ColumnRange("id", 90, None)],
        )
        list(scan.batches())
        assert scan.blocks_pruned > 0


def filtered(context, child, predicate, generate):
    """The filter pipeline, with a generated or an interpreted kernel."""
    compiler = KernelCompiler(generate=generate)
    return pipeline(context, compiler, child, [predicate])


def projected(context, child, expressions, names, generate):
    compiler = KernelCompiler(generate=generate)
    return pipeline(context, compiler, child, [], expressions, names)


#: every pipeline test runs on both kernels of the one operator
KERNELS = (False, True)


class TestFilterProject:
    def test_filter_keeps_matching(self, context):
        for generate in KERNELS:
            scan = TableScan(context, make_table("t", 50))
            predicate = BinaryOp("<", ColumnRef("id"), Literal.of(5))
            operator = filtered(context, scan, predicate, generate)
            assert operator.kernel.generated is generate
            rows = collect(operator)
            assert [row[0] for row in rows] == [0, 1, 2, 3, 4]

    def test_filter_rejects_non_boolean(self, context):
        # no generated form: both compilers give the interpreted kernel
        for generate in KERNELS:
            scan = TableScan(context, make_table("t", 5))
            operator = filtered(context, scan, ColumnRef("id"), generate)
            with pytest.raises(ExecutionError):
                collect(operator)

    def test_filter_preserves_ordering(self, context):
        for generate in KERNELS:
            scan = TableScan(context, make_table("t", 5, sort_key=("id",)))
            predicate = BinaryOp(">", ColumnRef("id"), Literal.of(1))
            operator = filtered(context, scan, predicate, generate)
            assert operator.ordering == ("id",)

    def test_project_computes_and_names(self, context):
        for generate in KERNELS:
            scan = TableScan(context, make_table("t", 3))
            project = projected(
                context,
                scan,
                [
                    BinaryOp("*", ColumnRef("v"), Literal.of(2)),
                    ColumnRef("id"),
                ],
                ["double_v", "key"],
                generate,
            )
            assert project.schema.names == ("double_v", "key")
            assert collect(project)[2] == (2.0, 2)

    def test_project_ordering_through_rename(self, context):
        for generate in KERNELS:
            scan = TableScan(context, make_table("t", 3, sort_key=("id",)))
            project = projected(
                context, scan, [ColumnRef("id")], ["renamed"], generate
            )
            assert project.ordering == ("renamed",)

    def test_project_ordering_breaks_on_computed_key(self, context):
        for generate in KERNELS:
            scan = TableScan(context, make_table("t", 3, sort_key=("id",)))
            project = projected(
                context,
                scan,
                [BinaryOp("+", ColumnRef("id"), Literal.of(1))],
                ["idplus"],
                generate,
            )
            assert project.ordering == ()

    def test_rename_operator(self, context):
        scan = TableScan(context, make_table("t", 3, sort_key=("id",)))
        rename = RenameOperator(context, scan, ["t.id", "t.v"])
        assert rename.schema.names == ("t.id", "t.v")
        assert rename.ordering == ("t.id",)


class TestJoins:
    def test_hash_join_inner(self, context):
        left = TableScan(context, make_table("l", 10))
        right = ValuesOperator(
            context,
            Schema.of(("key", SqlType.INTEGER), ("w", SqlType.FLOAT)),
            [(2, 10.0), (2, 20.0), (5, 50.0), (99, 0.0)],
        )
        join = HashJoin(
            context, left, right, [ColumnRef("id")], [ColumnRef("key")]
        )
        rows = collect(join)
        assert sorted(rows) == [
            (2, 1.0, 2, 10.0),
            (2, 1.0, 2, 20.0),
            (5, 2.5, 5, 50.0),
        ]

    def test_hash_join_preserves_probe_order(self, context):
        left = TableScan(context, make_table("l", 20, sort_key=("id",)))
        right = ValuesOperator(
            context,
            Schema.of(("key", SqlType.INTEGER),),
            [(i,) for i in range(20)],
        )
        join = HashJoin(
            context, left, right, [ColumnRef("id")], [ColumnRef("key")]
        )
        ids = [row[0] for row in collect(join)]
        assert ids == sorted(ids)
        assert join.ordering == ("id",)

    def test_hash_join_multi_key(self, context):
        schema = Schema.of(("a", SqlType.INTEGER), ("b", SqlType.INTEGER))
        left = ValuesOperator(context, schema, [(1, 1), (1, 2), (2, 1)])
        right = ValuesOperator(
            context,
            Schema.of(("c", SqlType.INTEGER), ("d", SqlType.INTEGER)),
            [(1, 2), (2, 1), (2, 2)],
        )
        join = HashJoin(
            context,
            left,
            right,
            [ColumnRef("a"), ColumnRef("b")],
            [ColumnRef("c"), ColumnRef("d")],
        )
        assert sorted(collect(join)) == [(1, 2, 1, 2), (2, 1, 2, 1)]

    def test_hash_join_residual(self, context):
        left = ValuesOperator(
            context,
            Schema.of(("a", SqlType.INTEGER), ("x", SqlType.INTEGER)),
            [(1, 5), (1, 0)],
        )
        right = ValuesOperator(
            context,
            Schema.of(("b", SqlType.INTEGER), ("y", SqlType.INTEGER)),
            [(1, 3)],
        )
        join = HashJoin(
            context,
            left,
            right,
            [ColumnRef("a")],
            [ColumnRef("b")],
            residual=BinaryOp(">", ColumnRef("x"), ColumnRef("y")),
        )
        assert collect(join) == [(1, 5, 1, 3)]

    def test_hash_join_memory_released(self, context):
        join = HashJoin(
            context,
            RenameOperator(
                context, TableScan(context, make_table("l2", 10)), ["lid", "lv"]
            ),
            TableScan(context, make_table("r2", 10)),
            [ColumnRef("lid")],
            [ColumnRef("id")],
        )
        rows = collect(join)
        assert len(rows) == 10
        assert context.memory.current_bytes == 0
        assert context.memory.peak_bytes > 0

    def test_string_keys_slow_path(self, context):
        left = ValuesOperator(
            context,
            Schema.of(("s", SqlType.VARCHAR),),
            [("a",), ("b",), ("c",)],
        )
        right = ValuesOperator(
            context,
            Schema.of(("t", SqlType.VARCHAR), ("n", SqlType.INTEGER)),
            [("b", 2), ("c", 3)],
        )
        join = HashJoin(
            context, left, right, [ColumnRef("s")], [ColumnRef("t")]
        )
        assert sorted(collect(join)) == [("b", "b", 2), ("c", "c", 3)]

    def test_cross_join(self, context):
        left = ValuesOperator(
            context, Schema.of(("a", SqlType.INTEGER),), [(1,), (2,)]
        )
        right = ValuesOperator(
            context, Schema.of(("b", SqlType.INTEGER),), [(10,), (20,)]
        )
        rows = collect(CrossJoin(context, left, right))
        assert rows == [(1, 10), (1, 20), (2, 10), (2, 20)]

    def test_cross_join_ordering_extends(self, context):
        left = TableScan(context, make_table("l", 4, sort_key=("id",)))
        right = ValuesOperator(
            context, Schema.of(("b", SqlType.INTEGER),), [(1,)]
        )
        join = CrossJoin(context, left, right)
        assert join.ordering == ("id",)

    def test_cross_join_empty_right(self, context):
        left = TableScan(context, make_table("l", 4))
        right = ValuesOperator(
            context, Schema.of(("b", SqlType.INTEGER),), []
        )
        assert collect(CrossJoin(context, left, right)) == []


class TestSortLimitUnion:
    def test_sort_ascending(self, context):
        values = ValuesOperator(
            context,
            Schema.of(("a", SqlType.INTEGER),),
            [(3,), (1,), (2,)],
        )
        rows = collect(SortOperator(context, values, [ColumnRef("a")]))
        assert rows == [(1,), (2,), (3,)]

    def test_sort_descending(self, context):
        values = ValuesOperator(
            context,
            Schema.of(("a", SqlType.INTEGER),),
            [(3,), (1,), (2,)],
        )
        rows = collect(
            SortOperator(context, values, [ColumnRef("a")], [False])
        )
        assert rows == [(3,), (2,), (1,)]

    def test_sort_multi_key(self, context):
        schema = Schema.of(("a", SqlType.INTEGER), ("b", SqlType.INTEGER))
        values = ValuesOperator(
            context, schema, [(1, 2), (0, 9), (1, 1)]
        )
        rows = collect(
            SortOperator(
                context, values, [ColumnRef("a"), ColumnRef("b")]
            )
        )
        assert rows == [(0, 9), (1, 1), (1, 2)]

    def test_limit_offset(self, context):
        scan = TableScan(context, make_table("t", 100))
        rows = collect(LimitOperator(context, scan, 3, offset=10))
        assert [row[0] for row in rows] == [10, 11, 12]

    def test_limit_zero(self, context):
        scan = TableScan(context, make_table("t", 10))
        assert collect(LimitOperator(context, scan, 0)) == []

    def test_union_all(self, context):
        one = ValuesOperator(
            context, Schema.of(("a", SqlType.INTEGER),), [(1,)]
        )
        two = ValuesOperator(
            context, Schema.of(("b", SqlType.INTEGER),), [(2,)]
        )
        rows = collect(UnionAll(context, [one, two]))
        assert rows == [(1,), (2,)]

    def test_union_type_mismatch(self, context):
        one = ValuesOperator(
            context, Schema.of(("a", SqlType.INTEGER),), [(1,)]
        )
        two = ValuesOperator(
            context, Schema.of(("b", SqlType.VARCHAR),), [("x",)]
        )
        with pytest.raises(ExecutionError):
            UnionAll(context, [one, two])

    def test_explain_tree(self, context):
        scan = TableScan(context, make_table("t", 5))
        plan = LimitOperator(context, scan, 1)
        text = plan.explain()
        assert "Limit" in text and "TableScan" in text
