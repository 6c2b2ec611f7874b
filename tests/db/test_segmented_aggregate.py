"""Segmented (partially ordered) aggregation — paper §4.4 pipelining."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.db.engine import Database
from repro.db.expressions import ColumnRef
from repro.db.operators import (
    AggregateSpec,
    ExecutionContext,
    HashAggregate,
    TableScan,
)
from repro.db.planner import PlannerOptions
from repro.db.schema import Schema
from repro.db.table import Table
from repro.db.types import SqlType
from repro.errors import PlanError


def make_table(
    ids, nodes, values, sort_key=("id",), id_type=SqlType.INTEGER
):
    schema = Schema.of(
        ("id", id_type),
        ("node", SqlType.INTEGER),
        ("v", SqlType.FLOAT),
    )
    table = Table("t", schema, sort_key=sort_key, block_size=16)
    table.append_columns(
        id=np.asarray(ids, dtype=id_type.numpy_dtype),
        node=np.asarray(nodes, dtype=np.int64),
        v=np.asarray(values, dtype=np.float32),
    )
    return table


def run_segmented(table, context, prefix_length=1):
    operator = HashAggregate(
        context,
        TableScan(context, table),
        [ColumnRef("id"), ColumnRef("node")],
        ["id", "node"],
        [
            AggregateSpec("SUM", ColumnRef("v"), "s"),
            AggregateSpec("COUNT", None, "c"),
        ],
        prefix_length=prefix_length,
    )
    return sorted(
        row for batch in operator.batches() for row in batch.to_rows()
    )


def reference(ids, nodes, values):
    groups: dict = {}
    for i, n, v in zip(ids, nodes, values):
        s, c = groups.get((i, n), (np.float32(0), 0))
        groups[(i, n)] = (s + np.float32(v), c + 1)
    return sorted(
        (i, n, float(s), c) for (i, n), (s, c) in groups.items()
    )


class TestOperator:
    def test_matches_reference(self):
        rng = np.random.default_rng(0)
        ids = np.sort(rng.integers(0, 40, size=300))
        nodes = rng.integers(0, 5, size=300)
        values = rng.normal(size=300).astype(np.float32)
        context = ExecutionContext(vector_size=23)
        got = run_segmented(make_table(ids, nodes, values), context)
        expected = reference(ids, nodes, values)
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert g[0] == e[0] and g[1] == e[1] and g[3] == e[3]
            np.testing.assert_allclose(g[2], e[2], rtol=1e-5)

    def test_memory_is_transient(self):
        ids = np.sort(np.arange(5000) % 500)
        context = ExecutionContext(vector_size=64)
        run_segmented(
            make_table(ids, ids % 3, np.ones(5000)), context
        )
        # Only segment-sized buffers were ever held.
        assert context.memory.current_bytes == 0
        assert 0 < context.memory.peak_bytes < 5000 * 8

    def test_requires_ordering_on_prefix(self):
        table = make_table([1, 2], [0, 0], [1.0, 1.0], sort_key=())
        context = ExecutionContext()
        with pytest.raises(PlanError, match="ordering"):
            HashAggregate(
                context,
                TableScan(context, table),
                [ColumnRef("id"), ColumnRef("node")],
                ["id", "node"],
                [AggregateSpec("SUM", ColumnRef("v"), "s")],
                prefix_length=1,
            )

    def test_invalid_prefix_length(self):
        table = make_table([1], [0], [1.0])
        context = ExecutionContext()
        with pytest.raises(PlanError, match="prefix"):
            HashAggregate(
                context,
                TableScan(context, table),
                [ColumnRef("id")],
                ["id"],
                [AggregateSpec("SUM", ColumnRef("v"), "s")],
                prefix_length=1,
            )

    def test_output_ordered_by_prefix(self):
        ids = np.sort(np.arange(100) % 20)
        for id_type, prefix in (
            (SqlType.INTEGER, ids),
            # negative floats: their int64 bit patterns run backwards
            (SqlType.FLOAT, 2.0 - 0.5 * ids[::-1]),
        ):
            context = ExecutionContext(vector_size=7)
            table = make_table(
                prefix, ids % 3, np.ones(100), id_type=id_type
            )
            operator = HashAggregate(
                context,
                TableScan(context, table),
                [ColumnRef("id"), ColumnRef("node")],
                ["id", "node"],
                [AggregateSpec("SUM", ColumnRef("v"), "s")],
                prefix_length=1,
            )
            assert operator.ordering == ("id",)
            emitted = [
                row[0]
                for batch in operator.batches()
                for row in batch.to_rows()
            ]
            assert emitted == sorted(emitted)


@settings(max_examples=40, deadline=None)
@given(
    segments=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=12),  # rows in segment
            st.integers(min_value=1, max_value=4),  # distinct nodes
        ),
        min_size=0,
        max_size=25,
    ),
    vector_size=st.sampled_from([3, 8, 64]),
)
def test_segmented_equals_hash_reference(segments, vector_size):
    """Property: segmented == full-hash aggregation for any sorted-by-id
    input, any batch size."""
    ids, nodes, values = [], [], []
    for segment_id, (rows, distinct) in enumerate(segments):
        for row in range(rows):
            ids.append(segment_id)
            nodes.append(row % distinct)
            values.append(float(segment_id) + row * 0.5)
    context = ExecutionContext(vector_size=vector_size)
    table = make_table(ids, nodes, values)
    got = run_segmented(table, context)
    expected = reference(ids, nodes, values)
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert (g[0], g[1], g[3]) == (e[0], e[1], e[3])
        np.testing.assert_allclose(g[2], e[2], rtol=1e-4)


class TestPlannerIntegration:
    def _db(self, segmented: bool) -> Database:
        db = Database(
            planner_options=PlannerOptions(
                use_segmented_aggregation=segmented
            )
        )
        db.execute(
            "CREATE TABLE t (id INTEGER, node INTEGER, v FLOAT) "
            "SORTED BY (id)"
        )
        ids = np.repeat(np.arange(200, dtype=np.int64), 4)
        db.table("t").append_columns(
            id=ids,
            node=np.tile(np.arange(4, dtype=np.int64), 200),
            v=np.ones(800, dtype=np.float32),
        )
        return db

    QUERY = "SELECT id, node, SUM(v) AS s FROM t GROUP BY id, node"

    def test_planner_picks_segmented_when_enabled(self):
        db = self._db(True)
        assert "SegmentedAggregate(prefix=1" in db.explain(self.QUERY)

    def test_planner_defaults_to_hash(self):
        db = self._db(False)
        assert "HashAggregate" in db.explain(self.QUERY)

    def test_results_identical(self):
        assert sorted(self._db(True).execute(self.QUERY).rows) == sorted(
            self._db(False).execute(self.QUERY).rows
        )

    def test_fully_covered_keys_still_use_ordered(self):
        db = self._db(True)
        plan = db.explain("SELECT id, SUM(v) AS s FROM t GROUP BY id")
        assert "OrderedAggregate" in plan

    def test_mltosql_pipeline_with_segmented_aggregation(self):
        """The §4.4 end-to-end effect: the generated query runs with
        segment-sized memory and unchanged results."""
        from repro.core.ml_to_sql.generator import MlToSqlModelJoin
        from repro.workloads.iris import FEATURE_COLUMNS, load_iris_table
        from repro.workloads.models import make_dense_model

        db = repro.Database(
            planner_options=PlannerOptions(use_segmented_aggregation=True)
        )
        repro.attach(db)
        load_iris_table(db, 400)
        model = make_dense_model(8, 2, seed=1)
        runner = MlToSqlModelJoin(db, model)
        sql = runner.generator(
            "iris", "id", list(FEATURE_COLUMNS)
        ).inference_query()
        assert "SegmentedAggregate" in db.explain(sql)
        predictions = runner.predict("iris", "id", list(FEATURE_COLUMNS))
        features = np.column_stack(
            [
                db.execute(
                    f"SELECT id, {c} FROM iris ORDER BY id"
                ).column(c)
                for c in FEATURE_COLUMNS
            ]
        )
        np.testing.assert_allclose(
            predictions, model.predict(features), atol=1e-4
        )
        hash_peak_db = repro.connect()
        load_iris_table(hash_peak_db, 400)
        hash_runner = MlToSqlModelJoin(hash_peak_db, model)
        hash_runner.predict("iris", "id", list(FEATURE_COLUMNS))
        segmented_peak = db.last_profile.peak_memory_bytes
        hash_peak = hash_peak_db.last_profile.peak_memory_bytes
        assert segmented_peak < hash_peak / 5
