"""Correctness companions to the ablation benchmarks.

These checks accompany benchmarks/bench_ablation_*.py: they verify the
*semantics* of each ablated mechanism (the benchmarks measure only its
cost), and they run as part of the plain test suite.
"""

import numpy as np
import pytest

import repro
from repro.core.cost.model import flops_per_tuple_of_model
from repro.core.ml_to_sql.generator import MlToSqlModelJoin
from repro.db.operators import ExecutionContext, TableScan
from repro.db.planner import Planner, PlannerOptions
from repro.db.sql.parser import parse_statement
from repro.workloads.iris import FEATURE_COLUMNS, load_iris_table
from repro.workloads.models import make_dense_model


@pytest.mark.parametrize("pruning", [True, False])
def test_pruning_skips_model_blocks(pruning):
    """Block pruning actually skips model-table blocks (and only when
    enabled) in the generated ML-To-SQL query."""
    db = repro.connect()
    load_iris_table(db, 100)
    model = make_dense_model(64, 4, seed=1)  # several storage blocks
    runner = MlToSqlModelJoin(db, model)
    sql = runner.generator(
        "iris", "id", list(FEATURE_COLUMNS)
    ).inference_query()
    planner = Planner(
        db.catalog, options=PlannerOptions(use_block_pruning=pruning)
    )
    context = ExecutionContext()
    plan = planner.lower(planner.prepare(parse_statement(sql)), context)
    list(plan.batches())

    def scans(node):
        found = []
        if isinstance(node, TableScan):
            found.append(node)
        for child in node.children():
            found.extend(scans(child))
        return found

    model_scans = [
        scan for scan in scans(plan) if scan.table.name == "model_table"
    ]
    pruned = sum(scan.blocks_pruned for scan in model_scans)
    if pruning:
        assert pruned > 0
    else:
        assert pruned == 0


def test_aggregation_strategies_agree():
    """Hash and order-based aggregation return the same result set."""
    query = "SELECT id, SUM(v * v) AS s, COUNT(*) AS c FROM t GROUP BY id"
    results = []
    for use_ordered in (True, False):
        db = repro.Database(
            planner_options=PlannerOptions(
                use_ordered_aggregation=use_ordered
            )
        )
        db.execute("CREATE TABLE t (id INTEGER, v FLOAT) SORTED BY (id)")
        ids = np.repeat(np.arange(500, dtype=np.int64), 4)
        db.table("t").append_columns(
            id=ids, v=np.arange(2000, dtype=np.float32)
        )
        expected = (
            "OrderedAggregate" if use_ordered else "HashAggregate"
        )
        assert expected in db.explain(query)
        results.append(sorted(db.execute(query).rows))
    assert results[0] == results[1]


def test_flops_scale_linearly_in_depth():
    """The §7 claim behind the cost model: adding a hidden layer adds a
    constant FLOP increment."""
    base = flops_per_tuple_of_model(make_dense_model(64, 2))
    deeper = flops_per_tuple_of_model(make_dense_model(64, 4))
    deepest = flops_per_tuple_of_model(make_dense_model(64, 8))
    first_step = deeper - base
    second_step = (deepest - deeper) / 2
    assert first_step == second_step


def test_bias_replication_equivalence():
    """The ModelJoin bias-matrix optimization does not change results."""
    from repro.core.modeljoin.runner import NativeModelJoin
    from repro.core.registry import publish_model

    db = repro.connect()
    load_iris_table(db, 500)
    model = make_dense_model(8, 2, seed=5)
    publish_model(db, "b", model)
    with_replication = NativeModelJoin(db, "b", replicate_bias=True)
    without_replication = NativeModelJoin(db, "b", replicate_bias=False)
    columns = list(FEATURE_COLUMNS)
    np.testing.assert_array_equal(
        with_replication.predict("iris", "id", columns),
        without_replication.predict("iris", "id", columns),
    )


@pytest.mark.parametrize("vector_size", [64, 1024, 4096])
def test_vector_size_does_not_change_results(vector_size):
    from repro.core.modeljoin.runner import NativeModelJoin
    from repro.core.registry import publish_model

    db = repro.connect()
    db.vector_size = vector_size
    load_iris_table(db, 700)
    model = make_dense_model(8, 2, seed=6)
    publish_model(db, "v", model)
    runner = NativeModelJoin(db, "v")
    predictions = runner.predict("iris", "id", list(FEATURE_COLUMNS))
    dataset_features = np.column_stack(
        [
            db.execute(f"SELECT id, {c} FROM iris ORDER BY id").column(c)
            for c in FEATURE_COLUMNS
        ]
    )
    np.testing.assert_allclose(
        predictions, model.predict(dataset_features), atol=1e-5
    )
