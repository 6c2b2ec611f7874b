"""Planner behaviour: pushdown, pruning ranges, strategy choices."""

import numpy as np
import pytest

from repro.db.engine import Database
from repro.db.planner import PlannerOptions


@pytest.fixture
def db_with_tables() -> Database:
    db = Database()
    db.execute(
        "CREATE TABLE fact (id INTEGER, node INTEGER, v FLOAT) "
        "SORTED BY (id)"
    )
    ids = np.arange(200, dtype=np.int64)
    db.table("fact").append_columns(
        id=ids, node=ids % 5, v=ids.astype(np.float32)
    )
    db.execute(
        "CREATE TABLE model (node_in INTEGER, node INTEGER, w FLOAT) "
        "SORTED BY (node)"
    )
    db.execute(
        "INSERT INTO model VALUES (0, 5, 0.5), (1, 5, 1.5), "
        "(0, 6, 2.5), (1, 6, 3.5)"
    )
    return db


class TestFilterPushdownAndPruning:
    def test_single_table_predicate_pushed_below_join(self, db_with_tables):
        plan = db_with_tables.explain(
            "SELECT f.id FROM fact AS f, model AS m "
            "WHERE f.node = m.node_in AND m.node >= 5 AND m.node <= 5"
        )
        # The model filter must sit below the join, on the model branch
        # (lowered as a fused compiled kernel carrying the predicate).
        join_position = plan.index("HashJoin")
        filter_position = plan.index(
            "FusedPipeline(filter:", join_position
        )
        assert filter_position > join_position
        assert "prune: node in [5" in plan

    def test_range_extraction_on_scan(self, db_with_tables):
        plan = db_with_tables.explain(
            "SELECT id FROM fact WHERE id BETWEEN 10 AND 20"
        )
        assert "prune: id in [10" in plan

    def test_equality_becomes_point_range(self, db_with_tables):
        plan = db_with_tables.explain("SELECT id FROM fact WHERE id = 7")
        assert "prune: id in {7}" in plan

    def test_in_list_becomes_point_union(self, db_with_tables):
        plan = db_with_tables.explain(
            "SELECT id FROM fact WHERE id IN (9000, 5, 42, 5)"
        )
        assert "prune: id in {5, 42, 9000}" in plan
        assert "sma-range-derivation: scan fact: id in {5, 42, 9000}" in plan

    def test_not_in_and_mixed_ors_do_not_prune(self, db_with_tables):
        for where in (
            "id NOT IN (1, 2)",
            "id = 1 OR node = 2",
            "id = 1 OR id > 5",
        ):
            plan = db_with_tables.explain(f"SELECT id FROM fact WHERE {where}")
            assert "prune" not in plan, where

    def test_pruning_disabled_by_option(self):
        db = Database(
            planner_options=PlannerOptions(use_block_pruning=False)
        )
        db.execute("CREATE TABLE t (a INTEGER)")
        db.execute("INSERT INTO t VALUES (1)")
        assert "prune" not in db.explain("SELECT a FROM t WHERE a > 0")

    def test_flipped_literal_comparison(self, db_with_tables):
        plan = db_with_tables.explain(
            "SELECT id FROM fact WHERE 10 <= id"
        )
        assert "prune: id in [10" in plan


class TestJoinPlanning:
    def test_equi_join_uses_hash_join(self, db_with_tables):
        plan = db_with_tables.explain(
            "SELECT f.id FROM fact AS f, model AS m WHERE f.node = m.node_in"
        )
        assert "HashJoin" in plan
        assert "CrossJoin" not in plan

    def test_no_predicate_uses_cross_join(self, db_with_tables):
        plan = db_with_tables.explain(
            "SELECT f.id FROM fact AS f, model AS m"
        )
        assert "CrossJoin" in plan

    def test_non_equi_predicate_is_residual_filter(self, db_with_tables):
        plan = db_with_tables.explain(
            "SELECT f.id FROM fact AS f, model AS m WHERE f.node < m.node_in"
        )
        assert "CrossJoin" in plan
        # residual predicate lowers as a fused kernel above the join
        assert "FusedPipeline(filter:" in plan or "Filter" in plan

    def test_fact_is_probe_side(self, db_with_tables):
        plan = db_with_tables.explain(
            "SELECT f.id FROM fact AS f, model AS m WHERE f.node = m.node_in"
        )
        # Left child (listed first under HashJoin) must be the fact scan.
        lines = plan.splitlines()
        join_line = next(
            index for index, line in enumerate(lines) if "HashJoin" in line
        )
        assert "fact" in lines[join_line + 1] or "fact" in lines[join_line + 2]


class TestAggregationStrategy:
    def test_ordered_aggregation_on_sorted_input(self, db_with_tables):
        plan = db_with_tables.explain(
            "SELECT id, SUM(v) AS s FROM fact GROUP BY id"
        )
        assert "OrderedAggregate" in plan

    def test_hash_aggregation_on_unsorted_key(self, db_with_tables):
        plan = db_with_tables.explain(
            "SELECT node, SUM(v) AS s FROM fact GROUP BY node"
        )
        assert "HashAggregate" in plan

    def test_ordered_aggregation_disabled_by_option(self):
        db = Database(
            planner_options=PlannerOptions(use_ordered_aggregation=False)
        )
        db.execute("CREATE TABLE t (id INTEGER, v FLOAT) SORTED BY (id)")
        db.execute("INSERT INTO t VALUES (1, 1.0)")
        plan = db.explain("SELECT id, SUM(v) AS s FROM t GROUP BY id")
        assert "HashAggregate" in plan

    def test_redundant_order_by_elided(self, db_with_tables):
        plan = db_with_tables.explain(
            "SELECT id FROM fact ORDER BY id"
        )
        assert "Sort" not in plan

    def test_required_sort_kept(self, db_with_tables):
        plan = db_with_tables.explain(
            "SELECT id FROM fact ORDER BY id DESC"
        )
        assert "Sort" in plan


class TestModelJoinPlanning:
    def test_model_join_without_factory_fails(self, db_with_tables):
        from repro.errors import PlanError

        with pytest.raises(PlanError, match="factory"):
            db_with_tables.execute("SELECT * FROM fact MODEL JOIN m")

    def test_model_join_unknown_model(self):
        import repro
        from repro.errors import CatalogError

        db = repro.connect()
        db.execute("CREATE TABLE t (a FLOAT)")
        with pytest.raises(CatalogError):
            db.execute("SELECT * FROM t MODEL JOIN ghost")


class TestModelJoinPushdown:
    """Raven-style early pruning (paper §3): qualified predicates on
    the input flow run below the MODEL JOIN."""

    def _prepared(self):
        import numpy as np
        import repro
        from repro.core.registry import publish_model
        from repro.nn.layers import Dense
        from repro.nn.model import Sequential

        db = repro.connect()
        db.execute("CREATE TABLE f (id INTEGER, a FLOAT, b FLOAT)")
        rng = np.random.default_rng(0)
        x = rng.normal(size=(50, 2)).astype(np.float32)
        db.table("f").append_columns(
            id=np.arange(50), a=x[:, 0], b=x[:, 1]
        )
        model = Sequential([Dense(1, "sigmoid")], input_width=2, seed=0)
        publish_model(db, "clf", model)
        return db

    def test_qualified_predicate_pushed_below_inference(self):
        db = self._prepared()
        plan = db.explain(
            "SELECT f.id, prediction_0 FROM f MODEL JOIN clf "
            "USING (a, b) WHERE f.id < 10"
        )
        lines = plan.splitlines()
        modeljoin_line = next(
            index for index, line in enumerate(lines) if "ModelJoin" in line
        )
        filter_line = next(
            index for index, line in enumerate(lines) if "Filter" in line
        )
        assert filter_line > modeljoin_line  # below = deeper in the tree

    def test_pushed_rows_never_inferred(self):
        db = self._prepared()
        plan, result = db.explain_analyze(
            "SELECT f.id, prediction_0 FROM f MODEL JOIN clf "
            "USING (a, b) WHERE f.id < 10"
        )
        assert result.row_count == 10
        modeljoin_line = next(
            line for line in plan.splitlines() if "ModelJoin" in line
        )
        assert "[rows: 10]" in modeljoin_line

    def test_prediction_predicate_stays_above(self):
        db = self._prepared()
        plan = db.explain(
            "SELECT f.id, prediction_0 FROM f MODEL JOIN clf "
            "USING (a, b) WHERE clf.prediction_0 > 0.5"
        )
        lines = plan.splitlines()
        modeljoin_line = next(
            index for index, line in enumerate(lines) if "ModelJoin" in line
        )
        filter_line = next(
            index for index, line in enumerate(lines) if "Filter" in line
        )
        assert filter_line < modeljoin_line  # above the operator

    def test_unqualified_predicate_pushed(self):
        db = self._prepared()
        plan, result = db.explain_analyze(
            "SELECT f.id, prediction_0 FROM f MODEL JOIN clf "
            "USING (a, b) WHERE id < 10"
        )
        # The binder resolves unqualified names against the complete
        # scope before the rewrite rules run, so `id` is known to be
        # `f.id` and the predicate filters *before* the inference.
        assert result.row_count == 10
        modeljoin_line = next(
            line for line in plan.splitlines() if "ModelJoin" in line
        )
        assert "[rows: 10]" in modeljoin_line

    def test_results_unchanged_by_pushdown(self):
        db = self._prepared()
        pushed = db.execute(
            "SELECT f.id, prediction_0 FROM f MODEL JOIN clf "
            "USING (a, b) WHERE f.id < 10 ORDER BY id"
        )
        unpushed = db.execute(
            "SELECT q.id, q.prediction_0 FROM "
            "(SELECT f.id AS id, prediction_0 FROM f MODEL JOIN clf "
            "USING (a, b)) AS q WHERE q.id < 10 ORDER BY id"
        )
        assert pushed.rows == unpushed.rows
