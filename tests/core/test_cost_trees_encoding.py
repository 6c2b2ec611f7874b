"""Cost model and SQL encodings."""

import numpy as np
import pytest

from repro.core.cost.model import (
    InferenceCostModel,
    flops_per_tuple_of_metadata,
    flops_per_tuple_of_model,
)
from repro.core.cost.selector import CostBasedVariantSelector
from repro.core.encoding import (
    min_max_encode_query,
    min_max_expression,
    one_hot_expressions,
    window_self_join_query,
)
from repro.core.registry import model_metadata
from repro.db.engine import Database
from repro.errors import ModelJoinError
from repro.nn.layers import Dense, Lstm
from repro.nn.model import Sequential


class TestCostModel:
    def test_flops_grow_with_width(self):
        small = Sequential([Dense(8), Dense(1)], input_width=4)
        large = Sequential([Dense(64), Dense(1)], input_width=4)
        assert flops_per_tuple_of_model(large) > flops_per_tuple_of_model(
            small
        )

    def test_metadata_and_model_agree_for_dense(self):
        model = Sequential(
            [Dense(16, "relu"), Dense(1)], input_width=4, seed=0
        )
        metadata = model_metadata("m", "t", model)
        assert flops_per_tuple_of_metadata(metadata) == pytest.approx(
            flops_per_tuple_of_model(model)
        )

    def test_metadata_and_model_agree_for_lstm(self):
        model = Sequential([Lstm(8), Dense(1)], input_width=3, seed=0)
        metadata = model_metadata("m", "t", model)
        assert flops_per_tuple_of_metadata(metadata) == pytest.approx(
            flops_per_tuple_of_model(model)
        )

    def test_calibrated_prediction_recovers_linear_cost(self):
        cost_model = InferenceCostModel()
        # Synthetic ground truth: 2e-9 s per flop + 1e-6 s per tuple.
        observations = [
            (tuples, flops, 2e-9 * tuples * flops + 1e-6 * tuples)
            for tuples in (1000, 5000, 20000)
            for flops in (100.0, 1000.0)
        ]
        cost_model.calibrate(observations)
        model = Sequential([Dense(10), Dense(1)], input_width=4)
        flops = flops_per_tuple_of_model(model)
        estimate = cost_model.estimate(model, 10_000)
        expected = 2e-9 * 10_000 * flops + 1e-6 * 10_000
        assert estimate.predicted_seconds == pytest.approx(
            expected, rel=1e-3
        )
        assert estimate.total_flops == flops * 10_000

    def test_uncalibrated_has_no_prediction(self):
        model = Sequential([Dense(2)], input_width=2)
        estimate = InferenceCostModel().estimate(model, 100)
        assert estimate.predicted_seconds is None

    def test_calibration_needs_observations(self):
        with pytest.raises(ModelJoinError):
            InferenceCostModel().calibrate([(1, 1.0, 1.0)])

    def test_variant_ranking_is_memoised_until_calibrate(self, monkeypatch):
        selector = CostBasedVariantSelector()
        model = Sequential([Dense(8, "relu"), Dense(1)], input_width=4)
        metadata = model_metadata("m", "t", model)
        predicted = []
        original = InferenceCostModel.predict

        def counting(self, flops, tuples):
            predicted.append(tuples)
            return original(self, flops, tuples)

        monkeypatch.setattr(InferenceCostModel, "predict", counting)
        first = selector.rank(metadata, 100)
        assert selector.rank(metadata, 100) == first
        assert len(predicted) == len(first)  # ranked once
        selector.rank(metadata, 200)
        assert len(predicted) == 2 * len(first)
        # a refit changes the ranking: the memo is cleared
        selector.calibrate(
            "native-gpu",
            [(tuples, 100.0, 1e-12 * tuples) for tuples in (10, 100, 1000)],
        )
        refit = selector.rank(metadata, 100)
        assert len(predicted) == 3 * len(first)
        assert refit[0].variant == "native-gpu" != first[0].variant


class TestEncoding:
    def test_min_max_expression(self):
        db = Database()
        db.execute("CREATE TABLE v (id INTEGER, x FLOAT)")
        db.execute(
            "INSERT INTO v VALUES (1, 10.0), (2, 20.0), (3, 30.0)"
        )
        sql = min_max_encode_query(db, "v", "id", ["x"])
        result = db.execute(sql + " ORDER BY id")
        np.testing.assert_allclose(
            result.column("x_scaled"), [0.0, 0.5, 1.0], atol=1e-6
        )

    def test_min_max_constant_column(self):
        assert min_max_expression("x", 5.0, 5.0) == "0.0"

    def test_one_hot(self):
        db = Database()
        db.execute("CREATE TABLE c (id INTEGER, cat INTEGER)")
        db.execute("INSERT INTO c VALUES (1, 0), (2, 1), (3, 2)")
        expressions = one_hot_expressions("cat", [0, 1, 2])
        sql = f"SELECT id, {', '.join(expressions)} FROM c ORDER BY id"
        result = db.execute(sql)
        matrix = np.column_stack(
            [result.column(f"cat_is_{v}") for v in (0, 1, 2)]
        )
        np.testing.assert_array_equal(matrix, np.eye(3))

    def test_window_self_join(self):
        db = Database()
        db.execute("CREATE TABLE series (id INTEGER, value FLOAT)")
        values = [float(v) for v in range(10)]
        db.table("series").append_columns(
            id=np.arange(10, dtype=np.int64),
            value=np.array(values, dtype=np.float32),
        )
        sql = window_self_join_query("series", "id", "value", 3)
        result = db.execute(sql + " ORDER BY id")
        assert result.row_count == 8
        first = result.rows[0]
        # id of the *last* window element, values oldest-first
        assert first == (2, 0.0, 1.0, 2.0)

    def test_window_single_step(self):
        sql = window_self_join_query("s", "id", "v", 1)
        assert "WHERE" not in sql

    def test_window_requires_positive_steps(self):
        from repro.errors import DatabaseError

        with pytest.raises(DatabaseError):
            window_self_join_query("s", "id", "v", 0)
