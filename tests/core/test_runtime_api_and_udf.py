"""Runtime-API operator/runner and UDF integration tests."""

import numpy as np
import pytest

from repro.core.runtime_api.conversion import (
    columnar_to_row_major,
    row_major_to_columnar,
)
from repro.core.runtime_api.runner import RuntimeApiModelJoin
from repro.core.udf_integration.inference_udf import (
    UdfModelJoin,
    make_inference_udf,
)
from repro.db.engine import Database
from repro.device import SimulatedGpu
from repro.errors import ModelJoinError, UnsupportedModelError
from repro.nn.layers import Dense
from repro.nn.model import Sequential
from repro.nn.runtime import TensorBuffer


@pytest.fixture
def fact_db() -> tuple[Database, np.ndarray]:
    db = Database()
    db.execute("CREATE TABLE fact (id INTEGER, a FLOAT, b FLOAT)")
    rng = np.random.default_rng(3)
    x = rng.normal(size=(200, 2)).astype(np.float32)
    db.table("fact").append_columns(
        id=np.arange(200, dtype=np.int64), a=x[:, 0], b=x[:, 1]
    )
    return db, x


@pytest.fixture
def model() -> Sequential:
    return Sequential(
        [Dense(5, "relu"), Dense(1, "sigmoid")], input_width=2, seed=13
    )


class TestConversion:
    def test_roundtrip(self):
        columns = [
            np.arange(4, dtype=np.float32),
            np.arange(4, 8, dtype=np.float32),
        ]
        buffer = columnar_to_row_major(columns)
        assert buffer.array.flags["C_CONTIGUOUS"]
        assert buffer.shape == (4, 2)
        back = row_major_to_columnar(buffer)
        for original, restored in zip(columns, back):
            np.testing.assert_array_equal(original, restored)

    def test_interleaving_is_row_major(self):
        columns = [
            np.array([1, 2], dtype=np.float32),
            np.array([3, 4], dtype=np.float32),
        ]
        buffer = columnar_to_row_major(columns)
        assert buffer.array.ravel().tolist() == [1, 3, 2, 4]

    def test_ragged_rejected(self):
        with pytest.raises(ModelJoinError):
            columnar_to_row_major(
                [np.zeros(2, np.float32), np.zeros(3, np.float32)]
            )

    def test_empty_rejected(self):
        with pytest.raises(ModelJoinError):
            columnar_to_row_major([])

    def test_runtime_rejects_columnar_layout_directly(self):
        # The conversion exists because the runtime refuses non-row-major
        # input: handing it a transposed (column-major) view must fail.
        from repro.errors import ModelError

        matrix = np.zeros((4, 2), dtype=np.float32)
        with pytest.raises(ModelError):
            TensorBuffer(matrix.T)


class TestRuntimeApiRunner:
    def test_predictions_match(self, fact_db, model):
        db, x = fact_db
        runner = RuntimeApiModelJoin(db, model)
        predictions = runner.predict("fact", "id", ["a", "b"])
        np.testing.assert_allclose(
            predictions, model.predict(x), atol=1e-5
        )

    def test_phases_recorded(self, fact_db, model):
        db, _ = fact_db
        runner = RuntimeApiModelJoin(db, model)
        runner.predict("fact", "id", ["a", "b"])
        phases = db.last_profile.stopwatch.phases
        assert "runtime-load" in phases
        assert "runtime-convert" in phases
        assert "runtime-infer" in phases

    def test_gpu_variant(self, fact_db, model):
        db, x = fact_db
        gpu = SimulatedGpu()
        runner = RuntimeApiModelJoin(db, model, device=gpu)
        predictions = runner.predict("fact", "id", ["a", "b"])
        np.testing.assert_allclose(
            predictions, model.predict(x), atol=1e-5
        )
        assert gpu.stats.modeled_seconds > 0

    def test_memory_accounted_and_released(self, fact_db, model):
        db, _ = fact_db
        runner = RuntimeApiModelJoin(db, model)
        memory = runner.execute("fact", ["a", "b"]).profile.memory
        assert memory.peak_bytes > 0
        assert memory.current_bytes == 0

    def test_wrong_input_columns(self, fact_db, model):
        db, _ = fact_db
        runner = RuntimeApiModelJoin(db, model)
        with pytest.raises(ModelJoinError):
            runner.predict("fact", "id", ["a"])


class TestUdfIntegration:
    def test_udf_predictions_match(self, fact_db, model):
        db, x = fact_db
        runner = UdfModelJoin(db, model, name="p1")
        predictions = runner.predict("fact", "id", ["a", "b"])
        np.testing.assert_allclose(
            predictions, model.predict(x), atol=1e-4
        )

    def test_query_text(self, fact_db, model):
        db, _ = fact_db
        runner = UdfModelJoin(db, model, name="p2")
        sql = runner.query("fact", "id", ["a", "b"])
        assert sql == (
            "SELECT id, p2(a, b) AS prediction_0 FROM fact"
        )

    def test_vectorized_called_once_per_vector(self, fact_db, model):
        db, _ = fact_db
        runner = UdfModelJoin(db, model, name="p3")
        runner.predict("fact", "id", ["a", "b"])
        assert runner.udfs[0].statistics.calls == 1  # 200 rows, 1 vector
        assert runner.udfs[0].statistics.rows == 200

    def test_per_tuple_called_once_per_row(self, fact_db, model):
        db, x = fact_db
        runner = UdfModelJoin(db, model, name="p4", vectorized=False)
        predictions = runner.predict("fact", "id", ["a", "b"])
        np.testing.assert_allclose(
            predictions, model.predict(x), atol=1e-4
        )
        assert runner.udfs[0].statistics.calls == 200

    def test_multi_output_registers_one_udf_each(self, fact_db):
        db, x = fact_db
        model = Sequential([Dense(3, "tanh")], input_width=2, seed=1)
        runner = UdfModelJoin(db, model, name="multi")
        assert [udf.name for udf in runner.udfs] == [
            "multi_0",
            "multi_1",
            "multi_2",
        ]
        predictions = runner.predict("fact", "id", ["a", "b"])
        np.testing.assert_allclose(
            predictions, model.predict(x), atol=1e-4
        )

    def test_make_udf_output_index_validated(self, model):
        with pytest.raises(UnsupportedModelError):
            make_inference_udf(model, output_index=5)

    def test_udf_loads_model_from_serialized_form(self, model):
        udf = make_inference_udf(model, name="fresh")
        # Mutating the original model after UDF creation must not
        # change the UDF's predictions (it captured the saved form).
        x = np.ones((3, 2), dtype=np.float32)
        before = udf(
            np.ones(3, dtype=np.float32), np.ones(3, dtype=np.float32)
        )
        model.layers[0].kernel += 100.0
        after = udf(
            np.ones(3, dtype=np.float32), np.ones(3, dtype=np.float32)
        )
        np.testing.assert_array_equal(before, after)
        del x
