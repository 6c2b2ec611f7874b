"""Parallel execution of the inference approaches (paper §4.4/§5.2).

Every partition-parallel path must return exactly the serial results:
the ML-To-SQL generated query (group keys carry the partition key), the
native ModelJoin (shared build + barrier), and the UDF query.  The
paper's parallel preset must also stay parallel: the fragment planner
may decline to split a query, which would still return serial results.
"""

import numpy as np
import pytest

import repro
from repro.core.ml_to_sql.generator import MlToSqlModelJoin
from repro.core.modeljoin.runner import NativeModelJoin
from repro.core.registry import publish_model
from repro.core.runtime_api.runner import RuntimeApiModelJoin
from repro.core.udf_integration.inference_udf import UdfModelJoin
from repro.device import SimulatedGpu
from repro.workloads.iris import FEATURE_COLUMNS, load_iris_table
from repro.workloads.models import make_dense_model, make_lstm_model
from repro.workloads.timeseries import load_windowed_series_table

PARALLELISM = 4


def ran_split(db) -> bool:
    """Whether the last logged query ran as more than one pipeline."""
    return db.query_log.entries()[-1]["parallel"]


@pytest.fixture
def parallel_iris():
    db = repro.connect(parallelism=PARALLELISM)
    dataset = load_iris_table(db, 3_000, num_partitions=PARALLELISM)
    return db, dataset


class TestParallelDense:
    def test_ml_to_sql_parallel_equals_serial(self, parallel_iris):
        db, dataset = parallel_iris
        model = make_dense_model(8, 2, seed=2)
        runner = MlToSqlModelJoin(db, model)
        columns = list(FEATURE_COLUMNS)
        serial = runner.predict("iris", "id", columns, parallel=False)
        parallel = runner.predict("iris", "id", columns, parallel=True)
        assert ran_split(db)
        np.testing.assert_allclose(serial, parallel, atol=1e-6)
        np.testing.assert_allclose(
            parallel, model.predict(dataset.features), atol=1e-4
        )

    def test_native_parallel_with_partitioned_model(self, parallel_iris):
        db, dataset = parallel_iris
        model = make_dense_model(16, 3, seed=3)
        publish_model(
            db, "pclf", model, model_table_partitions=PARALLELISM
        )
        runner = NativeModelJoin(db, "pclf")
        columns = list(FEATURE_COLUMNS)
        parallel = runner.predict("iris", "id", columns, parallel=True)
        assert ran_split(db)
        np.testing.assert_allclose(
            parallel, model.predict(dataset.features), atol=1e-4
        )

    def test_native_parallel_gpu(self, parallel_iris):
        db, dataset = parallel_iris
        model = make_dense_model(8, 2, seed=4)
        publish_model(
            db, "gclf", model, model_table_partitions=PARALLELISM
        )
        gpu = SimulatedGpu()
        runner = NativeModelJoin(db, "gclf", device=gpu)
        parallel = runner.predict(
            "iris", "id", list(FEATURE_COLUMNS), parallel=True
        )
        np.testing.assert_allclose(
            parallel, model.predict(dataset.features), atol=1e-4
        )
        assert gpu.stats.bytes_to_device > 0

    def test_udf_parallel_equals_serial(self, parallel_iris):
        db, dataset = parallel_iris
        model = make_dense_model(8, 2, seed=5)
        runner = UdfModelJoin(db, model, name="par_udf")
        columns = list(FEATURE_COLUMNS)
        serial = runner.predict("iris", "id", columns)
        parallel = runner.predict("iris", "id", columns, parallel=True)
        np.testing.assert_allclose(serial, parallel, atol=1e-6)

    def test_model_join_sql_parallel(self, parallel_iris):
        db, dataset = parallel_iris
        model = make_dense_model(8, 2, seed=6)
        publish_model(db, "sqlclf", model)
        sql = (
            "SELECT id, prediction_0 FROM iris MODEL JOIN sqlclf "
            "USING (sepal_length, sepal_width, petal_length, petal_width)"
        )
        serial = sorted(db.execute(sql).rows)
        parallel = sorted(db.execute(sql, parallel=True).rows)
        assert ran_split(db)
        assert serial == parallel


class TestRunnerSplit:
    """A direct runner splits exactly when the same MODEL JOIN statement
    does: one pipeline per partition when the fact table has more than
    one partition and no more than the engine's parallelism, otherwise
    one pipeline over the whole table."""

    @pytest.mark.parametrize(
        "partitions", [1, PARALLELISM, 2 * PARALLELISM]
    )
    @pytest.mark.parametrize("kind", ["native", "runtime_api"])
    def test_parallel_runner_equals_serial(self, kind, partitions):
        db = repro.connect(parallelism=PARALLELISM)
        load_iris_table(db, 1_000, num_partitions=partitions)
        model = make_dense_model(8, 2, seed=12)
        publish_model(db, "split", model)
        if kind == "native":
            runner = NativeModelJoin(db, "split")
        else:
            runner = RuntimeApiModelJoin(db, model)
        columns = list(FEATURE_COLUMNS)
        serial = runner.predict("iris", "id", columns)
        parallel = runner.predict("iris", "id", columns, parallel=True)
        runner_split = ran_split(db)
        db.execute(
            "SELECT id, prediction_0 FROM iris MODEL JOIN split "
            f"USING ({', '.join(columns)})",
            parallel=True,
        )
        assert runner_split == ran_split(db) == (partitions == PARALLELISM)
        np.testing.assert_array_equal(parallel, serial)
        db.close()


class TestParallelLstm:
    def test_native_lstm_parallel(self):
        db = repro.connect(parallelism=PARALLELISM)
        series = load_windowed_series_table(
            db, 2_000, num_partitions=PARALLELISM
        )
        _, windows = series.windows()
        model = make_lstm_model(6, seed=7)
        publish_model(
            db, "fc", model, model_table_partitions=PARALLELISM
        )
        runner = NativeModelJoin(db, "fc")
        parallel = runner.predict(
            "sinus_windows", "id", ["x1", "x2", "x3"], parallel=True
        )
        np.testing.assert_allclose(
            parallel, model.predict(windows), atol=1e-4
        )

    def test_ml_to_sql_lstm_parallel(self):
        db = repro.connect(parallelism=PARALLELISM)
        series = load_windowed_series_table(
            db, 1_200, num_partitions=PARALLELISM
        )
        _, windows = series.windows()
        model = make_lstm_model(4, seed=8)
        runner = MlToSqlModelJoin(db, model, model_table="plstm")
        parallel = runner.predict(
            "sinus_windows", "id", ["x1", "x2", "x3"], parallel=True
        )
        assert ran_split(db)
        np.testing.assert_allclose(
            parallel, model.predict(windows), atol=1e-4
        )
