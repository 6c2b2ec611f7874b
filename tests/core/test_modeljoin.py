"""Native ModelJoin internals: builder, inference, operator."""

import numpy as np
import pytest

from repro.core.ml_to_sql.loader import load_model_table
from repro.core.modeljoin.builder import (
    DenseLayerWeights,
    LstmLayerWeights,
    ModelBuilder,
)
from repro.core.modeljoin.inference import (
    VectorizedInference,
    pack_columns,
    unpack_columns,
)
from repro.core.modeljoin.runner import NativeModelJoin
from repro.core.registry import model_metadata, publish_model
from repro.db.catalog import LayerMetadata
from repro.db.engine import Database
from repro.device import HostDevice, SimulatedGpu
from repro.errors import ModelJoinError
from repro.nn.layers import Dense, Lstm
from repro.nn.model import Sequential


def build_from_table(db, model, parties=1):
    """Feed the stored model table through a ModelBuilder."""
    relational = load_model_table(db, "mj_model", model, replace=True)
    metadata = model_metadata("mj", "mj_model", model)
    builder = ModelBuilder(
        input_width=metadata.input_width,
        layers=list(metadata.layers),
        parties=parties,
    )
    for batch in db.table("mj_model").scan():
        builder.consume_batch(batch)
    return builder, relational


class TestBuilder:
    def test_dense_weights_reconstructed(self):
        db = Database()
        model = Sequential(
            [Dense(3, "relu"), Dense(2)], input_width=4, seed=1
        )
        builder, _ = build_from_table(db, model)
        built = builder.wait_and_finalize(HostDevice())
        assert isinstance(built.layers[0], DenseLayerWeights)
        np.testing.assert_allclose(
            built.layers[0].kernel, model.layers[0].kernel
        )
        np.testing.assert_allclose(
            built.layers[1].bias, model.layers[1].bias
        )

    def test_lstm_weights_reconstructed(self):
        db = Database()
        model = Sequential([Lstm(4), Dense(1)], input_width=3, seed=2)
        builder, _ = build_from_table(db, model)
        built = builder.wait_and_finalize(HostDevice())
        lstm = built.layers[0]
        assert isinstance(lstm, LstmLayerWeights)
        np.testing.assert_allclose(lstm.kernel, model.layers[0].kernel)
        np.testing.assert_allclose(
            lstm.recurrent_kernel, model.layers[0].recurrent_kernel
        )
        np.testing.assert_allclose(lstm.bias, model.layers[0].bias)
        assert lstm.time_steps == 3

    def test_replication_disabled(self):
        # The build holds weights only; replication is the arena's, and
        # the broadcast add of replicate_bias=False sums the same values.
        db = Database()
        model = Sequential(
            [Dense(5, "relu"), Dense(2, "sigmoid")], input_width=3, seed=0
        )
        builder, _ = build_from_table(db, model)
        built = builder.wait_and_finalize(HostDevice())
        assert built.nominal_bytes() == sum(
            layer.kernel.nbytes + layer.bias.nbytes for layer in built.layers
        )
        x = np.random.default_rng(4).normal(size=(300, 3)).astype(np.float32)
        replicated = VectorizedInference(built, HostDevice(), batch_rows=128)
        broadcast = VectorizedInference(
            built, HostDevice(), batch_rows=128, replicate_bias=False
        )
        assert np.array_equal(
            replicated.infer(x).copy(), broadcast.infer(x)
        )
        assert not broadcast.arena._replicas

    def test_rows_consumed_counted(self):
        db = Database()
        model = Sequential([Dense(3)], input_width=2, seed=0)
        builder, relational = build_from_table(db, model)
        assert builder.rows_consumed == relational.edge_count

    def test_gpu_finalize_uploads_once(self):
        db = Database()
        model = Sequential([Dense(3)], input_width=2, seed=0)
        builder, _ = build_from_table(db, model)
        gpu = SimulatedGpu()
        built = builder.wait_and_finalize(gpu)
        assert built.on_device
        assert gpu.stats.bytes_to_device == built.nominal_bytes()
        # Scoring moves only the packed inputs: the bias replica is a
        # device-side fill, not a host->device transfer.
        inference = VectorizedInference(built, gpu, batch_rows=64)
        launches = gpu.stats.kernel_launches
        batches = [np.ones((rows, 2), np.float32) for rows in (64, 32)]
        for batch in batches:
            inference.infer(batch)
        assert gpu.stats.bytes_to_device == built.nominal_bytes() + sum(
            batch.nbytes for batch in batches
        )
        # two batches x (gemm + activation) + one replica fill
        assert gpu.stats.kernel_launches - launches == 5

    def test_lstm_must_be_first(self):
        with pytest.raises(ModelJoinError):
            ModelBuilder(
                input_width=2,
                layers=[
                    LayerMetadata("dense", 2, "relu"),
                    LayerMetadata("lstm", 2, "tanh", time_steps=2),
                ],
                parties=1,
            )

    def test_empty_layers_rejected(self):
        with pytest.raises(ModelJoinError):
            ModelBuilder(
                input_width=2, layers=[], parties=1
            )


class TestInference:
    def test_pack_unpack_roundtrip(self):
        columns = [
            np.arange(5, dtype=np.float32),
            np.arange(5, 10, dtype=np.float32),
        ]
        matrix = pack_columns(columns)
        assert matrix.shape == (5, 2)
        restored = unpack_columns(matrix)
        for original, back in zip(columns, restored):
            np.testing.assert_array_equal(original, back)

    def test_pack_requires_columns(self):
        with pytest.raises(ModelJoinError):
            pack_columns([])

    def test_infer_matches_model(self):
        db = Database()
        model = Sequential(
            [Dense(4, "tanh"), Dense(2, "sigmoid")], input_width=3, seed=3
        )
        builder, _ = build_from_table(db, model)
        built = builder.wait_and_finalize(HostDevice())
        inference = VectorizedInference(built, HostDevice())
        x = np.random.default_rng(0).normal(size=(50, 3)).astype(np.float32)
        np.testing.assert_allclose(
            inference.infer(x), model.predict(x), atol=1e-5
        )

    def test_wrong_input_width(self):
        db = Database()
        model = Sequential([Dense(1)], input_width=2, seed=0)
        builder, _ = build_from_table(db, model)
        built = builder.wait_and_finalize(HostDevice())
        inference = VectorizedInference(built, HostDevice())
        with pytest.raises(ModelJoinError):
            inference.infer(np.zeros((3, 5), dtype=np.float32))

    def test_one_row_query_replicates_one_bias_row(self):
        db = Database()
        model = Sequential(
            [Dense(4, "relu"), Dense(1, "sigmoid")], input_width=2, seed=0
        )
        builder, _ = build_from_table(db, model)
        built = builder.wait_and_finalize(HostDevice())
        inference = VectorizedInference(built, HostDevice(), batch_rows=4096)
        x = np.array([[0.5, -1.0]], dtype=np.float32)
        np.testing.assert_allclose(
            inference.infer(x), model.predict(x), atol=1e-6
        )
        replicas = inference.arena._replicas
        assert {tag: r.shape for tag, r in replicas.items()} == {
            "layer0-bias": (1, 4),
            "layer1-bias": (1, 1),
        }

    def test_longer_batch_grows_the_bias_replica(self):
        db = Database()
        model = Sequential([Dense(3, "tanh"), Dense(1)], input_width=2, seed=0)
        builder, _ = build_from_table(db, model)
        built = builder.wait_and_finalize(HostDevice())
        inference = VectorizedInference(built, HostDevice(), batch_rows=8)
        allocating = VectorizedInference(built, HostDevice())
        rng = np.random.default_rng(5)
        longest = 0
        for rows in (8, 16, 4, 40):
            x = rng.normal(size=(rows, 2)).astype(np.float32)
            assert np.array_equal(inference.infer(x), allocating.infer(x))
            longest = max(longest, rows)
            replica = inference.arena._replicas["layer0-bias"]
            assert replica.shape == (longest, 3)

    def test_lstm_step_mismatch(self):
        db = Database()
        model = Sequential([Lstm(2), Dense(1)], input_width=3, seed=0)
        builder, _ = build_from_table(db, model)
        built = builder.wait_and_finalize(HostDevice())
        inference = VectorizedInference(built, HostDevice())
        with pytest.raises(ModelJoinError, match="input columns"):
            inference.infer(np.zeros((4, 2), dtype=np.float32))


class TestOperatorAndRunner:
    def _setup(self, rows=300, partitions=1, parallelism=1):
        import repro

        db = repro.connect(parallelism=parallelism)
        db.execute(
            "CREATE TABLE fact (id INTEGER, a FLOAT, b FLOAT) "
            f"PARTITION BY (id) PARTITIONS {partitions} SORTED BY (id)"
        )
        rng = np.random.default_rng(7)
        x = rng.normal(size=(rows, 2)).astype(np.float32)
        db.table("fact").append_columns(
            id=np.arange(rows, dtype=np.int64), a=x[:, 0], b=x[:, 1]
        )
        model = Sequential(
            [Dense(4, "relu"), Dense(1, "sigmoid")], input_width=2, seed=9
        )
        return db, model, x

    def test_serial_runner(self):
        db, model, x = self._setup()
        publish_model(db, "clf", model)
        runner = NativeModelJoin(db, "clf")
        predictions = runner.predict("fact", "id", ["a", "b"])
        np.testing.assert_allclose(
            predictions, model.predict(x), atol=1e-5
        )
        assert db.last_profile.wall_seconds > 0
        phases = db.last_profile.stopwatch.phases
        assert "modeljoin-build" in phases
        assert "modeljoin-infer" in phases

    def test_parallel_runner_with_partitioned_model(self):
        db, model, x = self._setup(partitions=4, parallelism=4)
        publish_model(db, "clf", model, model_table_partitions=4)
        runner = NativeModelJoin(db, "clf")
        predictions = runner.predict(
            "fact", "id", ["a", "b"], parallel=True
        )
        np.testing.assert_allclose(
            predictions, model.predict(x), atol=1e-5
        )

    def test_parallel_with_broadcast_model_table(self):
        db, model, x = self._setup(partitions=4, parallelism=4)
        publish_model(db, "clf", model)  # single-partition model table
        runner = NativeModelJoin(db, "clf")
        predictions = runner.predict(
            "fact", "id", ["a", "b"], parallel=True
        )
        np.testing.assert_allclose(
            predictions, model.predict(x), atol=1e-5
        )

    def test_gpu_runner(self):
        db, model, x = self._setup()
        publish_model(db, "clf", model)
        gpu = SimulatedGpu()
        runner = NativeModelJoin(db, "clf", device=gpu)
        predictions = runner.predict("fact", "id", ["a", "b"])
        np.testing.assert_allclose(
            predictions, model.predict(x), atol=1e-5
        )
        assert gpu.stats.bytes_to_device > 0
        assert runner.last_seconds > 0

    def test_model_memory_accounted(self):
        db, model, _ = self._setup()
        publish_model(db, "clf", model)
        runner = NativeModelJoin(db, "clf")
        memory = runner.execute("fact", ["a", "b"]).profile.memory
        assert memory.peak_bytes > 0
        assert memory.current_bytes == 0

    def test_default_input_columns_are_floats(self):
        db, model, x = self._setup()
        publish_model(db, "clf", model)
        runner = NativeModelJoin(db, "clf")
        predictions = runner.predict("fact", "id")  # no explicit columns
        np.testing.assert_allclose(
            predictions, model.predict(x), atol=1e-5
        )

    def test_too_few_float_columns(self):
        import repro

        db = repro.connect()
        db.execute("CREATE TABLE thin (id INTEGER, a FLOAT)")
        db.execute("INSERT INTO thin VALUES (1, 0.5)")
        model = Sequential([Dense(1)], input_width=3, seed=0)
        publish_model(db, "wide", model)
        runner = NativeModelJoin(db, "wide")
        with pytest.raises(ModelJoinError, match="explicitly"):
            runner.predict("thin", "id")

    def test_wrong_explicit_column_count(self):
        db, model, _ = self._setup()
        publish_model(db, "clf", model)
        runner = NativeModelJoin(db, "clf")
        with pytest.raises(ModelJoinError, match="expects 2"):
            runner.predict("fact", "id", ["a"])


class TestModelJoinSqlSyntax:
    def test_select_star_model_join(self, cdb, small_dense_model):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(20, 4)).astype(np.float32)
        cdb.execute(
            "CREATE TABLE f (id INTEGER, c0 FLOAT, c1 FLOAT, "
            "c2 FLOAT, c3 FLOAT)"
        )
        cdb.table("f").append_columns(
            id=np.arange(20),
            c0=x[:, 0],
            c1=x[:, 1],
            c2=x[:, 2],
            c3=x[:, 3],
        )
        publish_model(cdb, "clf", small_dense_model)
        result = cdb.execute("SELECT * FROM f MODEL JOIN clf ORDER BY id")
        assert "prediction_0" in result.schema.names
        np.testing.assert_allclose(
            result.column("prediction_0"),
            small_dense_model.predict(x)[:, 0],
            atol=1e-5,
        )

    def test_model_join_nested_in_aggregation(self, cdb, small_dense_model):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(30, 4)).astype(np.float32)
        cdb.execute(
            "CREATE TABLE f (id INTEGER, grp INTEGER, c0 FLOAT, "
            "c1 FLOAT, c2 FLOAT, c3 FLOAT)"
        )
        cdb.table("f").append_columns(
            id=np.arange(30),
            grp=np.arange(30) % 3,
            c0=x[:, 0],
            c1=x[:, 1],
            c2=x[:, 2],
            c3=x[:, 3],
        )
        publish_model(cdb, "clf", small_dense_model)
        result = cdb.execute(
            "SELECT grp, AVG(prediction_0) AS mean_score FROM f "
            "MODEL JOIN clf USING (c0, c1, c2, c3) "
            "GROUP BY grp ORDER BY grp"
        )
        reference = small_dense_model.predict(x)[:, 0]
        for grp, mean_score in result.rows:
            expected = reference[np.arange(30) % 3 == grp].mean()
            assert mean_score == pytest.approx(expected, abs=1e-5)

    def test_model_join_with_where(self, cdb, small_dense_model):
        x = np.ones((10, 4), dtype=np.float32)
        cdb.execute(
            "CREATE TABLE f (id INTEGER, c0 FLOAT, c1 FLOAT, "
            "c2 FLOAT, c3 FLOAT)"
        )
        cdb.table("f").append_columns(
            id=np.arange(10),
            c0=x[:, 0],
            c1=x[:, 1],
            c2=x[:, 2],
            c3=x[:, 3],
        )
        publish_model(cdb, "clf", small_dense_model)
        result = cdb.execute(
            "SELECT id, prediction_0 FROM f MODEL JOIN clf WHERE id < 3 "
            "ORDER BY id"
        )
        assert len(result.rows) == 3


def test_inference_batches_are_cut_from_block_batches():
    """A 10 000-row scan emits 4096 + 4096 + 1024 + 784 rows; a narrow
    model scores each batch in one forward pass, a 512-wide one (1024-row
    inference batches) cuts the two whole blocks into four each."""
    import repro
    from repro.workloads.models import make_dense_model

    db = repro.connect()
    db.execute(
        "CREATE TABLE t (id INTEGER, x1 FLOAT, x2 FLOAT, x3 FLOAT, x4 FLOAT)"
    )
    x = np.random.default_rng(0).standard_normal((10_000, 4))
    db.table("t").append_columns(
        id=np.arange(10_000),
        **{f"x{i + 1}": x[:, i].astype(np.float32) for i in range(4)},
    )
    for name, width, batches in (("narrow", 8, 4), ("wide", 512, 10)):
        publish_model(db, name, make_dense_model(width, 2, seed=width))
        plan, _ = db.explain_analyze(
            f"SELECT id, prediction_0 FROM t MODEL JOIN {name} "
            "USING (x1, x2, x3, x4)"
        )
        line = next(
            line for line in plan.splitlines() if "ModelJoin(" in line
        )
        assert f"[rows: 10000] [batches: {batches}]" in line
    db.close()
