"""Failure injection: corrupted model tables and broken inputs.

The §5.5 sanity checks exist because a corrupted model table would
otherwise fail late (or worse, silently).  These tests verify the
failure behaviour of the build phase itself, and that the validator
flags everything the builder would choke on.
"""

import numpy as np
import pytest

import repro
from repro.core.modeljoin.builder import ModelBuilder
from repro.core.modeljoin.runner import NativeModelJoin
from repro.core.registry import publish_model
from repro.core.validation import verify_model_table
from repro.db.catalog import LayerMetadata
from repro.db.vector import VectorBatch
from repro.errors import ModelJoinError
from repro.nn.layers import Dense
from repro.nn.model import Sequential


def fresh_builder(input_width=2, units=3):
    return ModelBuilder(
        input_width=input_width,
        layers=[LayerMetadata("dense", units, "relu")],
        parties=1,
    )


def edge_batch(builder, rows):
    """Rows in the model-table schema of the builder's model."""
    from repro.core.ml_to_sql.representation import (
        MlToSqlOptions,
        model_table_schema,
    )

    schema = model_table_schema(MlToSqlOptions())
    columns = {name: [] for name in schema.names}
    for row in rows:
        for name, value in zip(schema.names, row):
            columns[name].append(value)
    arrays = [
        np.asarray(columns[name], dtype=column.sql_type.numpy_dtype)
        for name, column in zip(schema.names, schema)
    ]
    return VectorBatch(schema, arrays)


class TestBuilderRejectsCorruption:
    def test_dangling_source_raises(self):
        builder = fresh_builder()
        # dense block nodes are [2, 4]; node_in 99 does not exist
        batch = edge_batch(builder, [(99, 2) + (0.0,) * 12])
        with pytest.raises(ModelJoinError, match="node_in"):
            builder.consume_batch(batch)

    def test_lstm_source_outside_state_block(self):
        builder = ModelBuilder(
            input_width=3,
            layers=[LayerMetadata("lstm", 2, "tanh", time_steps=3)],
            parties=1,
        )
        batch = edge_batch(builder, [(7, 0) + (0.0,) * 12])
        with pytest.raises(ModelJoinError, match="state block"):
            builder.consume_batch(batch)

    def test_rows_outside_all_blocks_are_ignored(self):
        # Rows addressing non-existent target nodes match no block and
        # are skipped by the builder (the validator flags them).
        builder = fresh_builder()
        batch = edge_batch(builder, [(0, 999) + (0.0,) * 12])
        builder.consume_batch(batch)  # no exception
        assert builder.rows_consumed == 1


class TestValidatorGuardsTheBuilder:
    """Everything that would corrupt a build is caught by the §5.5
    validator first."""

    def _published(self):
        db = repro.connect()
        model = Sequential(
            [Dense(3, "relu"), Dense(1)], input_width=2, seed=1
        )
        publish_model(db, "clf", model)
        return db, model

    def test_clean_table_builds_and_validates(self):
        db, model = self._published()
        assert verify_model_table(db, "clf").ok
        db.execute("CREATE TABLE f (id INTEGER, a FLOAT, b FLOAT)")
        db.execute("INSERT INTO f VALUES (1, 0.5, 0.5)")
        runner = NativeModelJoin(db, "clf")
        predictions = runner.predict("f", "id", ["a", "b"])
        np.testing.assert_allclose(
            predictions,
            model.predict(np.array([[0.5, 0.5]], dtype=np.float32)),
            atol=1e-5,
        )

    def test_corruption_that_breaks_build_fails_validation(self):
        db, _ = self._published()
        table = db.table("clf_table")
        # a dangling source on the last node (SORTED BY (node) holds)
        nodes = db.execute("SELECT node FROM clf_table").column("node")
        table.append_rows([(42, int(nodes.max())) + (1.0,) * 12])
        report = verify_model_table(db, "clf")
        assert not report.ok
        runner = NativeModelJoin(db, "clf")
        db.execute("CREATE TABLE f (id INTEGER, a FLOAT, b FLOAT)")
        db.execute("INSERT INTO f VALUES (1, 0.5, 0.5)")
        with pytest.raises(ModelJoinError):
            runner.predict("f", "id", ["a", "b"])


class TestRunnerInputFailures:
    def test_missing_fact_table(self):
        db, _ = TestValidatorGuardsTheBuilder()._published()
        from repro.errors import CatalogError

        runner = NativeModelJoin(db, "clf")
        with pytest.raises(CatalogError):
            runner.predict("nonexistent", "id", ["a", "b"])

    def test_missing_input_column(self):
        db, _ = TestValidatorGuardsTheBuilder()._published()
        db.execute("CREATE TABLE f (id INTEGER, a FLOAT)")
        runner = NativeModelJoin(db, "clf")
        from repro.errors import BindError

        with pytest.raises(BindError):
            runner.predict("f", "id", ["a", "missing"])

    def test_non_numeric_inputs_rejected_by_udf(self):
        db = repro.connect()
        db.execute("CREATE TABLE f (id INTEGER, s VARCHAR)")
        db.execute("INSERT INTO f VALUES (1, 'oops')")
        from repro.core.udf_integration.inference_udf import UdfModelJoin

        model = Sequential([Dense(1)], input_width=1, seed=0)
        runner = UdfModelJoin(db, model, name="bad_input")
        with pytest.raises(Exception):
            runner.predict("f", "id", ["s"])
