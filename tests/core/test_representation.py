import numpy as np
import pytest

from repro.core.ml_to_sql.representation import (
    MlToSqlOptions,
    WEIGHT_COLUMNS,
    blocks_from_dims,
    build_relational_model,
    model_table_schema,
)
from repro.errors import UnsupportedModelError
from repro.nn.layers import Dense, Lstm
from repro.nn.model import Sequential


@pytest.fixture
def dense_model() -> Sequential:
    return Sequential(
        [Dense(3, "relu"), Dense(2, "sigmoid")], input_width=4, seed=0
    )


@pytest.fixture
def lstm_model() -> Sequential:
    return Sequential([Lstm(3), Dense(1)], input_width=3, seed=1)


class TestSchema:
    def test_optimized_schema_has_14_columns(self):
        schema = model_table_schema(MlToSqlOptions())
        assert len(schema) == 14
        assert schema.names[:2] == ("node_in", "node")

    def test_classic_schema_has_16_columns(self):
        schema = model_table_schema(
            MlToSqlOptions(optimized_node_ids=False)
        )
        assert len(schema) == 16
        assert schema.names[:4] == ("layer_in", "node_in", "layer", "node")

    def test_weight_columns_are_float(self):
        schema = model_table_schema(MlToSqlOptions())
        for name in WEIGHT_COLUMNS:
            assert schema.type_of(name).value == "FLOAT"


class TestDenseRepresentation:
    def test_edge_count(self, dense_model):
        relational = build_relational_model(dense_model)
        # input identity edges + 4*3 + 3*2
        assert relational.edge_count == 4 + 12 + 6

    def test_blocks_layout(self, dense_model):
        relational = build_relational_model(dense_model)
        kinds = [block.kind for block in relational.blocks]
        assert kinds == ["input", "dense", "dense"]
        firsts = [block.first_node for block in relational.blocks]
        assert firsts == [0, 4, 7]

    def test_input_edges_have_unit_weight(self, dense_model):
        relational = build_relational_model(dense_model)
        columns = relational.columns
        inputs = columns["node_in"] == -1
        assert inputs.sum() == 4
        assert (columns["w_i"][inputs] == 1.0).all()

    def test_weights_recoverable_from_rows(self, dense_model):
        relational = build_relational_model(dense_model)
        columns = relational.columns
        block = relational.blocks[1]
        kernel = np.zeros((4, 3), dtype=np.float32)
        bias = np.zeros(3, dtype=np.float32)
        node = columns["node"]
        rows = (block.first_node <= node) & (node <= block.last_node)
        targets = node[rows] - block.first_node
        kernel[columns["node_in"][rows], targets] = columns["w_i"][rows]
        bias[targets] = columns["b_i"][rows]
        np.testing.assert_allclose(
            kernel, dense_model.layers[0].kernel, atol=1e-7
        )
        np.testing.assert_allclose(
            bias, dense_model.layers[0].bias, atol=1e-7
        )

    def test_classic_rows_carry_layers(self, dense_model):
        options = MlToSqlOptions(optimized_node_ids=False)
        relational = build_relational_model(dense_model, options)
        assert set(relational.columns["layer"].tolist()) == {0, 1, 2}

    def test_columns_follow_schema(self, dense_model):
        for optimized in (True, False):
            options = MlToSqlOptions(optimized_node_ids=optimized)
            relational = build_relational_model(dense_model, options)
            schema = model_table_schema(options)
            assert tuple(relational.columns) == schema.names
            for column in schema:
                array = relational.columns[column.name]
                assert array.dtype == column.sql_type.numpy_dtype
                assert len(array) == relational.edge_count


class TestLstmRepresentation:
    def test_edge_count_is_units_squared(self, lstm_model):
        relational = build_relational_model(lstm_model)
        # lstm block 3*3 + dense 3*1
        assert relational.edge_count == 9 + 3

    def test_no_input_block_for_lstm_first(self, lstm_model):
        relational = build_relational_model(lstm_model)
        kinds = [block.kind for block in relational.blocks]
        assert kinds == ["lstm_state", "dense"]

    def test_diagonal_edges_carry_kernel_and_bias(self, lstm_model):
        relational = build_relational_model(lstm_model)
        columns = relational.columns
        block = relational.block("lstm_state")
        node, node_in = columns["node"], columns["node_in"]
        rows = (block.first_node <= node) & (node <= block.last_node)
        diagonal = rows & (node_in == node)
        units = node[diagonal] - block.first_node
        np.testing.assert_allclose(
            columns["w_i"][diagonal], lstm_model.layers[0].kernel[0, units]
        )
        assert (columns["w_i"][rows & ~diagonal] == 0.0).all()

    def test_recurrent_activation_recorded(self):
        model = Sequential(
            [Lstm(2, recurrent_activation="tanh"), Dense(1)],
            input_width=3,
        )
        block = build_relational_model(model).block("lstm_state")
        assert block.recurrent_activation == "tanh"

    def test_multifeature_lstm_rejected(self):
        model = Sequential(
            [Lstm(2), Dense(1)],
            input_width=4,
            features_per_step=2,
        )
        with pytest.raises(UnsupportedModelError):
            build_relational_model(model)


class TestBlocksFromDims:
    def test_agrees_with_build_for_dense(self, dense_model):
        relational = build_relational_model(dense_model)
        derived = blocks_from_dims(
            4, [("dense", 3, "relu"), ("dense", 2, "sigmoid")]
        )
        assert [
            (block.kind, block.first_node, block.units)
            for block in derived
        ] == [
            (block.kind, block.first_node, block.units)
            for block in relational.blocks
        ]

    def test_agrees_with_build_for_lstm(self, lstm_model):
        relational = build_relational_model(lstm_model)
        derived = blocks_from_dims(
            3, [("lstm", 3, "tanh"), ("dense", 1, "linear")]
        )
        assert [
            (block.kind, block.first_node, block.units)
            for block in derived
        ] == [
            (block.kind, block.first_node, block.units)
            for block in relational.blocks
        ]

    def test_unknown_layer_type(self):
        with pytest.raises(UnsupportedModelError):
            blocks_from_dims(2, [("conv", 3, "relu")])
