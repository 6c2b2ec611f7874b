"""Loader (both paths) and SQL generator structure tests."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ml_to_sql.generator import MlToSqlModelJoin, SqlGenerator
from repro.core.ml_to_sql.loader import insert_statements, load_model_table
from repro.core.ml_to_sql.representation import (
    WEIGHT_COLUMNS,
    MlToSqlOptions,
    build_relational_model,
    model_table_schema,
)
from repro.core.ml_to_sql.templates import activation_sql
from repro.core.registry import publish_model
from repro.db.engine import Database
from repro.errors import UnsupportedModelError
from repro.nn.layers import Dense, Lstm
from repro.nn.model import Sequential
from repro.workloads.models import make_dense_model


@pytest.fixture
def model() -> Sequential:
    return Sequential([Dense(3, "relu"), Dense(1)], input_width=2, seed=4)


class TestLoader:
    def test_bulk_and_statement_paths_identical(self, model):
        relational = build_relational_model(model)
        bulk_db, sql_db = Database(), Database()
        load_model_table(bulk_db, "m", relational)
        for statement in insert_statements(relational, "m"):
            sql_db.execute(statement)
        query = "SELECT * FROM m ORDER BY node, node_in"
        assert bulk_db.execute(query).rows == sql_db.execute(query).rows

    def test_insert_statements_start_with_ddl(self, model):
        relational = build_relational_model(model)
        statements = list(insert_statements(relational, "m"))
        assert statements[0].startswith("CREATE TABLE m")
        assert all(s.startswith("INSERT") for s in statements[1:])

    def test_rows_chunked(self, model):
        relational = build_relational_model(model)
        statements = list(
            insert_statements(relational, "m", rows_per_statement=2)
        )
        inserts = [s for s in statements if s.startswith("INSERT")]
        assert len(inserts) == -(-relational.edge_count // 2)

    def test_sorted_by_node_for_pruning(self, model):
        db = Database()
        relational = load_model_table(db, "m", model)
        nodes = db.execute("SELECT node, node_in FROM m").column("node")
        assert (np.diff(nodes) >= 0).all()
        assert relational.table_name == "m"

    def test_replace(self, model):
        db = Database()
        load_model_table(db, "m", model)
        load_model_table(db, "m", model, replace=True)

    def test_float32_weight_roundtrip_via_sql_text(self):
        # A weight with no short decimal representation must survive
        # the SQL-literal round trip bit-exactly.
        layer = Dense(1, "linear")
        weight = np.float32(1.0) / np.float32(3.0)
        layer.set_weights(np.array([[weight]]), np.array([weight]))
        model = Sequential([layer], input_width=1)
        db = Database()
        relational = build_relational_model(model)
        for statement in insert_statements(relational, "m"):
            db.execute(statement)
        stored = db.execute(
            "SELECT w_i, node FROM m WHERE node_in = 0"
        ).column("w_i")[0]
        assert np.float32(stored) == weight


def reference_rows(model: Sequential, options: MlToSqlOptions) -> list[tuple]:
    """The model table built one Python tuple per edge (the oracle).

    Section 4.3's graph spelled out edge by edge: identity input edges
    from the artificial node ``-1`` (dense-first models), a full
    ``units x units`` state grid per LSTM with kernel and bias weights
    on the diagonal, and a ``source x target`` grid per dense layer;
    rows sorted by ``(node, node_in)``.
    """
    rows = []

    def edge(layer_in, node_in, layer, node, **weights):
        vector = [float(weights.get(name, 0.0)) for name in WEIGHT_COLUMNS]
        if options.optimized_node_ids:
            rows.append((node_in, node, *vector))
        else:
            rows.append((layer_in, node_in, layer, node, *vector))

    previous = None  # (layer index, first node, units)
    next_node = layer_index = 0
    if not model.has_lstm:
        for node in range(model.input_width):
            edge(-1, -1, 0, node, w_i=1.0)
        previous = (0, 0, model.input_width)
        next_node = model.input_width
        layer_index = 1
    for layer in model.layers:
        first = next_node
        if isinstance(layer, Lstm):
            gates = layer.gate_slices()
            for source in range(layer.units):
                for target in range(layer.units):
                    weights = {
                        f"u_{gate}": layer.recurrent_kernel[source, cells][
                            target
                        ]
                        for gate, cells in gates.items()
                    }
                    if source == target:
                        for gate, cells in gates.items():
                            weights[f"w_{gate}"] = layer.kernel[0, cells][
                                target
                            ]
                            weights[f"b_{gate}"] = layer.bias[cells][target]
                    edge(
                        layer_index,
                        first + source,
                        layer_index,
                        first + target,
                        **weights,
                    )
        else:
            source_layer, source_first, source_units = previous
            for source in range(source_units):
                for target in range(layer.units):
                    edge(
                        source_layer,
                        source_first + source,
                        layer_index,
                        first + target,
                        w_i=layer.kernel[source, target],
                        b_i=layer.bias[target],
                    )
        previous = (layer_index, first, layer.units)
        next_node += layer.units
        layer_index += 1
    schema = model_table_schema(options)
    node, node_in = schema.position_of("node"), schema.position_of("node_in")
    return sorted(rows, key=lambda row: (row[node], row[node_in]))


@st.composite
def models_and_options(draw):
    activations = st.sampled_from(["linear", "relu", "sigmoid", "tanh"])
    input_width = draw(st.integers(1, 6))
    if draw(st.booleans()):
        layers = [Lstm(draw(st.integers(1, 12)), draw(activations))]
        dense_widths = draw(st.lists(st.integers(1, 40), max_size=2))
    else:
        layers = []
        dense_widths = draw(
            st.lists(st.integers(1, 40), min_size=1, max_size=4)
        )
    layers += [Dense(width, draw(activations)) for width in dense_widths]
    model = Sequential(
        layers, input_width=input_width, seed=draw(st.integers(0, 1000))
    )
    options = MlToSqlOptions(
        optimized_node_ids=draw(st.booleans()),
        model_table_partitions=draw(st.integers(1, 3)),
    )
    return model, options


class TestLoadedTableMatchesPerEdgeOracle:
    @settings(max_examples=60, deadline=None)
    @given(case=models_and_options())
    def test_columns_dtypes_and_partitions(self, case):
        model, options = case
        db = Database()
        relational = load_model_table(db, "m", model, options)
        table = db.table("m")
        schema = model_table_schema(options)
        rows = reference_rows(model, options)
        assert relational.edge_count == len(rows)
        parts = options.model_table_partitions
        sizes = [
            len(rows) // parts + (index < len(rows) % parts)
            for index in range(parts)
        ]
        assert [p.row_count for p in table.partitions] == sizes
        start = 0
        for partition, size in zip(table.partitions, sizes):
            chunk = rows[start : start + size]
            start += size
            blocks = partition.blocks()
            for position, column in enumerate(schema):
                dtype = column.sql_type.numpy_dtype
                stored = [block.arrays[position] for block in blocks]
                assert all(array.dtype == dtype for array in stored)
                np.testing.assert_array_equal(
                    np.concatenate(stored) if stored else np.empty(0, dtype),
                    np.array([row[position] for row in chunk], dtype=dtype),
                )


#: SHA-256 of the INSERT text of two fixed models: the portable load
#: script is an output format, so its bytes must not drift
GOLDEN_INSERT_SHA256 = {
    "dense": "0e203d47d5ea3f7e8f54ae514ea98994106dab8dbbcf96d1638233bb47c95d91",
    "lstm": "21a628cf463e3307f2b92aa1eceaba943c68c48235907a173d0e8568ee90bed4",
}


class TestInsertStatementsGolden:
    @pytest.mark.parametrize(
        "name, model",
        [
            (
                "dense",
                Sequential(
                    [Dense(5, "relu"), Dense(3, "tanh"), Dense(2, "sigmoid")],
                    input_width=3,
                    seed=7,
                ),
            ),
            ("lstm", Sequential([Lstm(4), Dense(2)], input_width=3, seed=5)),
        ],
    )
    def test_text_is_unchanged(self, name, model):
        statements = insert_statements(
            build_relational_model(model), "golden", rows_per_statement=16
        )
        digest = hashlib.sha256("\n".join(statements).encode()).hexdigest()
        assert digest == GOLDEN_INSERT_SHA256[name]


def test_publish_peak_memory_is_bounded():
    # The built columns and the stored blocks may both be alive at the
    # peak, but not one Python object per weight (that peaks above 6x).
    model = make_dense_model(256, 4)
    db = Database()
    tracemalloc.start()
    try:
        publish_model(db, "m", model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    table = db.table("m_table")
    assert table.row_count == 197_892
    assert peak < 3 * table.nominal_bytes()


class TestActivationSql:
    @pytest.mark.parametrize("native", [True, False])
    @pytest.mark.parametrize(
        "name", ["linear", "relu", "sigmoid", "tanh"]
    )
    def test_activation_sql_evaluates_correctly(self, name, native):
        from repro.nn.activations import get_activation

        db = Database()
        db.execute("CREATE TABLE v (x FLOAT)")
        values = [-2.0, -0.5, 0.0, 0.5, 2.0]
        db.execute(
            "INSERT INTO v VALUES "
            + ", ".join(f"({value})" for value in values)
        )
        expression = activation_sql(name, "x", native)
        got = db.execute(f"SELECT {expression} AS y, x FROM v").column("y")
        expected = get_activation(name)(
            np.array(values, dtype=np.float32)
        )
        np.testing.assert_allclose(got, expected, atol=1e-6)

    def test_unknown_activation(self):
        with pytest.raises(UnsupportedModelError):
            activation_sql("swish", "x", True)


class TestGeneratorStructure:
    def test_wrong_input_column_count(self, model):
        db = Database()
        relational = load_model_table(db, "m", model)
        with pytest.raises(UnsupportedModelError, match="2 input columns"):
            SqlGenerator(relational, "f", "id", ["a", "b", "c"])

    def test_unloaded_model_rejected(self, model):
        relational = build_relational_model(model)
        with pytest.raises(UnsupportedModelError, match="load_model_table"):
            SqlGenerator(relational, "f", "id", ["a", "b"])

    def test_lstm_requires_optimized_ids(self):
        db = Database()
        model = Sequential([Lstm(2), Dense(1)], input_width=3)
        options = MlToSqlOptions(optimized_node_ids=False)
        relational = load_model_table(db, "m", model, options)
        with pytest.raises(UnsupportedModelError, match="optimized"):
            SqlGenerator(relational, "f", "id", ["a", "b", "c"])

    def test_nesting_depth_matches_layers(self, model):
        db = Database()
        relational = load_model_table(db, "m", model)
        generator = SqlGenerator(relational, "f", "id", ["a", "b"])
        blocks = generator.building_blocks()
        names = [name for name, _ in blocks]
        assert names == ["input", "dense@2", "dense@5", "output"]
        # every level's SQL contains the previous level's SQL
        for (_, inner), (_, outer) in zip(blocks, blocks[1:]):
            assert inner in outer

    def test_optimized_query_has_range_predicates(self, model):
        db = Database()
        relational = load_model_table(db, "m", model)
        sql = SqlGenerator(relational, "f", "id", ["a", "b"]).inference_query()
        assert "m.node >=" in sql and "m.node <=" in sql
        assert "layer" not in sql.lower()

    def test_classic_query_joins_on_pairs(self, model):
        db = Database()
        options = MlToSqlOptions(optimized_node_ids=False)
        relational = load_model_table(db, "mc", model, options)
        sql = SqlGenerator(relational, "f", "id", ["a", "b"]).inference_query()
        assert "t.layer = m.layer_in" in sql
        assert "m.layer =" in sql

    def test_portable_mode_avoids_native_functions(self):
        db = Database()
        model = Sequential(
            [Dense(2, "sigmoid"), Dense(1, "tanh")], input_width=2
        )
        options = MlToSqlOptions(native_activation_functions=False)
        relational = load_model_table(db, "m", model, options)
        sql = SqlGenerator(relational, "f", "id", ["a", "b"]).inference_query()
        assert "SIGMOID" not in sql and "TANH" not in sql
        assert "EXP" in sql

    def test_payload_columns_joined_late(self, model):
        db = Database()
        relational = load_model_table(db, "m", model)
        sql = SqlGenerator(
            relational, "f", "id", ["a", "b"], payload_columns=["extra"]
        ).inference_query()
        assert "f.extra AS extra" in sql

    def test_multi_output_generates_one_join_per_node(self):
        db = Database()
        model = Sequential([Dense(2), Dense(3)], input_width=2)
        relational = load_model_table(db, "m", model)
        sql = SqlGenerator(relational, "f", "id", ["a", "b"]).inference_query()
        for index in range(3):
            assert f"prediction_{index}" in sql
        assert sql.count("AS r0") == 1 and sql.count("AS r2") == 1


class TestMlToSqlModelJoinRunner:
    def test_end_to_end_predict(self, iris_db, small_dense_model):
        runner = MlToSqlModelJoin(iris_db, small_dense_model)
        predictions = runner.predict(
            "iris", "id", ["f0", "f1", "f2", "f3"]
        )
        features = np.column_stack(
            [
                iris_db.execute(
                    "SELECT id, f0, f1, f2, f3 FROM iris ORDER BY id"
                ).column(name)
                for name in ("f0", "f1", "f2", "f3")
            ]
        )
        reference = small_dense_model.predict(features)
        np.testing.assert_allclose(predictions, reference, atol=1e-4)
