"""Model-table sanity checks (paper Section 5.5)."""

import pytest

import repro
from repro.core.registry import publish_model
from repro.core.validation import verify_model_table
from repro.nn.layers import Dense, Lstm
from repro.nn.model import Sequential


@pytest.fixture
def published():
    db = repro.connect()
    model = Sequential(
        [Dense(4, "relu"), Dense(2, "sigmoid")], input_width=3, seed=1
    )
    publish_model(db, "clf", model)
    return db, model


class TestHealthyTables:
    def test_dense_model_passes(self, published):
        db, _ = published
        report = verify_model_table(db, "clf")
        assert report.ok, report.issues
        assert report.edges_checked == 3 + 12 + 8

    def test_lstm_model_passes(self):
        db = repro.connect()
        model = Sequential([Lstm(4), Dense(1)], input_width=3, seed=2)
        publish_model(db, "fc", model)
        report = verify_model_table(db, "fc")
        assert report.ok, report.issues
        assert report.edges_checked == 16 + 4

    def test_report_renders(self, published):
        db, _ = published
        text = str(verify_model_table(db, "clf"))
        assert "OK" in text


class TestCorruptionDetected:
    def _table(self, db):
        return db.table(db.catalog.model("clf").table_name)

    def test_extra_edge_detected(self, published):
        db, _ = published
        # A duplicate edge inside the last dense block (appended rows
        # keep the table's SORTED BY (node) order).
        self._table(db).append_rows(
            [(3, 8) + (0.5,) * 12]
        )
        report = verify_model_table(db, "clf")
        assert not report.ok
        assert any("expected" in issue for issue in report.issues)
        assert any("duplicate" in issue for issue in report.issues)

    def test_out_of_range_node_detected(self, published):
        db, _ = published
        self._table(db).append_rows([(0, 999) + (0.0,) * 12])
        report = verify_model_table(db, "clf")
        assert any("outside" in issue for issue in report.issues)

    def test_dangling_source_detected(self, published):
        db, _ = published
        # Dense block at nodes 7..8 fed from node 0 (the input block,
        # not the previous layer).
        self._table(db).append_rows([(0, 8) + (0.0,) * 12])
        report = verify_model_table(db, "clf")
        assert any(
            "do not originate" in issue or "expected" in issue
            for issue in report.issues
        )

    def test_non_finite_weight_detected(self, published):
        db, _ = published
        self._table(db).append_rows(
            [(1, 8, float("nan")) + (0.0,) * 11]
        )
        report = verify_model_table(db, "clf")
        assert any("non-finite" in issue for issue in report.issues)

    def test_empty_table_detected(self):
        db = repro.connect()
        model = Sequential([Dense(1)], input_width=1, seed=0)
        publish_model(db, "ghost", model)
        db.execute("DROP TABLE ghost_table")  # cascades the model entry
        from repro.core.ml_to_sql.representation import (
            MlToSqlOptions,
            model_table_schema,
        )
        from repro.core.registry import model_metadata

        db.create_table("ghost_table", model_table_schema(MlToSqlOptions()))
        db.register_model(model_metadata("ghost", "ghost_table", model))
        report = verify_model_table(db, "ghost")
        assert any("empty" in issue for issue in report.issues)

    def test_wrong_schema_detected(self):
        db = repro.connect()
        model = Sequential([Dense(1)], input_width=1, seed=0)
        publish_model(db, "m", model)
        db.execute("DROP TABLE m_table")
        db.execute("CREATE TABLE m_table (a INTEGER, b FLOAT)")
        # re-register: drop cascaded the model entry
        from repro.core.registry import model_metadata

        db.register_model(model_metadata("m", "m_table", model))
        report = verify_model_table(db, "m")
        assert any("schema" in issue for issue in report.issues)
