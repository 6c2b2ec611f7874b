"""Tests for in-database training and the model lifecycle.

Covers ``CREATE MODEL ... AS TRAIN`` end to end (convergence, scoring
parity with the NumPy reference, bit-for-bit seeded reproducibility),
the versioned model catalog (``AS RETRAIN``, ``ALTER MODEL ... SET
VERSION``, ``MODEL JOIN m VERSION k``, cache invalidation on swap),
atomic failure under the ``train.step`` fault site and a simulated
crash between weight-write and registration, persistence of the
version catalog across close/reopen, EXPLAIN for training statements,
retrain-and-swap under live serving traffic, and the SQL4NN-style
validation queries from docs/TRAINING.md.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import connect
from repro.db import faults
from repro.db.engine import Database
from repro.db.faults import FaultInjector
from repro.db.serve import Server
from repro.db.train import (
    TrainingSpec,
    version_table_name,
    weight_checksum,
)
from repro.db.train.executor import _build_model
from repro.db.train.operator import TrainOperator
from repro.db.udf import PythonUdf
from repro.errors import (
    CatalogError,
    InjectedFaultError,
    QueryCancelledError,
    SqlSyntaxError,
    TrainingError,
)

# reopens persistent databases: runs again under `python -X dev` with
# ResourceWarnings as errors
pytestmark = pytest.mark.leak_guard

ROWS = 192


def make_database(rows: int = ROWS, seed: int = 7, **kwargs) -> Database:
    """A database with a linearly separable two-feature dataset."""
    database = connect(**kwargs)
    database.execute(
        "CREATE TABLE pts (x1 DOUBLE, x2 DOUBLE, label DOUBLE)"
    )
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, 2)).astype(np.float32)
    y = (x[:, 0] + x[:, 1] > 0).astype(np.float32)
    database.catalog.table("pts").append_rows(
        [(float(a), float(b), float(l)) for (a, b), l in zip(x, y)]
    )
    return database


TRAIN_SQL = (
    "CREATE MODEL {name} {version} AS {mode} DENSE(8 relu, 1 sigmoid) "
    "ON (SELECT x1, x2, label FROM pts) "
    "WITH (epochs={epochs}, batch_size=32, lr=0.05, seed={seed}, "
    "loss='bce')"
)


def train_sql(
    name: str = "clf",
    mode: str = "TRAIN",
    epochs: int = 25,
    seed: int = 1,
    version: int | None = None,
) -> str:
    return TRAIN_SQL.format(
        name=name,
        mode=mode,
        epochs=epochs,
        seed=seed,
        version=f"VERSION {version}" if version is not None else "",
    )


def scores(database: Database, join: str = "clf") -> np.ndarray:
    result = database.execute(
        f"SELECT prediction_0 FROM pts MODEL JOIN {join} USING (x1, x2)"
    )
    return np.concatenate([batch.arrays[0] for batch in result.batches])


def labels_of(database: Database) -> np.ndarray:
    result = database.execute("SELECT label FROM pts")
    return np.concatenate(
        [batch.arrays[0] for batch in result.batches]
    ).astype(np.float32)


class TestCreateModelTraining:
    def test_trains_converges_and_reports_summary(self):
        database = make_database()
        result = database.execute(train_sql())
        (row,) = result.rows
        model, version, table_name, epochs, batches, loss, checksum = row
        assert model == "clf"
        assert version == 1
        assert table_name == "clf__v1"
        assert epochs == 25
        assert batches == 25 * ((ROWS + 31) // 32)
        assert loss < 0.2  # converged on the separable dataset
        assert checksum == f"{database.catalog.model_version('clf', 1).weight_checksum:08x}"
        predicted = (scores(database) > 0.5).astype(np.float32)
        accuracy = float((predicted == labels_of(database)).mean())
        assert accuracy > 0.95

    def test_scoring_parity_with_numpy_reference(self):
        """MODEL JOIN over the trained table must reproduce
        ``Sequential.predict`` of the same trained weights exactly
        (float64 cast is the only difference)."""
        database = make_database()
        database.execute(train_sql())

        # Retrain the identical model out-of-engine: same seed, same
        # spec, same data order (SELECT preserves insertion order).
        spec = TrainingSpec(
            epochs=25, batch_size=32, learning_rate=0.05, seed=1,
            loss="bce",
        )
        source = database.execute("SELECT x1, x2, label FROM pts")
        features = np.column_stack(
            [source.column("x1"), source.column("x2")]
        ).astype(np.float32)
        labels = np.asarray(
            source.column("label"), dtype=np.float32
        ).reshape(-1, 1)
        from repro.db.sql.ast import CreateModel, LayerSpec
        from repro.db.sql.parser import parse_statement

        statement = parse_statement(train_sql())
        assert isinstance(statement, CreateModel)
        assert statement.layers == (
            LayerSpec(8, "relu"), LayerSpec(1, "sigmoid"),
        )
        model = _build_model(statement, 2, spec.seed)
        TrainOperator(model, spec).run(features, labels)
        assert weight_checksum(model) == (
            database.catalog.model_version("clf", 1).weight_checksum
        )
        reference = model.predict(features).reshape(-1)
        joined = scores(database)
        np.testing.assert_array_equal(
            joined, reference.astype(np.float64)
        )

    def test_same_seed_is_bit_identical(self):
        database = make_database()
        database.execute(train_sql(name="a", seed=3))
        database.execute(train_sql(name="b", seed=3))
        record_a = database.catalog.model_version("a", 1)
        record_b = database.catalog.model_version("b", 1)
        assert record_a.weight_checksum == record_b.weight_checksum
        np.testing.assert_array_equal(
            scores(database, "a"), scores(database, "b")
        )

    def test_different_seed_differs(self):
        database = make_database()
        database.execute(train_sql(name="a", seed=3))
        database.execute(train_sql(name="b", seed=4))
        assert (
            database.catalog.model_version("a", 1).weight_checksum
            != database.catalog.model_version("b", 1).weight_checksum
        )

    def test_empty_source_fails(self):
        database = connect()
        database.execute("CREATE TABLE empty (a DOUBLE, b DOUBLE)")
        with pytest.raises(TrainingError, match="no rows"):
            database.execute(
                "CREATE MODEL m AS TRAIN DENSE(1 sigmoid) "
                "ON (SELECT a, b FROM empty) WITH (epochs=1)"
            )
        assert not database.catalog.has_model("m")

    def test_option_validation(self):
        database = make_database()
        base = (
            "CREATE MODEL m AS TRAIN DENSE(1 sigmoid) "
            "ON (SELECT x1, x2, label FROM pts) WITH ({options})"
        )
        for options, message in [
            ("epochs=0", "epochs"),
            ("lr=-1.0", "learning rate"),
            ("loss='hinge'", "loss"),
            ("wat=1", "unknown"),
            ("epochs=1, epochs=2", "duplicate"),
        ]:
            with pytest.raises(TrainingError, match=message):
                database.execute(base.format(options=options))

    def test_non_numeric_feature_fails(self):
        database = connect()
        database.execute("CREATE TABLE t (name VARCHAR, label DOUBLE)")
        database.catalog.table("t").append_rows([("x", 1.0)])
        with pytest.raises(TrainingError, match="not numeric"):
            database.execute(
                "CREATE MODEL m AS TRAIN DENSE(1 sigmoid) "
                "ON (SELECT name, label FROM t) WITH (epochs=1)"
            )

    def test_parse_errors(self):
        database = make_database()
        with pytest.raises(SqlSyntaxError):
            database.execute(
                "CREATE MODEL m AS TRAIN DENSE() "
                "ON (SELECT x1, label FROM pts)"
            )
        with pytest.raises(SqlSyntaxError):
            database.execute("ALTER MODEL m VERSION 2")


class TestModelLifecycle:
    def test_retrain_versions_and_swap(self):
        database = make_database()
        database.execute(train_sql(seed=1))
        assert database.catalog.current_version("clf") == 1

        database.execute(train_sql(mode="RETRAIN", seed=2, epochs=30))
        # RETRAIN publishes nothing: v2 exists but v1 stays current.
        assert database.catalog.latest_version("clf") == 2
        assert database.catalog.current_version("clf") == 1
        v1 = scores(database, "clf VERSION 1")
        v2 = scores(database, "clf VERSION 2")
        assert not np.array_equal(v1, v2)
        np.testing.assert_array_equal(scores(database), v1)

        database.execute("ALTER MODEL clf SET VERSION 2")
        assert database.catalog.current_version("clf") == 2
        np.testing.assert_array_equal(scores(database), v2)
        # The old version stays queryable, bit-exact.
        np.testing.assert_array_equal(
            scores(database, "clf VERSION 1"), v1
        )

    def test_alter_invalidates_bare_name_cache(self):
        database = make_database()
        database.execute(train_sql(seed=1))
        scores(database)  # caches the v1 build under table clf__v1
        database.execute(train_sql(mode="RETRAIN", seed=2))
        before = database.model_cache.statistics()["invalidations"]
        database.execute("ALTER MODEL clf SET VERSION 2")
        after = database.model_cache.statistics()["invalidations"]
        assert after > before

    def test_duplicate_and_missing_version_errors(self):
        database = make_database()
        database.execute(train_sql())
        with pytest.raises(TrainingError, match="already exists"):
            database.execute(train_sql())
        with pytest.raises(TrainingError, match="already has"):
            database.execute(
                train_sql(mode="RETRAIN", version=1)
            )
        with pytest.raises(TrainingError, match="cannot RETRAIN"):
            database.execute(train_sql(name="ghost", mode="RETRAIN"))
        with pytest.raises(CatalogError):
            database.execute("ALTER MODEL clf SET VERSION 9")
        with pytest.raises(CatalogError):
            database.execute(
                "SELECT prediction_0 FROM pts "
                "MODEL JOIN clf VERSION 9 USING (x1, x2)"
            )

    def test_drop_version_table_cleans_catalog(self):
        database = make_database()
        database.execute(train_sql())
        database.execute(train_sql(mode="RETRAIN", seed=2))
        database.catalog.drop_table(version_table_name("clf", 2))
        assert database.catalog.latest_version("clf") == 1
        # current version (1) survives the cascade
        assert database.catalog.current_version("clf") == 1

    def test_system_models_rows(self):
        database = make_database()
        database.execute(train_sql(seed=1))
        database.execute(train_sql(mode="RETRAIN", seed=2, epochs=30))
        rows = database.execute(
            "SELECT name, version, current, table_name, epochs, seed, "
            "loss, arch FROM system.models ORDER BY version"
        ).rows
        assert rows == [
            ("clf", 1, True, "clf__v1", 25, 1, "bce",
             "dense(8 relu, 1 sigmoid)"),
            ("clf", 2, False, "clf__v2", 30, 2, "bce",
             "dense(8 relu, 1 sigmoid)"),
        ]
        database.execute("ALTER MODEL clf SET VERSION 2")
        rows = database.execute(
            "SELECT version FROM system.models WHERE current"
        ).rows
        assert rows == [(2,)]


class TestFaultsAndAtomicity:
    def test_injected_step_fault_retries_bit_exact(self):
        reference = make_database()
        reference.execute(train_sql())
        expected = reference.catalog.model_version(
            "clf", 1
        ).weight_checksum

        database = make_database()
        injector = FaultInjector().raise_once("train.step", count=2)
        with faults.active(injector):
            database.execute(train_sql())
        assert injector.total_faults() == 2
        assert (
            database.catalog.model_version("clf", 1).weight_checksum
            == expected
        )
        snapshot = database.metrics.snapshot()
        assert snapshot["training.retries"]["value"] == 2

    def test_exhausted_retries_fail_atomically(self):
        database = make_database()
        injector = FaultInjector().raise_with_probability(
            "train.step", 1.0
        )
        with faults.active(injector):
            with pytest.raises(InjectedFaultError):
                database.execute(train_sql())
        assert not database.catalog.has_model("clf")
        assert "clf__v1" not in database.catalog.tables
        assert database.catalog.model_versions == {}
        # the name is free again: a clean retry trains fine
        database.execute(train_sql())
        assert database.catalog.current_version("clf") == 1

    def test_crash_between_weights_and_registration(self, monkeypatch):
        database = make_database()

        def boom(record, make_current=False):
            raise RuntimeError("simulated crash before registration")

        monkeypatch.setattr(
            database.catalog, "register_model_version", boom
        )
        with pytest.raises(RuntimeError, match="simulated crash"):
            database.execute(train_sql())
        monkeypatch.undo()
        # no orphan weight table, no catalog entry
        assert "clf__v1" not in database.catalog.tables
        assert not database.catalog.has_model("clf")
        database.execute(train_sql())
        assert database.catalog.current_version("clf") == 1

    def test_failed_create_lands_in_query_log(self):
        database = make_database()
        injector = FaultInjector().raise_with_probability(
            "train.step", 1.0
        )
        with faults.active(injector):
            with pytest.raises(InjectedFaultError):
                database.execute(train_sql())
        entries = database.query_log.entries()
        failed = [
            entry for entry in entries
            if entry["sql"].startswith("CREATE MODEL")
        ]
        assert failed and failed[-1]["status"] != "ok"


class TestPersistence:
    def test_version_catalog_roundtrip(self, tmp_path):
        database = make_database(path=str(tmp_path))
        database.execute(train_sql(seed=1))
        database.execute(train_sql(mode="RETRAIN", seed=2, epochs=30))
        database.execute("ALTER MODEL clf SET VERSION 2")
        v1 = scores(database, "clf VERSION 1")
        v2 = scores(database)
        record = database.catalog.model_version("clf", 2)
        database.close()

        reopened = connect(path=str(tmp_path))
        assert reopened.catalog.current_version("clf") == 2
        assert reopened.catalog.latest_version("clf") == 2
        restored = reopened.catalog.model_version("clf", 2)
        assert restored.weight_checksum == record.weight_checksum
        assert restored.seed == record.seed
        assert restored.source_fingerprint == record.source_fingerprint
        np.testing.assert_array_equal(
            scores(reopened, "clf VERSION 1"), v1
        )
        np.testing.assert_array_equal(scores(reopened), v2)
        rows = reopened.execute(
            "SELECT name, version, current FROM system.models "
            "ORDER BY version"
        ).rows
        assert rows == [("clf", 1, False), ("clf", 2, True)]
        reopened.close()

    def test_failed_training_leaves_clean_store(self, tmp_path):
        database = make_database(path=str(tmp_path))
        injector = FaultInjector().raise_with_probability(
            "train.step", 1.0
        )
        with faults.active(injector):
            with pytest.raises(InjectedFaultError):
                database.execute(train_sql())
        database.close()
        reopened = connect(path=str(tmp_path))
        assert not reopened.catalog.has_model("clf")
        assert reopened.catalog.model_versions == {}
        reopened.execute(train_sql())
        assert reopened.catalog.current_version("clf") == 1
        reopened.close()


class TestExplain:
    def test_explain_create_model(self):
        database = make_database()
        text = database.explain(train_sql())
        assert "CreateModel(name=clf, version=1, mode=train)" in text
        assert (
            "TrainOperator(arch=dense(8 relu, 1 sigmoid), epochs=25, "
            "batch_size=32, lr=0.05, momentum=0.9, seed=1, loss=bce)"
            in text
        )
        assert "== Physical Plan ==" in text
        assert "== Compiled Code ==" in text  # fused source kernels
        # EXPLAIN must not execute: nothing was trained
        assert not database.catalog.has_model("clf")

    def test_explain_retrain_and_alter(self):
        database = make_database()
        database.execute(train_sql())
        text = database.explain(train_sql(mode="RETRAIN", seed=2))
        assert "version=2, mode=retrain" in text
        assert database.explain("ALTER MODEL clf SET VERSION 1") == (
            "AlterModel(model=clf, set_version=1)"
        )


class TestServingAndSwap:
    def test_snapshot_pins_published_version(self):
        database = make_database()
        database.execute(train_sql(seed=1))
        database.execute(train_sql(mode="RETRAIN", seed=2))
        with database.snapshot() as snapshot:
            database.execute("ALTER MODEL clf SET VERSION 2")
            # the pinned catalog still resolves the capture-time version
            assert snapshot.catalog.current_version("clf") == 1
            assert (
                snapshot.catalog.model("clf").table_name == "clf__v1"
            )
        assert database.catalog.model("clf").table_name == "clf__v2"

    def test_retrain_and_swap_under_live_traffic(self):
        database = make_database()
        database.execute(train_sql(seed=1))
        v1 = scores(database)
        join_sql = (
            "SELECT prediction_0 FROM pts MODEL JOIN clf USING (x1, x2)"
        )
        errors: list[tuple] = []
        stop = threading.Event()
        swapped = threading.Event()
        with Server(
            database, queue_capacity=64, dispatchers=3
        ) as server:
            v2_holder: dict[str, np.ndarray] = {}

            def reader(index: int) -> None:
                with server.open_session(tenant=f"r{index}") as session:
                    while not stop.is_set():
                        result = session.execute(join_sql)
                        got = np.concatenate(
                            [b.arrays[0] for b in result.batches]
                        )
                        if np.array_equal(got, v1):
                            continue
                        v2 = v2_holder.get("v2")
                        if v2 is None or not np.array_equal(got, v2):
                            errors.append((index, got[:4]))
                            return
                        if swapped.is_set():
                            return  # saw the new version post-swap

            threads = [
                threading.Thread(target=reader, args=(i,))
                for i in range(4)
            ]
            for thread in threads:
                thread.start()
            with server.open_session(tenant="trainer") as trainer:
                trainer.execute(
                    train_sql(mode="RETRAIN", seed=2, epochs=30)
                )
                v2_holder["v2"] = scores(database, "clf VERSION 2")
                trainer.execute("ALTER MODEL clf SET VERSION 2")
                swapped.set()
            # post-swap, new admissions must score v2
            with server.open_session(tenant="check") as session:
                result = session.execute(join_sql)
                got = np.concatenate(
                    [b.arrays[0] for b in result.batches]
                )
                assert np.array_equal(got, v2_holder["v2"])
            stop.set()
            for thread in threads:
                thread.join()
        assert errors == []
        database.close()


    def test_served_training_is_one_identified_row(self):
        # CREATE MODEL / ALTER MODEL run under the session's query
        # context: one system.queries row per client statement, with
        # the caller's identity — the source scan is not a second,
        # anonymous query.
        database = make_database()
        statements = [
            train_sql(seed=1),
            train_sql(mode="RETRAIN", seed=2),
            "ALTER MODEL clf SET VERSION 2",
        ]
        with Server(database) as server:
            with server.open_session(tenant="ml") as session:
                before = database.metrics.counter("query.count").value
                for sql in statements:
                    session.execute(sql)
                assert [
                    (row["sql"], row["status"], row["session_id"],
                     row["tenant"])
                    for row in database.query_log.entries()
                ] == [
                    (sql.strip(), "ok", session.session_id, "ml")
                    for sql in statements
                ]
                after = database.metrics.counter("query.count").value
                assert after == before + 3
        database.close()

    def test_session_close_cancels_served_training(self):
        database = make_database()
        gate = threading.Event()

        def hold(values):
            gate.wait(10.0)
            return values

        database.register_udf(PythonUdf("hold_train", 1, hold, marshal=False))
        with Server(database) as server:
            session = server.open_session()
            future = session.submit(
                train_sql().replace(
                    "SELECT x1, x2,", "SELECT x1, hold_train(x2) AS x2,"
                )
            )
            time.sleep(0.1)  # let the source scan reach the UDF
            session.close()
            gate.set()
            with pytest.raises(QueryCancelledError, match="session closed"):
                future.wait(10.0)
        assert not database.catalog.has_model("clf")
        assert [
            row["status"] for row in database.query_log.entries()
        ] == ["cancelled"]
        database.close()


class TestSql4nnValidation:
    """The worked validation queries from docs/TRAINING.md."""

    def setup_method(self):
        self.database = make_database()
        self.database.execute(train_sql(seed=1))
        self.database.execute(
            train_sql(mode="RETRAIN", seed=2, epochs=30)
        )

    def test_weight_norm_audit(self):
        # hidden layer nodes are ids 2..9 (inputs 0..1), output id 10
        rows = self.database.execute(
            "SELECT node, SUM(ABS(w_i)) AS in_norm, MAX(ABS(b_i)) "
            "FROM clf__v1 WHERE node_in >= 0 "
            "GROUP BY node ORDER BY node"
        ).rows
        assert [row[0] for row in rows] == list(range(2, 11))
        assert all(row[1] > 0.0 for row in rows)

    def test_dead_relu_statistics(self):
        # a hidden ReLU unit is dead when no incoming weight can excite
        # it: every w_i <= 0 and bias <= 0
        rows = self.database.execute(
            "SELECT dead, COUNT(*) FROM ("
            "  SELECT node, MAX(w_i) <= 0.0 AND MAX(b_i) <= 0.0 AS dead"
            "  FROM clf__v1"
            "  WHERE node_in >= 0 AND node < 10"
            "  GROUP BY node"
            ") q GROUP BY dead ORDER BY dead"
        ).rows
        counts = dict(rows)
        assert counts.get(True, 0) < 8  # most units stay alive
        assert counts.get(False, 0) + counts.get(True, 0) == 8

    def diff_sql(self, left: str, right: str) -> str:
        return (
            "SELECT grp, MAX(delta) FROM ("
            "  SELECT 1 AS grp, ABS(a.w_i - b.w_i) AS delta"
            f"  FROM {left} a JOIN {right} b"
            "  ON a.node_in = b.node_in AND a.node = b.node"
            ") q GROUP BY grp"
        )

    def test_version_weight_diff(self):
        rows = self.database.execute(
            self.diff_sql("clf__v1", "clf__v2")
        ).rows
        assert rows[0][1] > 0.0  # different seeds → different weights
        rows = self.database.execute(
            self.diff_sql("clf__v1", "clf__v1")
        ).rows
        assert rows[0][1] == 0.0  # self-diff is exactly zero
