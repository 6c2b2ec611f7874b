"""Python UDF machinery: registration, marshalling, statistics."""

import numpy as np
import pytest

from repro.db.engine import Database
from repro.db.types import SqlType
from repro.db.udf import PythonUdf
from repro.errors import ExecutionError


def add_udf(vectorized=True, marshal=True):
    if vectorized:

        def add(xs, ys):
            return [x + y for x, y in zip(xs, ys)]

    else:

        def add(x, y):
            return x + y

    return PythonUdf(
        "my_add",
        2,
        add,
        result_type=SqlType.DOUBLE,
        vectorized=vectorized,
        marshal=marshal,
    )


@pytest.fixture
def udf_db(db: Database) -> Database:
    db.execute("CREATE TABLE t (a FLOAT, b FLOAT)")
    db.execute("INSERT INTO t VALUES (1.0, 2.0), (3.0, 4.0), (5.0, 6.0)")
    return db


class TestUdfCall:
    def test_vectorized_direct_call(self):
        udf = add_udf()
        out = udf(np.array([1.0, 2.0]), np.array([10.0, 20.0]))
        assert out.tolist() == [11.0, 22.0]
        assert udf.statistics.calls == 1
        assert udf.statistics.rows == 2

    def test_per_tuple_counts_calls(self):
        udf = add_udf(vectorized=False)
        out = udf(np.array([1.0, 2.0, 3.0]), np.array([1.0, 1.0, 1.0]))
        assert out.tolist() == [2.0, 3.0, 4.0]
        assert udf.statistics.calls == 3

    def test_wrong_arity(self):
        udf = add_udf()
        with pytest.raises(ExecutionError):
            udf(np.array([1.0]))

    def test_wrong_result_length(self):
        udf = PythonUdf(
            "bad", 1, lambda xs: [1.0], result_type=SqlType.DOUBLE
        )
        with pytest.raises(ExecutionError):
            udf(np.array([1.0, 2.0]))

    def test_marshal_false_passes_arrays(self):
        captured = {}

        def probe(xs):
            captured["type"] = type(xs)
            return xs

        udf = PythonUdf("probe", 1, probe, marshal=False)
        udf(np.array([1.0]))
        assert captured["type"] is np.ndarray

    def test_marshal_true_passes_lists(self):
        captured = {}

        def probe(xs):
            captured["type"] = type(xs)
            return xs

        udf = PythonUdf("probe2", 1, probe, marshal=True)
        udf(np.array([1.0]))
        assert captured["type"] is list


class TestUdfInSql:
    def test_registered_udf_callable_from_sql(self, udf_db):
        udf_db.register_udf(add_udf())
        result = udf_db.execute(
            "SELECT my_add(a, b) AS s FROM t ORDER BY s"
        )
        assert [row[0] for row in result.rows] == [3.0, 7.0, 11.0]

    def test_udf_composes_with_expressions(self, udf_db):
        udf_db.register_udf(add_udf())
        result = udf_db.execute(
            "SELECT my_add(a, b) * 2 AS s2 FROM t WHERE a > 2 ORDER BY s2"
        )
        assert [row[0] for row in result.rows] == [14.0, 22.0]

    def test_vectorized_udf_called_once_per_vector(self, db):
        db.execute("CREATE TABLE big (a FLOAT, b FLOAT)")
        n = 3000  # ~3 vectors at the default vector size of 1024
        db.table("big").append_columns(
            a=np.ones(n, dtype=np.float32),
            b=np.ones(n, dtype=np.float32),
        )
        udf = db.register_udf(add_udf())
        db.execute("SELECT my_add(a, b) AS s FROM big")
        assert udf.statistics.rows == n
        assert udf.statistics.calls == 3

    def test_udf_over_join_output_called_per_vector(self, db):
        """A join emits batches of up to one block; the kernel calling
        the UDF still cuts them into 1024-row vectors."""
        db.execute("CREATE TABLE f (k INTEGER, a DOUBLE)")
        db.execute("CREATE TABLE d (k INTEGER, b DOUBLE)")
        db.table("f").append_columns(k=np.arange(3000) % 2, a=np.ones(3000))
        db.table("d").append_columns(k=np.array([0, 0, 1]), b=np.ones(3))
        lengths = []

        def probe(values):
            lengths.append(len(values))
            return values

        db.register_udf(
            PythonUdf(
                "probe", 1, probe, result_type=SqlType.DOUBLE, marshal=False
            )
        )
        plan, result = db.explain_analyze(
            "SELECT probe(f.a + d.b) AS s FROM f, d WHERE f.k = d.k"
        )
        # probe batches of 2048 and 952 rows join to 3072 and 1428 rows
        assert "[rows: 4500] [batches: 2]" in next(
            line for line in plan.splitlines() if "HashJoin" in line
        )
        assert len(result.rows) == 4500
        assert lengths == [1024, 1024, 1024, 1024, 404]

    def test_udf_join_keys_and_residual_called_per_vector(self, db):
        """A UDF in a hash-join key is evaluated per 1024-row vector on
        both sides, and in the residual over the joined rows."""
        db.execute("CREATE TABLE f (k INTEGER, a DOUBLE)")
        db.execute("CREATE TABLE d (k INTEGER, b DOUBLE)")
        db.table("f").append_columns(
            k=np.arange(5000) % 1500, a=np.arange(5000, dtype=np.float64)
        )
        db.table("d").append_columns(
            k=np.arange(3000) % 2000, b=np.arange(3000, dtype=np.float64)
        )
        lengths = []

        def ident(values):
            lengths.append(len(values))
            return values

        db.register_udf(
            PythonUdf(
                "ident", 1, ident, result_type=SqlType.INTEGER, marshal=False
            )
        )
        got = db.execute(
            "SELECT f.a, d.b FROM f, d "
            "WHERE ident(f.k) = ident(d.k) AND ident(f.k) + d.b > 10"
        )
        assert "HashJoin(IDENT(f.k) = IDENT(d.k)" in db.explain(
            "SELECT f.a FROM f, d WHERE ident(f.k) = ident(d.k)"
        )
        want = db.execute(
            "SELECT f.a, d.b FROM f, d WHERE f.k = d.k AND f.k + d.b > 10"
        )
        assert sorted(got.rows) == sorted(want.rows)
        assert len(got.rows) == 8476
        matches = len(db.execute("SELECT f.a FROM f, d WHERE f.k = d.k").rows)
        # build keys, probe keys, and the residual over every key match
        assert sum(lengths) == 3000 + 5000 + matches
        assert max(lengths) <= 1024
