"""Plan fragments and expression trees must pickle (satellite: the
shard wire protocol ships AST fragments between processes)."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.db.column import BlockBuilder
from repro.db.expressions import BinaryOp, ColumnRef, FunctionCall, Literal
from repro.db.plan.fragments import plan_fragments
from repro.db.schema import Column, Schema
from repro.db.sql.parser import parse_statement
from repro.db.types import SqlType
from repro.db.vector import VectorBatch


def roundtrip(value):
    return pickle.loads(pickle.dumps(value))


names = st.sampled_from(["a", "b", "t.a", "t.b", "k"])


@st.composite
def expressions(draw, depth=3):
    if depth == 0:
        return draw(
            st.one_of(
                st.builds(ColumnRef, names),
                st.builds(
                    Literal,
                    st.one_of(
                        st.integers(-100, 100),
                        st.floats(
                            allow_nan=False, allow_infinity=False
                        ),
                        st.text(max_size=5),
                    ),
                ),
            )
        )
    left = draw(expressions(depth=depth - 1))
    right = draw(expressions(depth=depth - 1))
    return draw(
        st.one_of(
            st.builds(
                BinaryOp,
                st.sampled_from(["+", "-", "*", "/", "=", "<", ">"]),
                st.just(left),
                st.just(right),
            ),
            st.builds(
                FunctionCall,
                st.sampled_from(["SUM", "COUNT", "MIN", "MAX", "ABS"]),
                st.just((left,)),
            ),
        )
    )


class TestExpressionPickle:
    @settings(max_examples=50, deadline=None)
    @given(expressions())
    def test_expression_roundtrip(self, expression):
        assert roundtrip(expression) == expression

    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from(
            [
                "SELECT a, b FROM t WHERE a > 3",
                "SELECT a, SUM(b) AS s FROM t GROUP BY a HAVING SUM(b) > 1",
                "SELECT DISTINCT a FROM t ORDER BY a LIMIT 3",
                "SELECT t.a, AVG(t.b) AS m FROM t GROUP BY t.a",
                "SELECT a + b AS c FROM t WHERE a = 1 AND b < 2",
            ]
        )
    )
    def test_statement_roundtrip(self, sql):
        statement = parse_statement(sql)
        assert roundtrip(statement) == statement


class TestEngineObjectPickle:
    def test_block_builder_drops_lock(self):
        schema = Schema((Column("x", SqlType.INTEGER),))
        builder = BlockBuilder(schema)
        builder.append(
            VectorBatch(schema, [np.array([1, 2, 3], dtype=np.int64)])
        )
        clone = roundtrip(builder)
        # the lock is rebuilt, the data survives
        assert clone._lock is not builder._lock
        assert clone.row_count == builder.row_count
        np.testing.assert_array_equal(
            clone.all_blocks()[0].arrays[0],
            builder.all_blocks()[0].arrays[0],
        )

    def test_table_with_rows_roundtrips(self):
        schema = Schema(
            (
                Column("k", SqlType.INTEGER),
                Column("v", SqlType.DOUBLE),
            )
        )
        db = repro.Database()
        table = db.create_table("t", schema, partition_key="k")
        table.append_batch(
            VectorBatch.from_dict(
                schema,
                {
                    "k": np.arange(8, dtype=np.int64),
                    "v": np.arange(8, dtype=np.float64),
                },
            )
        )
        clone = roundtrip(table)
        assert clone.row_count == table.row_count

    def test_vector_batch_roundtrips(self):
        schema = Schema((Column("x", SqlType.DOUBLE),))
        batch = VectorBatch(
            schema, [np.array([1.0, 2.5], dtype=np.float64)]
        )
        clone = roundtrip(batch)
        np.testing.assert_array_equal(clone.arrays[0], batch.arrays[0])


class TestFragmentPickle:
    @pytest.fixture
    def sharded(self):
        db = repro.connect(shards=2)
        db.execute(
            "CREATE TABLE t (k INTEGER, g INTEGER, v DOUBLE) "
            "PARTITION BY (k)"
        )
        yield db
        db.close()

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT k, v FROM t WHERE v > 0.5",
            "SELECT k, SUM(v) AS s FROM t GROUP BY k",
            "SELECT g, AVG(v) AS m, COUNT(v) AS c FROM t GROUP BY g",
            "SELECT g, MIN(v) AS lo, MAX(v) AS hi FROM t "
            "GROUP BY g HAVING COUNT(v) > 1",
        ],
    )
    def test_shard_statement_picklable(self, sharded, sql):
        prepared = sharded._planner().prepare(parse_statement(sql))
        fragment = plan_fragments(prepared, 1)
        assert fragment.sharded and fragment.merge != "decline"
        clone = roundtrip(fragment.statement)
        assert clone == fragment.statement
