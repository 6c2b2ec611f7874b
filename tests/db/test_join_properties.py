"""Property-based tests: hash join vs a naive reference join."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.expressions import ColumnRef
from repro.db.operators import ExecutionContext, HashJoin
from repro.db.operators.misc import UnionAll, ValuesOperator
from repro.db.schema import Schema
from repro.db.types import SqlType


def values_in_batches(context, schema, rows, size):
    """*rows* as a source of *size*-row batches: a UNION ALL of VALUES
    operators, each of which emits its rows as one batch."""
    return UnionAll(
        context,
        [
            ValuesOperator(context, schema, rows[start : start + size])
            for start in range(0, max(len(rows), 1), size)
        ],
    )


def reference_join(left_rows, right_rows):
    return sorted(
        left + right
        for left in left_rows
        for right in right_rows
        if left[0] == right[0]
    )


@settings(max_examples=50, deadline=None)
@given(
    left_rows=st.lists(
        st.tuples(
            st.integers(min_value=-3, max_value=3),
            st.integers(min_value=0, max_value=99),
        ),
        max_size=60,
    ),
    right_rows=st.lists(
        st.tuples(
            st.integers(min_value=-3, max_value=3),
            st.integers(min_value=100, max_value=199),
        ),
        max_size=60,
    ),
)
def test_hash_join_matches_nested_loops(left_rows, right_rows):
    context = ExecutionContext(vector_size=9)
    left = values_in_batches(
        context,
        Schema.of(("k", SqlType.INTEGER), ("lv", SqlType.INTEGER)),
        left_rows,
        9,
    )
    right = values_in_batches(
        context,
        Schema.of(("k2", SqlType.INTEGER), ("rv", SqlType.INTEGER)),
        right_rows,
        9,
    )
    join = HashJoin(
        context, left, right, [ColumnRef("k")], [ColumnRef("k2")]
    )
    got = sorted(
        row for batch in join.batches() for row in batch.to_rows()
    )
    assert got == reference_join(left_rows, right_rows)


@settings(max_examples=30, deadline=None)
@given(
    keys=st.lists(
        st.floats(allow_nan=False, width=32, min_value=-10, max_value=10),
        max_size=40,
    )
)
def test_float_key_join_equality_semantics(keys):
    """Float keys (incl. +/-0.0) join by SQL value equality."""
    context = ExecutionContext()
    rows = [(float(np.float32(key)),) for key in keys]
    left = ValuesOperator(
        context, Schema.of(("k", SqlType.FLOAT),), rows
    )
    right = ValuesOperator(
        context, Schema.of(("k2", SqlType.FLOAT),), [(0.0,), (-0.0,), (1.0,)]
    )
    join = HashJoin(
        context, left, right, [ColumnRef("k")], [ColumnRef("k2")]
    )
    got = len(
        [row for batch in join.batches() for row in batch.to_rows()]
    )
    expected = sum(
        1
        for (k,) in rows
        for probe in (0.0, -0.0, 1.0)
        if k == probe
    )
    assert got == expected
