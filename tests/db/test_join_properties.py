"""Property-based tests: hash join vs a naive reference join."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.expressions import ColumnRef
from repro.db.operators import ExecutionContext, HashJoin
from repro.db.operators.misc import UnionAll, ValuesOperator
from repro.db.schema import Schema
from repro.db.types import SqlType
from repro.errors import TypeMismatchError


def values_in_batches(context, schema, rows, size):
    """*rows* as a source of *size*-row batches: a UNION ALL of VALUES
    operators, each of which emits its rows in batches of at most one
    block."""
    return UnionAll(
        context,
        [
            ValuesOperator(context, schema, rows[start : start + size])
            for start in range(0, max(len(rows), 1), size)
        ],
    )


#: value pools per key type: ties, signed zeros, infinities and NaN
POOLS = {
    SqlType.INTEGER: [-2, -1, 0, 1, 2, 3],
    SqlType.FLOAT: [0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, 2.0, 2.5],
    SqlType.VARCHAR: ["", "a", "b", "ab"],
}
#: (probe type, build type) of one key pair
KEY_PAIRS = [
    (SqlType.INTEGER, SqlType.INTEGER),
    (SqlType.FLOAT, SqlType.FLOAT),
    (SqlType.VARCHAR, SqlType.VARCHAR),
    (SqlType.INTEGER, SqlType.FLOAT),
    (SqlType.FLOAT, SqlType.INTEGER),
]
#: sizes around the vector (1024) and block (4096) boundaries
EDGE_SIZES = [0, 1, 1023, 1024, 1025, 4095, 4096, 4097]


def key_code(value, as_float):
    """The join's key equality as a Python value: a number paired with
    a float compares as the bits of its float64 value, -0.0 as 0.0."""
    if not as_float:
        return value
    value = float(value)
    return struct.pack("<d", 0.0 if value == 0 else value)


def exact(row):
    """*row* with floats as their bits, so NaN rows compare equal."""
    return tuple(
        struct.pack("<d", value) if isinstance(value, float) else value
        for value in row
    )


def nested_loop_join(left_rows, right_rows, pairs):
    """Every (probe, build) row pair whose keys are equal, in probe
    order and build order within one probe row."""
    floats = [SqlType.FLOAT in pair for pair in pairs]
    keys = len(pairs)
    return [
        left + right
        for left in left_rows
        for right in right_rows
        if all(
            key_code(left[i], floats[i]) == key_code(right[i], floats[i])
            for i in range(keys)
        )
    ]


@st.composite
def join_inputs(draw):
    """1-3 key pairs, a probe and a build side of which one may cross
    the vector/block edges, and the batch size the sources emit."""
    pairs = draw(st.lists(st.sampled_from(KEY_PAIRS), min_size=1, max_size=3))
    small = st.integers(0, 40)
    sizes = [draw(small), draw(small)]
    big = draw(st.sampled_from([None, 0, 1]))
    if big is not None:
        sizes[big] = draw(st.sampled_from(EDGE_SIZES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sides = []
    for side, rows in enumerate(sizes):
        pools = [POOLS[pair[side]] for pair in pairs]
        columns = [
            [pool[i] for i in rng.integers(0, len(pool), rows)]
            for pool in pools
        ]
        payload = range(side * 10_000, side * 10_000 + rows)
        sides.append([tuple(row) for row in zip(*columns, payload)])
    batch = draw(st.sampled_from([9, 1024, 4096]))
    return pairs, sides[0], sides[1], batch


@settings(max_examples=60, deadline=None)
@given(inputs=join_inputs())
def test_hash_join_matches_nested_loops(inputs):
    pairs, left_rows, right_rows, batch = inputs
    context = ExecutionContext(vector_size=9)
    sources = []
    for side, rows in enumerate((left_rows, right_rows)):
        schema = Schema.of(
            *[(f"k{side}_{i}", pair[side]) for i, pair in enumerate(pairs)],
            (f"v{side}", SqlType.INTEGER),
        )
        sources.append(values_in_batches(context, schema, rows, batch))
    join = HashJoin(
        context,
        sources[0],
        sources[1],
        [ColumnRef(f"k0_{i}") for i in range(len(pairs))],
        [ColumnRef(f"k1_{i}") for i in range(len(pairs))],
    )
    got = [exact(row) for out in join.batches() for row in out.to_rows()]
    want = nested_loop_join(left_rows, right_rows, pairs)
    assert got == [exact(row) for row in want]


@pytest.mark.parametrize(
    "probe, build", [(SqlType.VARCHAR, SqlType.INTEGER),
                     (SqlType.FLOAT, SqlType.VARCHAR)],
)
def test_varchar_against_number_key_rejected(probe, build):
    context = ExecutionContext()
    left = ValuesOperator(context, Schema.of(("k", probe)), [])
    right = ValuesOperator(context, Schema.of(("k2", build)), [])
    with pytest.raises(TypeMismatchError):
        HashJoin(context, left, right, [ColumnRef("k")], [ColumnRef("k2")])


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
