"""GROUP BY and ORDER BY against independent references.

GROUP BY must return the groups *and* the row order of a NumPy
``lexsort`` over the key codes, each group's SUM/AVG accumulated in
float64 in input row order (``np.bincount`` weights) and its MIN/MAX by
``ufunc.reduceat`` over its rows in input order; ORDER BY
must return the order of Python's stable ``sorted``, and a top-k sort
(``ORDER BY … LIMIT``) exactly the leading rows of the full sort.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.engine import Database
from repro.db.expressions import ColumnRef
from repro.db.operators import ExecutionContext, SortOperator
from repro.db.operators.keys import _int64_codes
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

BIG = 2**53
#: ties, signed zeros, infinities and NaN
FLOATS = [0.0, -0.0, 1.5, -1.5, 2.0, float("inf"), float("-inf"), float("nan")]
#: neighbours above 2**53 collide once converted to float64
INTS = [-3, 0, 3, 7, BIG, BIG + 1, BIG + 2, -BIG - 1]
STRINGS = ["", "a", "ab", "b", "B"]


def _grouped_db(g, h, x) -> Database:
    db = Database()
    db.execute("CREATE TABLE t (g INTEGER, h FLOAT, x DOUBLE)")
    db.table("t").append_columns(
        g=np.asarray(g, dtype=np.int64),
        h=np.asarray(h, dtype=np.float32),
        x=np.asarray(x, dtype=np.float64),
    )
    return db


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.integers(-2, 2),
            st.sampled_from(FLOATS),
            st.integers(-50, 50).map(lambda value: value / 8),
        ),
        min_size=1,
        max_size=80,
    )
)
def test_group_by_matches_lexsort_reduceat(rows):
    g, h, x = (list(column) for column in zip(*rows))
    result = _grouped_db(g, h, x).execute(
        "SELECT g, h, SUM(x) AS s, MIN(x) AS lo, MAX(x) AS hi, "
        "AVG(x) AS a, COUNT(*) AS c FROM t GROUP BY g, h"
    )
    g = np.asarray(g, dtype=np.int64)
    h = np.asarray(h, dtype=np.float32)
    x = np.asarray(x, dtype=np.float64)
    codes = [_int64_codes(g), _int64_codes(h)]
    order = np.lexsort(codes[::-1])
    change = np.zeros(len(order), dtype=np.bool_)
    change[0] = True
    for column in codes:
        change[1:] |= column[order][1:] != column[order][:-1]
    starts = np.flatnonzero(change)
    counts = np.diff(np.append(starts, len(order)))
    ids = np.empty(len(order), dtype=np.int64)
    ids[order] = np.repeat(np.arange(len(starts)), counts)
    sums = np.bincount(ids, weights=x, minlength=len(starts))
    expected = {
        "g": g[order][starts],
        "h": h[order][starts],
        "s": sums,
        "lo": np.minimum.reduceat(x[order], starts),
        "hi": np.maximum.reduceat(x[order], starts),
        "a": sums / counts,
        "c": counts,
    }
    for name, want in expected.items():
        np.testing.assert_array_equal(result.column(name), want, err_msg=name)


def test_varchar_and_float_key_groups_nan_by_bit_pattern():
    payload_nan = np.array([0x7FF8000000000001], dtype=np.int64).view(
        np.float64
    )[0]
    db = Database()
    db.execute("CREATE TABLE t (name VARCHAR, f DOUBLE, x INTEGER)")
    db.table("t").append_columns(
        name=np.array(["b", "a", "b", "b", "a", "b"], dtype=object),
        f=np.array([np.nan, 1.0, np.nan, payload_nan, 1.0, -0.0]),
        x=np.array([1, 2, 4, 8, 16, 32]),
    )
    result = db.execute(
        "SELECT name, f, SUM(x) AS s FROM t GROUP BY name, f"
    )
    # VARCHAR lexicographic, then float codes: 0.0 < NaN < payload NaN
    assert result.column("name").tolist() == ["a", "b", "b", "b"]
    assert result.column("s").tolist() == [18, 32, 5, 8]


def test_distinct_over_varchar():
    db = Database()
    db.execute("CREATE TABLE t (name VARCHAR)")
    db.table("t").append_columns(
        name=np.array(["pear", "fig", "pear", "apple"], dtype=object)
    )
    result = db.execute("SELECT DISTINCT name FROM t")
    assert result.column("name").tolist() == ["apple", "fig", "pear"]


# ----------------------------------------------------------------------
# ORDER BY
# ----------------------------------------------------------------------
SORT_SCHEMA = Schema.of(
    ("i", SqlType.INTEGER),
    ("a", SqlType.DOUBLE),
    ("b", SqlType.INTEGER),
    ("c", SqlType.VARCHAR),
)
SORT_ROWS = st.lists(
    st.tuples(
        st.sampled_from(FLOATS),
        st.sampled_from(INTS),
        st.sampled_from(STRINGS),
    ),
    max_size=40,
).map(lambda rows: [(i, *row) for i, row in enumerate(rows)])
SORT_KEYS = st.lists(
    st.tuples(st.sampled_from("abc"), st.booleans()),
    min_size=1,
    max_size=3,
    unique_by=lambda key: key[0],
)


def _reference_ids(rows, keys) -> list[int]:
    """Row ids in Python's stable sort order (NaN last either way)."""
    position = {name: index for index, name in enumerate("iabc")}
    ranks = {value: rank for rank, value in enumerate(sorted(STRINGS))}

    def sort_key(row):
        parts = []
        for name, ascending in keys:
            value = row[position[name]]
            if name == "a":
                nan = value != value
                value = 0.0 if nan else value
                parts.append((nan, value if ascending else -value))
            else:
                value = ranks[value] if name == "c" else value
                parts.append(value if ascending else -value)
        return parts

    return [row[0] for row in sorted(rows, key=sort_key)]


def _sorted_ids(rows, keys, top=None) -> list[int]:
    context = ExecutionContext(vector_size=8)
    operator = SortOperator(
        context,
        values_in_batches(context, SORT_SCHEMA, rows, 8),
        [ColumnRef(name) for name, _ in keys],
        [ascending for _, ascending in keys],
        top,
    )
    return [row[0] for batch in operator.batches() for row in batch.to_rows()]


@settings(max_examples=200, deadline=None)
@given(rows=SORT_ROWS, keys=SORT_KEYS, data=st.data())
def test_sort_and_top_k_match_the_stable_reference(rows, keys, data):
    want = _reference_ids(rows, keys)
    assert _sorted_ids(rows, keys) == want
    top = data.draw(st.integers(0, len(rows) + 2), label="top")
    assert _sorted_ids(rows, keys, top) == want[:top]


def test_integer_desc_is_exact_above_2_53():
    db = Database()
    db.execute("CREATE TABLE t (id INTEGER)")
    db.table("t").append_columns(
        id=np.array([BIG, BIG + 1, BIG + 2, 3], dtype=np.int64)
    )
    result = db.execute("SELECT id FROM t ORDER BY id DESC")
    assert result.column("id").tolist() == [BIG + 2, BIG + 1, BIG, 3]


@pytest.fixture
def named() -> Database:
    db = Database()
    db.execute("CREATE TABLE t (id INTEGER, name VARCHAR)")
    db.table("t").append_columns(
        id=np.arange(6),
        name=np.array(["b", "c", "a", "c", "b", "c"], dtype=object),
    )
    return db


def test_varchar_desc_keeps_ties_in_input_order(named):
    result = named.execute("SELECT id, name FROM t ORDER BY name DESC")
    assert result.column("name").tolist() == ["c", "c", "c", "b", "b", "a"]
    assert result.column("id").tolist() == [1, 3, 5, 0, 4, 2]


def test_varchar_desc_with_limit_and_offset(named):
    sql = "SELECT id, name FROM t ORDER BY name DESC, id DESC"
    full = named.execute(sql).rows
    assert named.execute(f"{sql} LIMIT 3 OFFSET 2").rows == full[2:5]
    assert named.execute(f"{sql} LIMIT 2").rows == [(5, "c"), (3, "c")]


def test_explain_shows_the_top_k_sort(named):
    plan = named.explain(
        "SELECT id, name FROM t ORDER BY name DESC, id LIMIT 3 OFFSET 7"
    )
    assert "Sort(name DESC, id ASC) [top 10]" in plan
    assert "Sort(id ASC)\n" in named.explain(
        "SELECT id, name FROM t ORDER BY id"
    )
