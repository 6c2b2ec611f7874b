"""Join-key equality and typed comparisons at the SQL level.

An extracted equi-join key (``HashJoin``) compares the codes GROUP BY
groups on: a NaN equals a NaN with the same bit pattern, -0.0 equals
0.0, and an INTEGER paired with a FLOAT compares as float64 — the type
a ``WHERE`` comparison of the two uses.  The one place join and filter
differ is NaN: ``WHERE x = y`` is an IEEE comparison and keeps no NaN
row.  Comparing a VARCHAR with a number is a typed error at bind time,
in ``WHERE``, ``ON`` and extracted join keys alike.
"""

import math
import struct

import pytest

from repro.db import Database
from repro.db.planner import PlannerOptions
from repro.errors import TypeMismatchError

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
#: a NaN whose bits differ from ``math.nan``'s
PAYLOAD_NAN = struct.unpack("<d", struct.pack("<q", 0x7FF8000000000001))[0]


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


@pytest.fixture(params=[True, False], ids=["extracted", "not-extracted"])
def extracted(request):
    """Whether equi-join conjuncts become HashJoin keys or stay a
    filter over a cross join (the optimizer rules off)."""
    return request.param


@pytest.fixture
def db(extracted):
    database = Database(
        planner_options=PlannerOptions(use_optimizer_rules=extracted)
    )
    yield database
    database.close()


def two_tables(db, key_type, left_keys, right_keys):
    db.execute(f"CREATE TABLE l (k {key_type}, tag INTEGER)")
    db.execute(f"CREATE TABLE r (k {key_type}, tag INTEGER)")
    db.table("l").append_rows([(k, i) for i, k in enumerate(left_keys)])
    db.table("r").append_rows([(k, i) for i, k in enumerate(right_keys)])


def joined_tags(db):
    rows = db.execute(
        "SELECT l.tag, r.tag FROM l JOIN r ON l.k = r.k"
    ).rows
    return sorted(rows)


class TestJoinKeyEquality:
    def test_negative_zero_equals_zero(self, db):
        two_tables(db, "DOUBLE", [-0.0, 1.0], [0.0, -0.0])
        assert joined_tags(db) == [(0, 0), (0, 1)]

    def test_infinities_match_themselves(self, db):
        two_tables(
            db, "DOUBLE", [math.inf, -math.inf, 1e308], [-math.inf, math.inf]
        )
        assert joined_tags(db) == [(0, 1), (1, 0)]

    def test_int64_extremes_match_themselves(self, db):
        two_tables(
            db,
            "INTEGER",
            [INT64_MIN, INT64_MAX, INT64_MIN + 1, 0],
            [INT64_MAX, INT64_MAX - 1, INT64_MIN],
        )
        assert joined_tags(db) == [(0, 2), (1, 0)]

    def test_integer_equals_float_numerically(self, db):
        db.execute("CREATE TABLE a (i INTEGER)")
        db.execute("CREATE TABLE b (f FLOAT)")
        db.table("a").append_rows([(1,), (2,), (3,)])
        db.table("b").append_rows([(1.0,), (2.5,), (3.0,)])
        want = [(1, 1.0), (3, 3.0)]
        assert db.execute(
            "SELECT a.i, b.f FROM a JOIN b ON a.i = b.f"
        ).rows == want
        assert sorted(
            db.execute("SELECT a.i, b.f FROM b JOIN a ON b.f = a.i").rows
        ) == want
        assert db.execute(
            "SELECT a.i, b.f FROM a, b WHERE a.i + 0.0 = b.f"
        ).rows == want

    def test_nan_matches_its_own_bit_pattern_as_group_by_groups_it(
        self, db, extracted
    ):
        two_tables(
            db, "DOUBLE", [math.nan, PAYLOAD_NAN, 1.0], [math.nan, 2.0]
        )
        groups = db.execute(
            "SELECT k, COUNT(*) AS n FROM l GROUP BY k"
        ).rows
        nan_groups = sorted(bits(k) for k, _ in groups if math.isnan(k))
        assert nan_groups == sorted([bits(math.nan), bits(PAYLOAD_NAN)])
        if extracted:
            assert joined_tags(db) == [(0, 0)]
        else:
            # the unextracted ON is an IEEE filter: NaN equals nothing
            assert joined_tags(db) == []

    def test_where_equality_keeps_no_nan_row(self, db):
        db.execute("CREATE TABLE t (x DOUBLE, y DOUBLE)")
        db.table("t").append_rows(
            [(math.nan, math.nan), (1.0, 1.0), (-0.0, 0.0)]
        )
        assert db.execute("SELECT x, y FROM t WHERE x = y").rows == [
            (1.0, 1.0),
            (-0.0, 0.0),
        ]


@pytest.fixture
def typed_db():
    database = Database()
    database.execute("CREATE TABLE a (i INTEGER, s VARCHAR)")
    database.execute("CREATE TABLE b (j INTEGER, s VARCHAR)")
    database.table("a").append_rows([(1, "1"), (2, "x")])
    database.table("b").append_rows([(1, "1"), (2, "y")])
    yield database
    database.close()


class TestVarcharAgainstNumber:
    def test_where_equality(self, typed_db):
        with pytest.raises(TypeMismatchError):
            typed_db.execute("SELECT i FROM a WHERE i = s")

    def test_where_ordering(self, typed_db):
        with pytest.raises(TypeMismatchError):
            typed_db.execute("SELECT i FROM a WHERE s > 1")

    def test_join_key_integer_with_varchar(self, typed_db):
        with pytest.raises(TypeMismatchError):
            typed_db.execute("SELECT a.i FROM a JOIN b ON a.i = b.s")

    def test_join_key_varchar_with_integer(self, typed_db):
        with pytest.raises(TypeMismatchError):
            typed_db.execute("SELECT a.i FROM a JOIN b ON a.s = b.j")

    def test_subquery_join_key(self, typed_db):
        with pytest.raises(TypeMismatchError):
            typed_db.execute(
                "SELECT x.i FROM (SELECT i, s FROM a) x JOIN b ON x.s = b.j"
            )

    def test_varchar_pairs_still_compare(self, typed_db):
        assert typed_db.execute(
            "SELECT a.i FROM a JOIN b ON a.s = b.s"
        ).rows == [(1,)]
        assert typed_db.execute("SELECT i FROM a WHERE s = 'x'").rows == [
            (2,)
        ]


@pytest.fixture
def grouped_db():
    database = Database()
    database.execute("CREATE TABLE t (g INTEGER, v DOUBLE, s VARCHAR)")
    database.table("t").append_rows(
        [(1, 1.5, "a"), (2, 2.5, "b"), (2, 1.0, "c")]
    )
    yield database
    database.close()


class TestAggregateOutputTypes:
    """SUM/MIN/MAX output their argument's type, COUNT an INTEGER and
    AVG a DOUBLE, at bind time: a VARCHAR-vs-number comparison on an
    aggregate output is a TypeMismatchError before anything runs."""

    MISMATCHED = [
        "SELECT x.g FROM (SELECT g, SUM(v) AS total FROM t GROUP BY g) x "
        "WHERE x.total = 'a'",
        "SELECT g FROM t GROUP BY g HAVING SUM(v) = 'a'",
        "SELECT x.g FROM (SELECT g, MIN(s) AS m FROM t GROUP BY g) x "
        "WHERE x.m > 1",
    ]

    @pytest.mark.parametrize("sql", MISMATCHED, ids=["sum", "having", "min"])
    def test_mismatch_raises_at_bind_time(self, grouped_db, sql):
        with pytest.raises(TypeMismatchError):
            grouped_db.explain(sql)  # plans, never runs
        with pytest.raises(TypeMismatchError):
            grouped_db.execute(sql)
        # a typed error is not a kernel failure: no interpreted re-run
        assert grouped_db.metrics.counter("compile.fallback").value == 0

    def test_typed_outputs_still_compare(self, grouped_db):
        assert grouped_db.execute(
            "SELECT x.g FROM (SELECT g, COUNT(v) AS n FROM t GROUP BY g) x "
            "WHERE x.n = 2"
        ).rows == [(2,)]
        assert grouped_db.execute(
            "SELECT g FROM t GROUP BY g HAVING AVG(v) > 1.6"
        ).rows == [(2,)]
        assert grouped_db.execute(
            "SELECT x.g FROM (SELECT g, MAX(s) AS m FROM t GROUP BY g) x "
            "WHERE x.m = 'c'"
        ).rows == [(2,)]
