"""Randomized query fuzzing against a Python reference executor.

Hypothesis generates small relational workloads (a fact table plus a
dimension table) and random SELECTs over them — filters, a join, a
grouped aggregation — and the engine's results are compared against a
straightforward row-at-a-time Python evaluation.  This complements the
targeted operator tests with breadth.

:class:`TestBatchBoundaryFuzz` draws tables of 1023 to 4097 rows, one
row either side of the 1024-row vector and the 4096-row block, so the
joins, sorts, DISTINCT and hash, ordered and segmented aggregates see
several input batches and emit several output batches.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.engine import Database


@st.composite
def workload(draw):
    rows = draw(st.integers(min_value=0, max_value=60))
    fact = [
        (
            i,
            draw(st.integers(min_value=0, max_value=4)),  # k
            draw(
                st.floats(
                    min_value=-50, max_value=50, allow_nan=False, width=32
                )
            ),
        )
        for i in range(rows)
    ]
    dim_keys = draw(
        st.sets(st.integers(min_value=0, max_value=4), max_size=5)
    )
    dim = [
        (key, draw(st.integers(min_value=-3, max_value=3)))
        for key in sorted(dim_keys)
    ]
    threshold = draw(st.integers(min_value=-40, max_value=40))
    return fact, dim, threshold


def build_database(fact, dim) -> Database:
    db = Database()
    db.execute("CREATE TABLE fact (id INTEGER, k INTEGER, v FLOAT)")
    db.execute("CREATE TABLE dim (k INTEGER, w INTEGER)")
    if fact:
        db.table("fact").append_rows(
            [(i, k, float(np.float32(v))) for i, k, v in fact]
        )
    if dim:
        db.table("dim").append_rows(dim)
    return db


class TestFilterFuzz:
    @settings(max_examples=30, deadline=None)
    @given(data=workload())
    def test_filter_projection(self, data):
        fact, dim, threshold = data
        db = build_database(fact, dim)
        result = db.execute(
            f"SELECT id, v * 2 AS dbl FROM fact WHERE v > {threshold} "
            "ORDER BY id"
        )
        expected = sorted(
            (i, float(np.float32(v) * np.float32(2)))
            for i, _, v in fact
            if np.float32(v) > threshold
        )
        assert len(result.rows) == len(expected)
        for got, want in zip(result.rows, expected):
            assert got[0] == want[0]
            np.testing.assert_allclose(got[1], want[1], rtol=1e-5)


class TestJoinFuzz:
    @settings(max_examples=30, deadline=None)
    @given(data=workload())
    def test_join_matches_nested_loops(self, data):
        fact, dim, _ = data
        db = build_database(fact, dim)
        result = db.execute(
            "SELECT fact.id, dim.w FROM fact, dim WHERE fact.k = dim.k"
        )
        expected = sorted(
            (i, w) for i, k, _ in fact for dk, w in dim if k == dk
        )
        assert sorted(result.rows) == expected


class TestAggregationFuzz:
    @settings(max_examples=30, deadline=None)
    @given(data=workload())
    def test_group_by_matches_reference(self, data):
        fact, dim, _ = data
        db = build_database(fact, dim)
        result = db.execute(
            "SELECT k, COUNT(*) AS c, MIN(v) AS lo, MAX(v) AS hi "
            "FROM fact GROUP BY k ORDER BY k"
        )
        reference: dict = {}
        for _, k, v in fact:
            v32 = float(np.float32(v))
            count, lo, hi = reference.get(k, (0, np.inf, -np.inf))
            reference[k] = (count + 1, min(lo, v32), max(hi, v32))
        assert len(result.rows) == len(reference)
        for k, c, lo, hi in result.rows:
            want = reference[k]
            assert c == want[0]
            np.testing.assert_allclose(lo, want[1], rtol=1e-6)
            np.testing.assert_allclose(hi, want[2], rtol=1e-6)

    @settings(max_examples=20, deadline=None)
    @given(data=workload())
    def test_join_then_aggregate(self, data):
        fact, dim, _ = data
        db = build_database(fact, dim)
        result = db.execute(
            "SELECT dim.w AS w, COUNT(*) AS c FROM fact, dim "
            "WHERE fact.k = dim.k GROUP BY dim.w ORDER BY w"
        )
        reference: dict = {}
        for _, k, _v in fact:
            for dk, w in dim:
                if k == dk:
                    reference[w] = reference.get(w, 0) + 1
        assert sorted(result.rows) == sorted(reference.items())


class TestLimitsAndDistinctFuzz:
    @settings(max_examples=20, deadline=None)
    @given(data=workload(), limit=st.integers(0, 10))
    def test_limit_prefix_of_order(self, data, limit):
        fact, dim, _ = data
        db = build_database(fact, dim)
        full = db.execute("SELECT id FROM fact ORDER BY id").rows
        limited = db.execute(
            f"SELECT id FROM fact ORDER BY id LIMIT {limit}"
        ).rows
        assert limited == full[:limit]

    @settings(max_examples=20, deadline=None)
    @given(data=workload())
    def test_distinct_is_set(self, data):
        fact, dim, _ = data
        db = build_database(fact, dim)
        result = db.execute("SELECT DISTINCT k FROM fact")
        assert sorted(row[0] for row in result.rows) == sorted(
            {k for _, k, _ in fact}
        )


#: one row either side of the vector (1024) and block (4096) sizes
BOUNDARY_ROWS = (1023, 1024, 1025, 4095, 4096, 4097)
#: LIMIT / OFFSET values around the same boundaries
BOUNDARY_COUNTS = (0, 1, 1023, 1024, 1025, 4095, 4096, 4097)


@st.composite
def boundary_workload(draw, rows: int):
    """Columns of a *rows*-row fact table, and a dimension table
    repeating each of its keys up to three times."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keys = draw(st.integers(min_value=1, max_value=50))
    groups = draw(st.sampled_from((1, 3, 700, 3000)))
    fact = {
        "id": np.arange(rows, dtype=np.int64),
        "k": rng.integers(0, keys, rows),
        # few distinct groups or many, sorted: runs cross batch edges
        "g": np.sort(rng.integers(0, groups, rows)),
        "v": rng.integers(-1000, 1000, rows),
        # a handful of values, so ORDER BY f has long runs of ties
        "f": rng.choice(np.float32([-1.5, 0.0, 0.25, 2.0, 9.5]), rows),
    }
    repeats = draw(st.integers(min_value=1, max_value=3))
    dim = [
        (key, int(rng.integers(-5, 5)))
        for key in range(0, keys + 2, 2)
        for _ in range(repeats)
    ]
    return fact, dim


def build_boundary_database(fact, dim) -> Database:
    db = Database()
    db.execute(
        "CREATE TABLE fact (id INTEGER, k INTEGER, g INTEGER, v INTEGER, "
        "f FLOAT) SORTED BY (g)"
    )
    db.table("fact").append_columns(**fact)
    db.execute("CREATE TABLE dim (k INTEGER, w INTEGER)")
    db.table("dim").append_rows(dim)
    return db


def fact_rows(fact) -> list[tuple]:
    names = ("id", "k", "g", "v", "f")
    return list(zip(*(fact[name].tolist() for name in names)))


def grouped_reference(rows, key) -> list[tuple]:
    """``key, SUM(v), COUNT(*), MIN(f), MAX(f)`` per group, row at a time."""
    groups: dict = {}
    for row in rows:
        _, _, _, v, f = row
        total, count, lo, hi = groups.get(key(row), (0, 0, np.inf, -np.inf))
        groups[key(row)] = (total + v, count + 1, min(lo, f), max(hi, f))
    return [(*group, *groups[group]) for group in sorted(groups)]


class TestBatchBoundaryFuzz:
    @pytest.mark.parametrize("rows", BOUNDARY_ROWS)
    @settings(max_examples=2, deadline=None)
    @given(data=st.data())
    def test_join_matches_nested_loops(self, rows, data):
        fact, dim = data.draw(boundary_workload(rows))
        result = build_boundary_database(fact, dim).execute(
            "SELECT fact.id, fact.v, dim.w FROM fact, dim "
            "WHERE fact.k = dim.k"
        )
        matches: dict = {}
        for key, w in dim:
            matches.setdefault(key, []).append(w)
        expected = [
            (i, v, w)
            for i, k, _, v, _ in fact_rows(fact)
            for w in matches.get(k, ())
        ]
        assert sorted(result.rows) == sorted(expected)

    @pytest.mark.parametrize("rows", BOUNDARY_ROWS)
    @settings(max_examples=2, deadline=None)
    @given(data=st.data())
    def test_cross_join_residual_matches_nested_loops(self, rows, data):
        fact, dim = data.draw(boundary_workload(rows))
        dim = dim[:6]
        result = build_boundary_database(fact, dim).execute(
            "SELECT fact.id, dim.w FROM fact, dim WHERE fact.k < dim.k"
        )
        expected = [
            (i, w)
            for i, k, _, _, _ in fact_rows(fact)
            for key, w in dim
            if k < key
        ]
        assert sorted(result.rows) == sorted(expected)

    @pytest.mark.parametrize("rows", BOUNDARY_ROWS)
    @settings(max_examples=2, deadline=None)
    @given(data=st.data())
    def test_order_limit_offset(self, rows, data):
        fact, dim = data.draw(boundary_workload(rows))
        db = build_boundary_database(fact, dim)
        ordered = sorted(
            ((i, f) for i, _, _, _, f in fact_rows(fact)),
            key=lambda row: (-row[1], row[0]),
        )
        for limit in BOUNDARY_COUNTS:
            for offset in BOUNDARY_COUNTS:
                result = db.execute(
                    "SELECT id, f FROM fact ORDER BY f DESC, id "
                    f"LIMIT {limit} OFFSET {offset}"
                )
                assert result.rows == ordered[offset : offset + limit]

    @pytest.mark.parametrize("rows", BOUNDARY_ROWS)
    @settings(max_examples=2, deadline=None)
    @given(data=st.data())
    def test_distinct_is_set(self, rows, data):
        fact, dim = data.draw(boundary_workload(rows))
        result = build_boundary_database(fact, dim).execute(
            "SELECT DISTINCT k, g FROM fact"
        )
        assert sorted(result.rows) == sorted(
            {(k, g) for _, k, g, _, _ in fact_rows(fact)}
        )

    @pytest.mark.parametrize("rows", BOUNDARY_ROWS)
    @settings(max_examples=2, deadline=None)
    @given(data=st.data())
    def test_hash_and_ordered_aggregates(self, rows, data):
        fact, dim = data.draw(boundary_workload(rows))
        db = build_boundary_database(fact, dim)
        rows = fact_rows(fact)
        for key, strategy in (
            ("k", "HashAggregate"),
            ("g", "OrderedAggregate"),
        ):
            sql = (
                f"SELECT {key}, SUM(v) AS s, COUNT(*) AS c, MIN(f) AS lo, "
                f"MAX(f) AS hi FROM fact GROUP BY {key} ORDER BY {key}"
            )
            assert strategy in db.explain(sql)
            position = 1 if key == "k" else 2
            expected = grouped_reference(rows, lambda row: (row[position],))
            assert db.execute(sql).rows == expected

    @pytest.mark.parametrize("rows", BOUNDARY_ROWS)
    @settings(max_examples=2, deadline=None)
    @given(data=st.data())
    def test_segmented_aggregate(self, rows, data):
        fact, dim = data.draw(boundary_workload(rows))
        db = build_boundary_database(fact, dim)
        db.planner_options = dataclasses.replace(
            db.planner_options, use_segmented_aggregation=True
        )
        sql = (
            "SELECT g, k, SUM(v) AS s, COUNT(*) AS c, MIN(f) AS lo, "
            "MAX(f) AS hi FROM fact GROUP BY g, k ORDER BY g, k"
        )
        assert "SegmentedAggregate" in db.explain(sql)
        expected = grouped_reference(
            fact_rows(fact), lambda row: (row[2], row[1])
        )
        assert db.execute(sql).rows == expected
        # ORDER BY the prefix alone elides the Sort, so the segments'
        # own order shows — on a negative FLOAT key too.
        g = 0.5 * fact["g"] - 0.25 * fact["g"].max() - 0.5
        fact["g"] = g.astype(np.float32)
        db.execute(
            "CREATE TABLE ffact (id INTEGER, k INTEGER, g FLOAT, "
            "v INTEGER, f FLOAT) SORTED BY (g)"
        )
        db.table("ffact").append_columns(**fact)
        sql = sql.replace("FROM fact", "FROM ffact")
        sql = sql.replace("ORDER BY g, k", "ORDER BY g")
        plan = db.explain(sql).split("== Physical Plan ==")[1]
        assert "SegmentedAggregate" in plan and "Sort(" not in plan
        rows = db.execute(sql).rows
        assert [row[0] for row in rows] == sorted(row[0] for row in rows)
        expected = grouped_reference(
            fact_rows(fact), lambda row: (row[2], row[1])
        )
        assert sorted(rows) == expected
