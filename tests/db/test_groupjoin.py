"""The groupjoin: a hash aggregate over a hash join groups the join's
(probe row, build row) index pairs instead of joined rows.

Every shape runs on {serial, threads=4, shards=2} × {compiled,
interpreted} × {plan-cache miss, hit with fresh literals} and must
return what a row-at-a-time reference gives: the join's rows in join
output order (probe scan order, then build order within a key), grouped
by key code, float ``SUM``/``AVG`` accumulated in float64 in that order.
The serial path must also keep HashAggregate's output order (ascending
key codes).  Values are multiples of 1/8, so the partial merges of the
split paths fold them exactly in any order.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass

import numpy as np
import pytest

import repro
from repro.core.ml_to_sql.generator import SqlGenerator
from repro.core.ml_to_sql.loader import load_model_table
from repro.db.planner import PlannerOptions
from repro.errors import IntegerOverflowError
from repro.nn.layers import Dense
from repro.nn.model import Sequential

ROWS = 600
LABEL = "[groupjoin: "


@dataclass(frozen=True)
class ExecutionPath:
    name: str
    parallelism: int = 1
    shards: int = 0

    def connect(self, compiled: bool):
        database = repro.connect(
            parallelism=self.parallelism,
            shards=self.shards,
            planner_options=PlannerOptions(use_compiled_kernels=compiled),
        )
        return _load(database)

    def __str__(self) -> str:
        return self.name


PATHS = (
    ExecutionPath("serial"),
    ExecutionPath("threads=4", parallelism=4),
    ExecutionPath("shards=2", shards=2),
)


def _probe_columns() -> dict:
    ids = np.arange(ROWS, dtype=np.int64)
    k = ids % 9  # the build side has keys 0..6: 7 and 8 never match
    return {
        "id": ids,
        "k": k,
        "k2": ids % 2,
        # every fifth key is not integral: an INTEGER = FLOAT miss
        "kf": np.where(ids % 5 == 0, k + 0.5, k).astype(np.float32),
        "x": (((ids * 7) % 17 - 8) / 8.0).astype(np.float32),
        "v": ((ids * 5) % 13 - 6) / 8.0,
        "n": ids % 11 - 5,
        "big": np.full(ROWS, 1 << 62, dtype=np.int64),
        "s": np.array(["gamma", "alpha", "beta"], dtype=object)[ids % 3],
    }


def _build_rows() -> list[tuple]:
    """(k, k2, node, w, bias, label): four nodes per key 0..5, two for
    key 6 (so not every key has the same fan-out).  The bias depends on
    the node and the key's parity only: NaN, ±0.0 swapped by parity,
    and two plain values."""
    rows = []
    for k in range(7):
        for node in range(10, 14 if k < 6 else 12):
            zero = (-0.0, 0.0)[(k + node) % 2]
            bias = {10: float("nan"), 11: zero, 12: -zero, 13: 0.5 - k}[node]
            w = ((k * 3 + node) % 7 - 3) / 8.0
            rows.append((k, (k + node) % 2, node, w, bias, "xy"[node % 2]))
    return rows


def _load(database):
    database.execute(
        "CREATE TABLE p (id INTEGER, k INTEGER, k2 INTEGER, kf FLOAT, "
        "x FLOAT, v DOUBLE, n INTEGER, big INTEGER, s VARCHAR) "
        "PARTITION BY (id) PARTITIONS 4"
    )
    database.table("p").append_columns(**_probe_columns())
    database.execute(
        "CREATE TABLE b (k INTEGER, k2 INTEGER, node INTEGER, w FLOAT, "
        "bias FLOAT, label VARCHAR)"
    )
    rows = _build_rows()
    columns = list(zip(*rows))
    database.table("b").append_columns(
        k=np.array(columns[0]),
        k2=np.array(columns[1]),
        node=np.array(columns[2]),
        w=np.array(columns[3], dtype=np.float32),
        bias=np.array(columns[4], dtype=np.float32),
        label=np.array(columns[5], dtype=object),
    )
    # unpartitioned: one probe block per key, so whole probe batches miss
    database.execute("CREATE TABLE q (id INTEGER, k INTEGER, x FLOAT)")
    ids = np.arange(3 * 4096, dtype=np.int64)
    database.table("q").append_columns(
        id=ids, k=ids // 4096, x=((ids % 9) / 8.0).astype(np.float32)
    )
    return database


# ----------------------------------------------------------------------
# the reference
# ----------------------------------------------------------------------
def _code(value):
    """A key value's code: floats by their float64 bits (-0.0 as 0.0),
    as the engine's key coding compares them."""
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return struct.unpack("<q", struct.pack("<d", value + 0.0))[0]
    if isinstance(value, (int, np.integer)):
        return int(value)
    return value


def _reduce(function, values, dtype):
    if function in ("MIN", "MAX"):
        if isinstance(values[0], str):
            return (min if function == "MIN" else max)(values)
        ufunc = np.minimum if function == "MIN" else np.maximum
        result = values[0]
        with np.errstate(invalid="ignore"):
            for value in values[1:]:
                result = ufunc(result, value)
        return result
    if np.dtype(dtype).kind in "iu":
        total = sum(int(value) for value in values)
        if not -(1 << 63) <= total < 1 << 63:
            raise IntegerOverflowError(f"integer SUM {total}")
        return total
    total = np.float64(0.0)
    for value in values:
        total = np.float64(total + np.float64(value))
    if function == "AVG":
        return total / len(values)
    return np.dtype(dtype).type(total)


@dataclass(frozen=True)
class Shape:
    """A grouped query over a join and its reference.

    *sql* has ``{lo}`` (and the WHERE-between shape ``{a}``/``{b}``)
    slots; *keys* and *aggregates* compute, from one joined row
    ``(probe, build)``, the group keys and ``(function, argument,
    dtype)`` of each output column.
    """

    sql: str
    match: object
    keys: tuple
    aggregates: tuple = ()
    probe: str = "p"
    where: object = None

    def reference(self, database, literals: dict) -> list[tuple]:
        probe = _rows(database, self.probe)
        build = _rows(database, "b")
        groups: dict[tuple, list] = {}
        for row in probe:
            if row["id"] < literals["lo"]:
                continue
            for other in build:
                if not self.match(row, other):
                    continue
                if self.where is not None and not self.where(
                    row, other, literals
                ):
                    continue
                keys = tuple(key(row, other) for key in self.keys)
                codes = tuple(map(_code, keys))
                groups.setdefault(codes, [keys, []])[1].append((row, other))
        result = []
        for codes in sorted(groups):
            keys, rows = groups[codes]
            values = [
                len(rows) if argument is None else _reduce(
                    function, [argument(*pair) for pair in rows], dtype
                )
                for function, argument, dtype in self.aggregates
            ]
            result.append((*keys, *values))
        return result


def _rows(database, table: str) -> list[dict]:
    """*table*'s rows in scan order (a probe's join output order)."""
    result = database.execute(f"SELECT * FROM {table}")
    names = [name.split(".")[-1] for name in result.schema.names]
    return [dict(zip(names, row)) for row in result.rows]


def f32(value) -> np.float32:
    return np.float32(value)


def _on_k(row, other):
    return row["k"] == other["k"]


def _product(row, other):
    return f32(row["x"]) * f32(other["w"])


def key(table: str, column: str):
    if table == "p":
        return lambda row, other: row[column]
    return lambda row, other: other[column]


#: each aggregate's SQL and reference
AGGREGATES = {
    "SUM(p.x * b.w) AS s": ("SUM", _product, np.float32),
    "AVG(p.v) AS a": ("AVG", lambda row, other: row["v"], np.float64),
    "COUNT(*) AS c": ("COUNT", None, np.int64),
    "MIN(p.x) AS lo": ("MIN", lambda row, other: f32(row["x"]), np.float32),
    "MAX(b.w) AS hi": ("MAX", lambda row, other: f32(other["w"]), np.float32),
}
ALL = tuple(AGGREGATES)


def _shape(
    keys: dict,
    aggregates=ALL,
    on="p.k = b.k",
    match=_on_k,
    **kwargs,
) -> Shape:
    """A shape grouping ``p, b`` joined *on* by *keys* (SQL -> reference
    key), computing *aggregates* (SQL, or SQL -> reference)."""
    if not isinstance(aggregates, dict):
        aggregates = {sql: AGGREGATES[sql] for sql in aggregates}
    columns = [f"{sql} AS g{index}" for index, sql in enumerate(keys)]
    sql = (
        f"SELECT {', '.join(columns + list(aggregates))} FROM p, b "
        f"WHERE {on} AND p.id >= {{lo}} GROUP BY {', '.join(keys)}"
    )
    return Shape(
        sql, match, tuple(keys.values()), tuple(aggregates.values()),
        **kwargs,
    )


SHAPES = {
    "probe_keys": _shape({"p.id": key("p", "id")}),
    "build_keys": _shape({"b.node": key("b", "node")}),
    "interleaved": _shape({
        "p.k2": key("p", "k2"), "b.node": key("b", "node"),
        "p.s": key("p", "s"),
    }),
    "build_first": _shape(
        {"b.node": key("b", "node"), "p.id": key("p", "id")}
    ),
    # NaN and ±0.0 build keys: a group's key is its first row's
    "float_keys": _shape(
        {"p.id": key("p", "id"), "b.bias": key("b", "bias")}
    ),
    # ML-To-SQL's layer: the float bias depends on the node
    "dependent_bias": _shape(
        {
            "p.id": key("p", "id"), "b.node": key("b", "node"),
            "b.bias": key("b", "bias"),
        },
        aggregates=ALL[:1],
    ),
    "varchar_keys": _shape(
        {"b.label": key("b", "label"), "p.s": key("p", "s")},
        aggregates={
            "COUNT(*) AS c": AGGREGATES["COUNT(*) AS c"],
            "MIN(p.s) AS lo": ("MIN", lambda row, other: row["s"], object),
            "MAX(b.label) AS hi": (
                "MAX", lambda row, other: other["label"], object
            ),
        },
    ),
    "two_key_join": _shape(
        {"p.id": key("p", "id"), "b.node": key("b", "node")},
        on="p.k = b.k AND p.k2 = b.k2",
        match=lambda row, other: (row["k"], row["k2"])
        == (other["k"], other["k2"]),
    ),
    "integer_float_join": _shape(
        {"b.node": key("b", "node")},
        on="p.kf = b.k",
        match=lambda row, other: float(row["kf"]) == other["k"],
    ),
    "residual": _shape(
        {"p.k2": key("p", "k2"), "b.node": key("b", "node")},
        on="p.k = b.k AND p.x < b.w",
        match=lambda row, other: _on_k(row, other)
        and f32(row["x"]) < f32(other["w"]),
    ),
    # a constant conjunct stays between the aggregate and the join
    "where_between": _shape(
        {"b.node": key("b", "node")},
        aggregates=ALL[:1],
        on="p.k = b.k AND {a} < {b}",
        where=lambda row, other, literals: literals["a"] < literals["b"],
    ),
    # a uniform fan-out: every key 0..5 has four build rows
    "uniform_build": _shape(
        {"p.id": key("p", "id"), "b.node": key("b", "node")},
        on="p.k = b.k AND b.k < 6",
        match=lambda row, other: row["k"] == other["k"] < 6,
    ),
    "empty_build": _shape(
        {"p.id": key("p", "id")},
        on="p.k = b.k AND b.node > 99",
        match=lambda row, other: False,
    ),
    # q's first and last blocks match nothing
    "unmatched_batches": Shape(
        "SELECT b.node AS g, SUM(q.x * b.w) AS s, COUNT(*) AS c "
        "FROM q, b WHERE q.k = b.k AND b.k = 1 AND q.id >= {lo} "
        "GROUP BY b.node",
        lambda row, other: row["k"] == other["k"] == 1,
        (key("b", "node"),),
        (AGGREGATES["SUM(p.x * b.w) AS s"], AGGREGATES["COUNT(*) AS c"]),
        probe="q",
    ),
    "integer_sum": _shape(
        {"b.node": key("b", "node")},
        aggregates={
            "SUM(p.n) AS s": ("SUM", lambda row, other: row["n"], np.int64)
        },
    ),
    "integer_overflow": _shape(
        {"b.node": key("b", "node")},
        aggregates={
            "SUM(p.big) AS s": ("SUM", lambda row, other: row["big"], np.int64)
        },
    ),
    "distinct": Shape(
        "SELECT DISTINCT p.k AS g, b.node AS h FROM p, b "
        "WHERE p.k = b.k AND p.id >= {lo}",
        _on_k,
        (key("p", "k"), key("b", "node")),
    ),
}

#: the statement's literals: a cold plan, then a hit with fresh values
LITERALS = ({"lo": 0, "a": 0.5, "b": 0.75}, {"lo": 40, "a": 0.8, "b": 0.75})


def _canonical(row: tuple) -> tuple:
    """*row* with floats as their float64 bits, so NaN and -0.0 compare."""
    return tuple(
        ("f", struct.pack("<d", float(value)))
        if isinstance(value, (float, np.floating))
        else ("v", value)
        for value in row
    )


@pytest.fixture(scope="module")
def engines():
    engines = {}
    try:
        for path in PATHS:
            for compiled in (True, False):
                engines[path.name, compiled] = path.connect(compiled)
        yield engines
    finally:
        for database in engines.values():
            database.close()


def _run(database, path, sql):
    return database.execute(sql, parallel=path.parallelism > 1)


@pytest.mark.parametrize(
    "compiled", [True, False], ids=["compiled", "interpreted"]
)
@pytest.mark.parametrize("path", PATHS, ids=str)
@pytest.mark.parametrize("name", list(SHAPES))
def test_shape_matches_reference(engines, name, path, compiled):
    shape = SHAPES[name]
    database = engines[path.name, compiled]
    serial = engines["serial", compiled]
    database.plan_cache.clear()
    for cached, literals in enumerate(LITERALS):
        sql = shape.sql.format(**literals)
        try:
            want = shape.reference(serial, literals)
        except IntegerOverflowError:
            with pytest.raises(IntegerOverflowError):
                _run(database, path, sql)
            continue
        result = _run(database, path, sql)
        assert result.profile.plan_cached is bool(cached)
        got = [_canonical(row) for row in result.rows]
        want = [_canonical(row) for row in want]
        if path.name == "serial":
            assert got == want  # HashAggregate's order: key codes
        else:
            assert sorted(got) == sorted(want)


@pytest.mark.parametrize("name", [n for n in SHAPES if n != "distinct"])
def test_explain_labels_the_fused_shapes(engines, name):
    sql = SHAPES[name].sql.format(**LITERALS[0])
    plan = engines["serial", True].explain(sql)
    assert LABEL in plan
    assert "HashJoin" not in plan


def test_partition_pipelines_run_the_groupjoin(engines):
    sql = SHAPES["dependent_bias"].sql.format(**LITERALS[0])
    plan, _ = engines["threads=4", True].explain_analyze(sql, parallel=True)
    assert LABEL in plan and "HashJoin" not in plan


def test_a_key_reading_both_sides_keeps_the_join(engines):
    sql = (
        "SELECT p.k + b.node AS g, COUNT(*) AS c FROM p, b "
        "WHERE p.k = b.k GROUP BY p.k + b.node"
    )
    for (path, _compiled), database in engines.items():
        if path != "serial":
            continue
        plan = database.explain(sql)
        assert LABEL not in plan and "HashJoin" in plan
        want = Shape(
            sql, _on_k, (lambda row, other: row["k"] + other["node"],),
            (("COUNT", None, np.int64),),
        ).reference(database, {"lo": 0})
        assert database.execute(sql).rows == want


def test_ordered_aggregate_over_a_join_keeps_its_plan():
    database = repro.connect()
    try:
        database.execute("CREATE TABLE s (g INTEGER, k INTEGER) SORTED BY (g)")
        database.execute("INSERT INTO s VALUES (1, 1), (1, 2), (2, 1)")
        database.execute("CREATE TABLE d (k INTEGER, w DOUBLE)")
        database.execute("INSERT INTO d VALUES (1, 0.5), (2, 0.25)")
        sql = (
            "SELECT s.g AS g, SUM(d.w) AS t FROM s, d WHERE s.k = d.k "
            "GROUP BY s.g"
        )
        plan = database.explain(sql)
        assert "OrderedAggregate" in plan and LABEL not in plan
        assert database.execute(sql).rows == [(1, 0.75), (2, 0.5)]
    finally:
        database.close()


def test_ml_to_sql_layers_are_groupjoins():
    """Each dense layer of the generated query is one groupjoin."""
    model = Sequential(
        [Dense(3, "relu"), Dense(2, "relu"), Dense(1, "sigmoid")],
        input_width=2,
        seed=3,
    )
    database = _load(repro.connect())
    try:
        relational = load_model_table(database, "mlsql", model)
        sql = SqlGenerator(relational, "p", "id", ["x", "v"]).inference_query(
            order_by_id=True
        )
        plan = database.explain(sql).split("== Physical Plan ==")[1]
        plan = plan.split("== Compiled Code ==")[0]
        assert plan.count("[groupjoin: t.node = m.node_in]") == 3
        analyzed, result = database.explain_analyze(sql)
        assert result.row_count == ROWS
        layers = [line for line in analyzed.splitlines() if LABEL in line]
        assert [
            int(re.search(r"\[rows: (\d+)\]", line).group(1))
            for line in layers
        ] == [ROWS, 2 * ROWS, 3 * ROWS]
    finally:
        database.close()


def test_interpreted_plan_matches_compiled_bits(engines):
    """The generated input kernel and the interpreted one agree."""
    for name, shape in SHAPES.items():
        if name == "integer_overflow":
            continue
        sql = shape.sql.format(**LITERALS[0])
        rows = [
            [_canonical(row) for row in engines["serial", compiled]
             .execute(sql).rows]
            for compiled in (True, False)
        ]
        assert rows[0] == rows[1], name


def test_held_pairs_are_released(engines):
    database = engines["serial", True]
    database.execute(SHAPES["dependent_bias"].sql.format(lo=0))
    memory = database.last_profile.memory
    assert memory.peak_bytes > 0
    assert memory.current_bytes == 0


