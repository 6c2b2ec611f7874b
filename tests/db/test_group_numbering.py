"""Group numbering and the one row-order reduction against references.

* Numbering: the counting pass (``_numbered_by_count``), the composite
  sort (``_numbered_by_sort``), :func:`group_ids` and a row-at-a-time
  dictionary agree on every group, its number and its first row.
* Reduction: ``GROUP BY`` returns, bit for bit, what a row-at-a-time
  loop computes — groups in ascending key-code order, each key from the
  group's first row, SUM/AVG accumulated in float64 in row order and
  rounded once, MIN/MAX applied row by row, the group size as COUNT.
* An INTEGER ``SUM`` outside int64 raises a typed error on every path,
  and one just inside stays exact.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.db.engine import Database
from repro.db.operators.keys import (
    _int64_codes,
    _numbered_by_count,
    _numbered_by_sort,
    group_ids,
)
from repro.errors import IntegerOverflowError

INT64 = np.iinfo(np.int64)
PAYLOAD_NAN = np.array([0x7FF8000000000001], dtype=np.int64).view(np.float64)[0]

#: small, negative and int64-extreme keys (the extremes widen the domain
#: past the counting pass)
INTS = {
    "small": [0, 1, 2, 3],
    "negative": [-7, -3, -1, 0, 2],
    "extreme": [INT64.min, -1, 0, INT64.max],
}
#: signed zeros, NaN bit patterns, infinities
FLOATS = [0.0, -0.0, 1.5, -1.5, np.inf, -np.inf, np.nan, PAYLOAD_NAN]
STRINGS = ["", "a", "ab", "b", "B"]


def key_code(value) -> object:
    """A key value's group identity: floats by their normalized bit
    pattern, everything else by value."""
    if isinstance(value, (float, np.floating)):
        return int(_int64_codes(np.array([value], dtype=np.float64))[0])
    return value


def row_numbering(columns):
    """``(ids, firsts, sizes)`` by a dictionary over the rows' key
    codes, the groups numbered in ascending code order."""
    first_rows: dict[tuple, int] = {}
    for row in range(len(columns[0])):
        code = tuple(key_code(column[row]) for column in columns)
        first_rows.setdefault(code, row)
    numbers = {code: n for n, code in enumerate(sorted(first_rows))}
    ids = [
        numbers[tuple(key_code(column[row]) for column in columns)]
        for row in range(len(columns[0]))
    ]
    sizes = [ids.count(group) for group in range(len(first_rows))]
    return ids, [first_rows[code] for code in sorted(first_rows)], sizes


@st.composite
def composites(draw):
    """A composite key column over a small domain, with the domain."""
    domain = draw(st.integers(1, 600))
    values = draw(st.lists(st.integers(0, domain - 1), min_size=1,
                           max_size=300))
    return np.array(values, dtype=np.int64), domain


@settings(max_examples=200, deadline=None)
@given(drawn=composites())
def test_counting_matches_sorting_and_rows(drawn):
    composite, domain = drawn
    counted = _numbered_by_count(composite, domain)
    sorted_ = _numbered_by_sort(composite)
    want = row_numbering([composite])
    for groups in (counted, sorted_):
        assert all(part.dtype == np.int64 for part in groups)
        assert [part.tolist() for part in groups] == list(want)


@st.composite
def key_columns(draw):
    """One to three key columns of mixed kinds over 0-60 rows."""
    rows = draw(st.integers(0, 60))
    columns = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(
            ["small", "negative", "extreme", "bool", "float", "signed-zero",
             "varchar"]
        ))
        if kind in INTS:
            pool = np.array(INTS[kind], dtype=np.int64)
        elif kind == "bool":
            pool = np.array([False, True])
        elif kind == "float":
            pool = np.array(FLOATS)
        elif kind == "signed-zero":  # one code, two bit patterns
            pool = np.array([0.0, -0.0])
        else:
            pool = np.array(STRINGS, dtype=object)
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=rows,
                              max_size=rows))
        columns.append(pool[np.array(picks, dtype=np.int64)])
    return columns


@settings(max_examples=300, deadline=None)
@given(columns=key_columns())
def test_group_ids_match_rows(columns):
    groups = group_ids(columns)
    assert [part.tolist() for part in groups] == list(row_numbering(columns))


def _bits(values) -> list:
    """Values compared bit for bit (floats as their bit patterns)."""
    array = np.asarray(values)
    if array.dtype.kind == "f":
        return array.view(np.int32 if array.itemsize == 4 else np.int64).tolist()
    return array.tolist()


def reference_group_by(keys: dict, columns: dict, keep: np.ndarray):
    """``SELECT <keys>, SUM/AVG/MIN/MAX/COUNT … GROUP BY <keys>`` one
    row at a time over the rows *keep* selects."""
    rows = np.flatnonzero(keep)
    key_columns = [column[rows] for column in keys.values()]
    ids, firsts, _ = row_numbering(key_columns) if len(rows) else ([], [], [])
    members: dict[int, list[int]] = {}
    for position, group in enumerate(ids):
        members.setdefault(group, []).append(rows[position])
    out: dict[str, list] = {name: [] for name in keys}
    for name in ("sx", "sy", "si", "ax", "lx", "hx", "ly", "hy", "ls", "hs",
                 "c"):
        out[name] = []
    for group, first in enumerate(firsts):
        for name, column in keys.items():
            out[name].append(column[rows[first]])
        member = members[group]
        x, y = columns["x"][member], columns["y"][member]
        i, s = columns["i"][member], columns["s"][member]
        total = 0.0
        for value in x:
            total += float(value)
        out["sx"].append(total)
        out["ax"].append(total / len(member))
        total = 0.0
        for value in y:
            total += float(value)
        out["sy"].append(np.float32(total))
        out["si"].append(sum(int(value) for value in i))
        out["lx"].append(functools.reduce(np.minimum, x))
        out["hx"].append(functools.reduce(np.maximum, x))
        out["ly"].append(functools.reduce(np.minimum, y))
        out["hy"].append(functools.reduce(np.maximum, y))
        out["ls"].append(min(s))
        out["hs"].append(max(s))
        out["c"].append(len(member))
    return out


#: group keys of the drawn statements: integer, boolean, float, VARCHAR,
#: and float / VARCHAR after integers (the dependent-key path)
KEY_SETS = [
    ("g",), ("e",), ("b",), ("f",), ("z",), ("s",), ("g", "f"), ("g", "s"),
    ("b", "g"), ("s", "g"), ("g", "b", "z"), ("e", "f"), ("g", "z", "s"),
]
#: the fused filter: every row, some rows, no row
FILTERS = ["", " WHERE x > 0.0", " WHERE x > 1e300"]
#: measure values: signed zeros, NaN, ±inf, sub-ulp mixes
MEASURES = [0.0, -0.0, 1.0, -1.0, 1e-8, 3.0e8, 0.1, np.nan, np.inf, -np.inf]


@st.composite
def grouped_tables(draw):
    rows = draw(st.integers(0, 40))

    def pick(pool, dtype=None):
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=rows,
                              max_size=rows))
        array = np.array(pool, dtype=dtype)
        return array[np.array(picks, dtype=np.int64)]

    columns = {
        "g": pick(INTS["negative"], np.int64),
        "e": pick(INTS["extreme"], np.int64),
        "b": pick([False, True]),
        "f": pick(FLOATS, np.float64),
        "z": pick([0.0, -0.0], np.float64),
        "s": pick(STRINGS, object),
        "x": pick(MEASURES, np.float64),
        "y": pick(MEASURES, np.float32),
        "i": pick([-5, 0, 7, 1 << 40], np.int64),
    }
    return columns, draw(st.sampled_from(KEY_SETS)), draw(
        st.sampled_from(FILTERS)
    )


@settings(max_examples=150, deadline=None)
@example(drawn=(
    {
        "g": np.array([2]), "e": np.array([INT64.max]),
        "b": np.array([True]), "f": np.array([-0.0]),
        "z": np.array([-0.0]), "s": np.array(["a"], dtype=object),
        "x": np.array([np.nan]), "y": np.array([-0.0], dtype=np.float32),
        "i": np.array([7]),
    },
    ("g", "z"),
    "",
))
@given(drawn=grouped_tables())
def test_group_by_matches_row_at_a_time(drawn):
    columns, key_names, where = drawn
    db = Database()
    db.execute(
        "CREATE TABLE t (g INTEGER, e INTEGER, b BOOLEAN, f DOUBLE, "
        "z DOUBLE, s VARCHAR, x DOUBLE, y FLOAT, i INTEGER)"
    )
    if len(columns["x"]):
        db.table("t").append_columns(**columns)
    keys = ", ".join(key_names)
    result = db.execute(
        f"SELECT {keys}, SUM(x) AS sx, SUM(y) AS sy, SUM(i) AS si, "
        "AVG(x) AS ax, MIN(x) AS lx, MAX(x) AS hx, MIN(y) AS ly, "
        "MAX(y) AS hy, MIN(s) AS ls, MAX(s) AS hs, COUNT(*) AS c "
        f"FROM t{where} GROUP BY {keys}"
    )
    keep = np.ones(len(columns["x"]), dtype=np.bool_)
    if "> 0.0" in where:
        keep = columns["x"] > 0.0
    elif where:
        keep = columns["x"] > 1e300
    want = reference_group_by(
        {name: columns[name] for name in key_names}, columns, keep
    )
    for name, values in want.items():
        column = result.column(name)
        dtype = result.schema.column(name).sql_type.numpy_dtype
        assert _bits(column) == _bits(np.array(values, dtype=dtype)), name


@st.composite
def dependent_keys(draw):
    """Integer keys, then float / VARCHAR keys that are constant within
    the integer keys' groups — or not quite: one row changed to a
    neighbouring float, another NaN payload or string."""
    rows = draw(st.integers(1, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    leads = [rng.integers(-3, 4, rows) for _ in range(draw(st.integers(1, 2)))]
    _, group = np.unique(np.stack(leads), axis=1, return_inverse=True)
    group = group.reshape(-1)
    trailing = []
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(["float", "nan", "varchar"]))
        per_group = rng.normal(size=group.max() + 1)
        if kind == "nan":
            per_group[rng.random(len(per_group)) < 0.5] = np.nan
        column = per_group[group]
        if kind == "varchar":
            column = np.array([f"v{value:.3f}" for value in column],
                              dtype=object)
        trailing.append(column)
    tweak = draw(st.sampled_from(["constant", "neighbour", "signed-zero",
                                  "payload-nan", "string"]))
    row = draw(st.integers(0, rows - 1))
    column = trailing[0]
    if tweak == "neighbour" and column.dtype != object:
        column[row] = np.nextafter(column[row], np.inf)
    elif tweak == "signed-zero" and column.dtype != object:
        column[group == group[row]] = 0.0
        column[row] = -0.0
    elif tweak == "payload-nan" and column.dtype != object:
        column[group == group[row]] = np.nan
        column[row] = PAYLOAD_NAN
    elif tweak == "string" and column.dtype == object:
        column[row] = column[row] + "x"
    return [*leads, *trailing]


@settings(max_examples=300, deadline=None)
@given(columns=dependent_keys())
def test_dependent_keys_match_lexsort(columns):
    groups = group_ids(columns)
    assert [part.tolist() for part in groups] == list(row_numbering(columns))
    ids = groups.ids
    codes = [
        np.unique(column, return_inverse=True)[1].reshape(-1)
        if column.dtype == object else _int64_codes(column)
        for column in columns
    ]
    order = np.lexsort(codes[::-1])
    assert np.all(np.diff(ids[order]) >= 0)


def test_constant_trailing_keys_skip_the_full_key(monkeypatch):
    """Distinct float biases per node overflow the composite; constant
    within the integer groups they number nothing and sort nothing."""
    def no_sort(*_args, **_kwargs):
        raise AssertionError("the integer keys alone number these groups")

    monkeypatch.setattr(np, "lexsort", no_sort)
    monkeypatch.setattr(
        "repro.db.operators.keys.string_ranks", no_sort
    )
    node = np.arange(5000) % 16
    bias = np.linspace(-1.0, 1.0, 16)[node]
    name = np.array([f"n{n}" for n in node], dtype=object)
    ids, firsts, sizes = group_ids(
        [np.arange(5000) // 16, node, bias, name]
    )
    assert ids.tolist() == firsts.tolist() == list(range(5000))
    assert sizes.tolist() == [1] * 5000


class TestIntegerSumOverflow:
    """``SUM`` of INTEGER is exact in int64 or raises
    :class:`IntegerOverflowError`; it never wraps."""

    PATHS = {
        "serial": ({}, False),
        "threads=4": ({"parallelism": 4}, True),
        "shards=2": ({"shards": 2}, True),
    }

    @pytest.fixture(params=list(PATHS))
    def run(self, request):
        options, parallel = self.PATHS[request.param]
        databases = []

        def run(values, groups=None):
            db = repro.connect(**options)
            databases.append(db)
            db.execute(
                "CREATE TABLE t (id INTEGER, g INTEGER, v INTEGER) "
                "PARTITION BY (id) PARTITIONS 4"
            )
            values = np.asarray(values, dtype=np.int64)
            db.table("t").append_columns(
                id=np.arange(len(values)),
                g=np.zeros(len(values), np.int64) if groups is None
                else np.asarray(groups),
                v=values,
            )
            return db.execute(
                "SELECT g, SUM(v) AS s, COUNT(*) AS c FROM t GROUP BY g "
                "ORDER BY g", parallel=parallel,
            )

        yield run
        for db in databases:
            db.close()

    @pytest.mark.parametrize("values", [
        [3, INT64.max],
        [INT64.min, -1],
        [1 << 62] * 2,
        [INT64.max, INT64.max, -INT64.max, 5],
    ])
    def test_overflow_raises(self, run, values):
        with pytest.raises(IntegerOverflowError):
            run(values)

    @pytest.mark.parametrize("values, total", [
        ([1 << 62, (1 << 62) - 1], INT64.max),
        ([INT64.min + 1, -1], INT64.min),
        ([INT64.max, 1, -1, -5], INT64.max - 5),
        ([1 << 62, 1 << 62, -(1 << 62), 7], (1 << 62) + 7),
    ])
    def test_sums_just_inside_stay_exact(self, run, values, total):
        result = run(values)
        assert result.column("s").tolist() == [total]

    def test_only_the_overflowing_group_matters(self, run):
        with pytest.raises(IntegerOverflowError, match="outside"):
            run([INT64.max, 1, 2, 3], groups=[1, 1, 0, 0])
        result = run([INT64.max, -1, 2, 3], groups=[1, 1, 0, 0])
        assert result.column("s").tolist() == [5, INT64.max - 1]
