"""``/`` is true division: ``x / 0`` is ±inf and ``0 / 0`` NaN, quietly;
float ``*``, ``+`` and ``-`` overflow to ±inf and ``0 * inf`` is NaN, as
quietly.

Each case runs compiled and interpreted with warnings turned into
errors, so a NumPy ``RuntimeWarning`` escaping to the caller fails it.
"""

from __future__ import annotations

import dataclasses
import math
import warnings

import pytest

import repro

CASES = {
    # (expression over t(id INTEGER, v DOUBLE), {id: expected value})
    "true_division": ("id / 2", {-3: -1.5, 0: 0.0, 5: 2.5}),
    "by_zero_is_signed_inf": (
        "v / 0", {-3: -math.inf, 0: math.nan, 5: math.inf}
    ),
    "integer_by_zero": ("id / 0", {-3: -math.inf, 0: math.nan, 5: math.inf}),
    "zero_by_zero_is_nan": (
        "(id - id) / (v - v)", {-3: math.nan, 5: math.nan}
    ),
}
#: float arithmetic over w(id INTEGER, x DOUBLE) holding (1, 0.0) and
#: (2, 1e308): IEEE results
FLOAT_CASES = {
    "zero_times_inf_is_nan": ("x * 1e999", {1: math.nan, 2: math.inf}),
    "product_overflows_to_inf": ("x * 10.0", {1: 0.0, 2: math.inf}),
    "sum_overflows_to_inf": ("x + 1e308", {1: 1e308, 2: math.inf}),
    "difference_to_minus_inf": ("x - 1e999", {1: -math.inf, 2: -math.inf}),
    "negative_overflow": ("0.0 - x * 10.0", {1: 0.0, 2: -math.inf}),
}
MODES = ("compiled", "interpreted")


@pytest.fixture(scope="module")
def db():
    database = repro.connect()
    database.execute("CREATE TABLE t (id INTEGER, v DOUBLE)")
    database.execute("INSERT INTO t VALUES (-3, -1.5), (0, 0.0), (5, 2.5)")
    database.execute("CREATE TABLE w (id INTEGER, x DOUBLE)")
    database.execute("INSERT INTO w VALUES (1, 0.0), (2, 1e308)")
    yield database
    database.close()


@pytest.mark.parametrize("compiled", (True, False), ids=MODES)
@pytest.mark.parametrize("case", CASES)
def test_division(db, case, compiled):
    expression, want = CASES[case]
    check(db, f"SELECT id, {expression} AS q FROM t", want, compiled)


@pytest.mark.parametrize("compiled", (True, False), ids=MODES)
@pytest.mark.parametrize("case", FLOAT_CASES)
def test_float_arithmetic(db, case, compiled):
    expression, want = FLOAT_CASES[case]
    check(db, f"SELECT id, {expression} AS q FROM w", want, compiled)


def check(db, sql: str, want: dict, compiled: bool) -> None:
    """*sql* run compiled or interpreted, warnings as errors, gives
    *want* (NaN matches NaN)."""
    db.planner_options = dataclasses.replace(
        db.planner_options, use_compiled_kernels=compiled
    )
    db.plan_cache.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = db.execute(sql)
    got = dict(result.rows)
    for key, value in want.items():
        if math.isnan(value):
            assert math.isnan(got[key]), key
        else:
            assert got[key] == value, key
