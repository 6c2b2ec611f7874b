"""``/`` is true division: ``x / 0`` is ±inf and ``0 / 0`` NaN, quietly.

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
MODES = ("compiled", "interpreted")


@pytest.fixture(scope="module")
def db():
    database = repro.connect()
    database.execute("CREATE TABLE t (id INTEGER, v DOUBLE)")
    database.execute("INSERT INTO t VALUES (-3, -1.5), (0, 0.0), (5, 2.5)")
    yield database
    database.close()


@pytest.mark.parametrize("compiled", (True, False), ids=MODES)
@pytest.mark.parametrize("case", CASES)
def test_division(db, case, compiled):
    expression, want = CASES[case]
    db.planner_options = dataclasses.replace(
        db.planner_options, use_compiled_kernels=compiled
    )
    db.plan_cache.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = db.execute(f"SELECT id, {expression} AS q FROM t")
    got = dict(result.rows)
    for key, value in want.items():
        if math.isnan(value):
            assert math.isnan(got[key]), key
        else:
            assert got[key] == value, key
