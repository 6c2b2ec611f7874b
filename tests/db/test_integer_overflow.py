"""INTEGER ``+ - *`` is exact in int64 or raises a typed error.

With ``t`` holding ids {3, 2**63 - 1}, ``id * 2`` and ``id + 1`` leave
int64 on one row.  NumPy wraps such a result silently (``-2``, or a
negative sum that a ``> 0`` filter drops), so both statements raise
:class:`IntegerOverflowError` instead, in generated kernels and in the
interpreted operators, serial, on four threads and on two shards.  A
statement whose operands could overflow but whose results do not stays
exact.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.db.planner import PlannerOptions
from repro.errors import IntegerOverflowError

INT64_MAX = np.iinfo(np.int64).max

PATHS = {
    "serial": ({}, False),
    "threads=4": ({"parallelism": 4}, True),
    "shards=2": ({"shards": 2}, True),
}
KERNELS = {"compiled": True, "interpreted": False}

PROBES = (
    "SELECT id * 2, d FROM t ORDER BY d",
    "SELECT id FROM t WHERE id + 1 > 0",
    "SELECT id FROM t WHERE 9223372036854775807 + 1 > id",
)


@pytest.fixture(
    scope="module",
    params=[(kernels, path) for kernels in KERNELS for path in PATHS],
    ids=lambda param: f"{param[0]}-{param[1]}",
)
def run(request):
    kernels, path = request.param
    options, parallel = PATHS[path]
    db = repro.connect(
        planner_options=PlannerOptions(use_compiled_kernels=KERNELS[kernels]),
        **options,
    )
    db.execute(
        "CREATE TABLE t (id INTEGER, d DOUBLE) PARTITION BY (id) PARTITIONS 4"
    )
    db.table("t").append_columns(
        id=np.array([3, INT64_MAX], dtype=np.int64),
        d=np.array([1.0, 2.0]),
    )
    yield lambda sql: db.execute(sql, parallel=parallel)
    db.close()


@pytest.mark.parametrize("sql", PROBES)
def test_overflow_raises(run, sql):
    with pytest.raises(IntegerOverflowError, match="outside the INTEGER"):
        run(sql)


def test_results_inside_int64_stay_exact(run):
    result = run("SELECT id - 1, id * 1, id + 0, d FROM t ORDER BY d")
    assert result.rows == [
        (2, 3, 3, 1.0),
        (INT64_MAX - 1, INT64_MAX, INT64_MAX, 2.0),
    ]
    assert run("SELECT id FROM t WHERE id - 1 > 2 ORDER BY id").rows == [
        (INT64_MAX,)
    ]
