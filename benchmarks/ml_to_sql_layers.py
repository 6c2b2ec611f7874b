"""ML-To-SQL's join and aggregate layers: two statements, timed, and
where their time goes.

Times, interleaved, the ML-To-SQL inference query of

* ``olap_mix`` — the perf ledger workload's statement (a dense 8-8-1
  model over its 1 000-row ``small`` table), and
* ``fig8_16x2`` — the Fig. 8 cell of a dense 16×2 model over 2 000
  iris rows (the bench harness's model and data; *SEED* is the
  ledger workload's),

each on its own engine, keeping each one's fastest run.  Prints one
JSON line: both times in milliseconds and, from ``EXPLAIN ANALYZE`` of
each statement, every join and aggregate layer in plan order (top
first) with its rows, batches and cumulative time.  A dense layer shows
as one ``HashAggregate`` line whose ``groupjoin`` is true when the
aggregate groups the join's index pairs, or as a ``HashAggregate`` over
a ``HashJoin``.  It runs on any tree of this repository, so two trees
compare with the same script::

    PYTHONPATH=src:. python benchmarks/ml_to_sql_layers.py [RUNS] [SEED]
"""

from __future__ import annotations

import json
import re
import sys
import time

import repro
from benchmarks.ledger.workloads import OlapMix
from repro.core.ml_to_sql.generator import MlToSqlModelJoin
from repro.workloads.iris import FEATURE_COLUMNS, load_iris_table
from repro.workloads.models import make_dense_model

FIG8_ROWS = 2_000
#: an operator line of EXPLAIN ANALYZE: its name and its stats
LAYER = re.compile(
    r"(\w*(?:Join|Aggregate))\(.*\[rows: (\d+)\] \[batches: (\d+)\] "
    r"\[time: ([\d.]+)(us|ms|s)\]"
)
TO_MS = {"us": 1e-3, "ms": 1.0, "s": 1e3}


def olap_mix_statement(seed: int):
    """The ledger's ``olap_mix`` engine and its ML-To-SQL statement."""
    workload = OlapMix(seed)
    workload.setup()
    statement = next(
        s for s in workload.statements if s.name == "olap_ml_to_sql"
    )
    return workload.db, statement.sql(0)


def fig8_statement():
    """An engine holding the Fig. 8 16×2 ML-To-SQL cell (the bench
    harness's model and data), and its query."""
    database = repro.connect()
    load_iris_table(database, FIG8_ROWS)
    model = make_dense_model(16, 2, input_width=4, seed=16 + 2)
    runner = MlToSqlModelJoin(database, model, model_table="m_mlsql")
    text = runner.generator(
        "iris", "id", list(FEATURE_COLUMNS)
    ).inference_query()
    return database, text


def layers(database, text: str) -> list[dict]:
    """Each join and aggregate line of ``EXPLAIN ANALYZE``, top first."""
    plan, _ = database.explain_analyze(text)
    found = []
    for line in plan.splitlines():
        match = LAYER.search(line)
        if match is None:
            continue
        name, rows, batches, value, unit = match.groups()
        found.append({
            "operator": name,
            "groupjoin": "[groupjoin: " in line,
            "rows": int(rows),
            "batches": int(batches),
            "ms": round(float(value) * TO_MS[unit], 3),
        })
    return found


def main(runs: int = 15, seed: int = 5) -> dict:
    statements = {
        "olap_mix": olap_mix_statement(seed),
        "fig8_16x2": fig8_statement(),
    }
    try:
        best = {name: float("inf") for name in statements}
        for database, text in statements.values():
            database.execute(text)  # plan, compile and warm the caches
        for _ in range(runs):
            for name, (database, text) in statements.items():
                started = time.perf_counter()
                database.execute(text)
                elapsed = (time.perf_counter() - started) * 1e3
                best[name] = min(best[name], elapsed)
        report = {f"{name}_ms": round(ms, 3) for name, ms in best.items()}
        for name, (database, text) in statements.items():
            report[f"{name}_layers"] = layers(database, text)
        return report
    finally:
        for database, _ in statements.values():
            database.close()


if __name__ == "__main__":
    arguments = [int(argument) for argument in sys.argv[1:3]]
    print(json.dumps(main(*arguments)))
