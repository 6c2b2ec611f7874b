"""The filtered MODEL JOIN against the same join without its filter.

Loads 250 000 rows of the ledger's fact table (four FLOAT inputs) on
one engine, publishes a dense 32-32-1 model and times, interleaved,

* ``filtered`` — ``SELECT id, prediction_0 FROM facts MODEL JOIN m
  USING (x1, x2, x3, x4) WHERE x1 > 0.9`` (10 % of the rows pass), and
* ``unfiltered`` — the same statement without the ``WHERE``,

keeping each one's fastest run.  Prints one JSON line: both times in
milliseconds, ``ratio`` = filtered / unfiltered, and the ModelJoin's
``[batches: N]`` and rows from ``EXPLAIN ANALYZE`` of each statement.
Ten percent of the rows should cost about ten percent of the time; the
ratio says how far the filtered plan is from that.  It runs on any tree
of this repository, so two trees compare with the same script::

    PYTHONPATH=src:. python benchmarks/filtered_modeljoin.py [RUNS] [SEED]
"""

from __future__ import annotations

import json
import re
import sys
import time

import numpy as np

import repro
from benchmarks.ledger.workloads import fact_columns, load_facts
from repro.core.registry import publish_model
from repro.nn.layers import Dense
from repro.nn.model import Sequential

ROWS = 250_000
STATEMENTS = {
    "filtered": (
        "SELECT id, prediction_0 FROM facts MODEL JOIN m "
        "USING (x1, x2, x3, x4) WHERE x1 > 0.9"
    ),
    "unfiltered": (
        "SELECT id, prediction_0 FROM facts MODEL JOIN m "
        "USING (x1, x2, x3, x4)"
    ),
}


def model_join_stats(database, text: str) -> dict:
    """The ModelJoin line's rows and batches in EXPLAIN ANALYZE."""
    plan, _ = database.explain_analyze(text)
    line = next(line for line in plan.splitlines() if "ModelJoin(" in line)
    rows, batches = re.search(
        r"\[rows: (\d+)\] \[batches: (\d+)\]", line
    ).groups()
    return {"rows": int(rows), "batches": int(batches)}


def main(runs: int = 15, seed: int = 11) -> dict:
    database = repro.connect()
    try:
        load_facts(database, fact_columns(np.random.default_rng(seed), ROWS))
        model = Sequential(
            [Dense(32, "relu"), Dense(32, "relu"), Dense(1, "sigmoid")],
            input_width=4,
            seed=seed,
        )
        publish_model(database, "m", model)
        best = {name: float("inf") for name in STATEMENTS}
        for name, text in STATEMENTS.items():
            database.execute(text)  # build the model, warm the caches
        for _ in range(runs):
            for name, text in STATEMENTS.items():
                started = time.perf_counter()
                database.execute(text)
                elapsed = (time.perf_counter() - started) * 1e3
                best[name] = min(best[name], elapsed)
        report = {f"{name}_ms": round(ms, 3) for name, ms in best.items()}
        report["ratio"] = round(best["filtered"] / best["unfiltered"], 3)
        for name, text in STATEMENTS.items():
            report[f"{name}_modeljoin"] = model_join_stats(database, text)
        return report
    finally:
        database.close()


if __name__ == "__main__":
    arguments = [int(argument) for argument in sys.argv[1:3]]
    print(json.dumps(main(*arguments)))
