"""Per-phase cost of warm point statements: the table in PERFORMANCE.md.

Wraps the set-up steps a warm ``point_mj`` / ``point_select`` statement
of the ``point_lookup`` workload goes through with ``perf_counter``
timers, runs 1 000 warm statements of each kind three times and prints,
as one JSON line, the microseconds per statement of the median run:

* ``lex`` — ``PlanCache.lex``;
* ``prepare`` and, inside it, ``select_variant`` (the variant decision
  of a plan-cache hit);
* ``lower`` — ``Planner.lower``: the instance of the template's compiled
  plan (on trees before compiled plans, the clone of its prototype);
* ``mj_build`` — ``ModelJoinOperator._build`` (cache lookup with its
  CRC check, counters, the inference state);
* ``bias`` — ``VectorizedInference.bias_accumulator`` (replica fills);
* ``infer`` — ``ModelJoinOperator._infer_batch`` (the one-row kernel);
* ``mj_open_close`` — the ModelJoin's own ``open`` + ``close``, its
  child's open and close taken out (on trees with a ``cloned`` hook, the
  hook too);
* ``statement`` — the whole ``Database.execute``.

Wrappers add their own cost to every phase alike; compare two trees
with the same script, alternating which runs first::

    PYTHONPATH=src:. python benchmarks/point_phases.py [STATEMENTS] [SEED]
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

from benchmarks.ledger.workloads import PointLookup
from repro.core.modeljoin import inference, operator
from repro.db import planner
from repro.db.operators import misc
from repro.db.plan import cache


def _wrap(totals: dict, owner, name: str, label: str) -> None:
    original = getattr(owner, name, None)
    if original is None:  # a step this tree does not have
        return

    @functools.wraps(original)
    def timed(*args, **kwargs):
        started = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            totals[label] += time.perf_counter() - started

    setattr(owner, name, timed)


def main(statements: int = 1_000, seed: int = 7) -> dict:
    totals: dict[str, float] = defaultdict(float)
    for owner, name, label in (
        (cache.PlanCache, "lex", "lex"),
        (planner.Planner, "prepare", "prepare"),
        (planner, "select_variant", "select_variant"),
        (planner.Planner, "lower", "lower"),
        (operator.ModelJoinOperator, "_build", "mj_build"),
        (inference.VectorizedInference, "bias_accumulator", "bias"),
        (operator.ModelJoinOperator, "_infer_batch", "infer"),
        (operator.ModelJoinOperator, "cloned", "mj_cloned"),
        (operator.ModelJoinOperator, "open", "mj_open"),
        (operator.ModelJoinOperator, "close", "mj_close"),
        # the ModelJoin's child: the scan's rename over the scan (its
        # filter is the join's selection kernel)
        (misc.RenameOperator, "open", "child_open"),
        (misc.RenameOperator, "close", "child_close"),
    ):
        _wrap(totals, owner, name, label)
    workload = PointLookup(seed=seed, scale="full")
    workload.setup()
    database = workload.db
    try:
        for index in range(50):
            database.execute(workload.sql_mj(index))
            database.execute(workload.sql_select(index))
        report = {}
        for kind, sql in (
            ("point_mj", workload.sql_mj),
            ("point_select", workload.sql_select),
        ):
            runs = []
            for _ in range(3):
                totals.clear()
                texts = [sql(100 + index) for index in range(statements)]
                started = time.perf_counter()
                for text in texts:
                    database.execute(text)
                totals["statement"] = time.perf_counter() - started
                runs.append(
                    {k: v / statements * 1e6 for k, v in totals.items()}
                )
            run = sorted(runs, key=lambda r: r["statement"])[1]
            if kind == "point_mj":
                run["mj_open_close"] = sum(
                    run.pop(name, 0.0)
                    for name in ("mj_cloned", "mj_open", "mj_close")
                ) - run.pop("child_open", 0.0) - run.pop("child_close", 0.0)
            else:
                run.pop("child_open", None)
                run.pop("child_close", None)
            report[kind] = {k: round(v, 1) for k, v in sorted(run.items())}
        return report
    finally:
        workload.teardown()


if __name__ == "__main__":
    arguments = [int(argument) for argument in sys.argv[1:3]]
    print(json.dumps(main(*arguments)))
