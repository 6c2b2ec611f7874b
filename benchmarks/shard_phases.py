"""Per-phase cost of warm sharded statements: the table in PERFORMANCE.md.

Wraps the coordinator-side steps a warm statement of the ``sharded_scan``
workload (two shard processes, 250 000 rows) goes through with
``perf_counter`` timers, runs each of its three statements repeatedly,
three times over, and prints, as one JSON line, the microseconds per
statement of the median run:

* ``prepare`` — ``Planner.prepare`` (a plan-cache hit);
* ``fragment`` — how the statement splits: ``Planner.fragment`` where
  the tree has it, else the engine's call of ``plan_fragments``;
* ``sync`` — the replica / model check before dispatch;
* ``send`` — ``ShardCoordinator._send_locked``: pickling the request
  and writing it to each shard's pipe;
* ``gather`` — ``ShardCoordinator._gather_locked``: waiting for the
  shards and unpickling their results;
* ``shard_wall`` — the mean of the shards' ``ResultResponse.wall_seconds``
  (the shard's whole fragment: plan or plan-cache hit, then execution);
* ``merge_build`` — the merge pipeline: ``Planner.merge`` where the tree
  has it (on a hit, an instance of the compiled merge its fragment
  template keeps), else ``build_merge_plan``;
* ``merge_run`` — running the merge pipeline (the coordinator's one
  plan);
* ``statement`` — the whole ``Database.execute``.

``merge_build`` on a tree with ``Planner.merge`` includes what that
method runs; ``merge_run`` is outside it on every tree.  Shard processes
are not wrapped: their time is ``shard_wall``.  Wrappers add their own
cost to every phase alike; compare two trees with the same script,
alternating which runs first::

    PYTHONPATH=src:. python benchmarks/shard_phases.py [STATEMENTS] [SEED]
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

from benchmarks.ledger.workloads import ShardedScan
from repro.db import engine, planner
from repro.db.operators.base import PhysicalOperator
from repro.db.shard import coordinator


def _wrap(totals: dict, owner, name: str, label: str, after=None) -> None:
    original = getattr(owner, name)

    @functools.wraps(original)
    def timed(*args, **kwargs):
        started = time.perf_counter()
        try:
            result = original(*args, **kwargs)
        finally:
            totals[label] += time.perf_counter() - started
        if after is not None:
            after(result)
        return result

    setattr(owner, name, timed)


def _wrap_root_batches(totals: dict) -> None:
    """Time the outermost ``batches()`` — on a sharded coordinator, the
    merge pipeline's run."""
    original = PhysicalOperator.batches
    depth = [0]

    def batches(self):
        if depth[0]:
            return original(self)
        depth[0] += 1
        started = time.perf_counter()
        try:
            produced = list(original(self))
        finally:
            depth[0] -= 1
            totals["merge_run"] += time.perf_counter() - started
        return iter(produced)

    PhysicalOperator.batches = batches


def _install(totals: dict) -> None:
    def shard_walls(responses: dict) -> None:
        walls = [
            response.wall_seconds
            for response in responses.values()
            if hasattr(response, "wall_seconds")
        ]
        if walls:
            totals["shard_wall"] += sum(walls) / len(walls)

    Coordinator = coordinator.ShardCoordinator
    _wrap(totals, planner.Planner, "prepare", "prepare")
    if hasattr(planner.Planner, "fragment"):
        _wrap(totals, planner.Planner, "fragment", "fragment")
    else:
        _wrap(totals, engine, "plan_fragments", "fragment")
    if hasattr(planner.Planner, "merge"):
        _wrap(totals, planner.Planner, "merge", "merge_build")
    else:
        _wrap(totals, coordinator, "build_merge_plan", "merge_build")
    _wrap(totals, Coordinator, "_sync_fragment_inputs_locked", "sync")
    _wrap(totals, Coordinator, "_send_locked", "send")
    _wrap(totals, Coordinator, "_gather_locked", "gather", shard_walls)
    _wrap_root_batches(totals)


def main(statements: int = 200, seed: int = 7) -> dict:
    totals: dict[str, float] = defaultdict(float)
    _install(totals)
    workload = ShardedScan(seed=seed, scale="full")
    workload.setup()
    database = workload.db
    try:
        for _ in range(20):
            for text in workload.TEXTS:
                database.execute(text)
        report = {}
        for name, text in zip(
            ("shard_partial_groupby", "shard_mj_groupby_k", "shard_concat_mj"),
            workload.TEXTS,
        ):
            runs = []
            for _ in range(3):
                totals.clear()
                started = time.perf_counter()
                for _ in range(statements):
                    database.execute(text)
                totals["statement"] = time.perf_counter() - started
                runs.append(
                    {k: v / statements * 1e6 for k, v in totals.items()}
                )
            run = sorted(runs, key=lambda r: r["statement"])[1]
            report[name] = {k: round(v, 1) for k, v in sorted(run.items())}
        return report
    finally:
        workload.teardown()


if __name__ == "__main__":
    arguments = [int(argument) for argument in sys.argv[1:3]]
    print(json.dumps(main(*arguments)))
