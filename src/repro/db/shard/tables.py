"""Coordinator-side stand-in for a table whose rows live on shards.

A :class:`ShardedTable` sits in the coordinator catalog under the
table's name so binding, EXPLAIN and ``system.tables`` keep working
unchanged, but it stores no rows locally: appends hash-route whole
batches to the owning shard processes (the same ``abs(hash) % n`` rule
:class:`~repro.db.table.Table` uses for local partitions, so a table
sharded N ways places every row exactly where an N-partition local
table would), and scanning it at the coordinator is a planning bug that
raises instead of silently returning zero rows.
"""

from __future__ import annotations

import numpy as np

from repro.db.schema import Schema
from repro.db.table import Table
from repro.db.vector import VectorBatch
from repro.errors import ShardError


class ShardedTable(Table):
    """A catalog stub routing appends to the shard that owns each row."""

    def __init__(
        self,
        name: str,
        schema: Schema,
        partition_key: str,
        coordinator,
        sort_key: tuple[str, ...] = (),
    ):
        # One empty local partition: enough for the binder/lowering to
        # build (never-executed) coordinator plans and for EXPLAIN.
        super().__init__(
            name,
            schema,
            num_partitions=1,
            partition_key=partition_key,
            sort_key=sort_key,
        )
        self._coordinator = coordinator
        self.shard_count = coordinator.shard_count
        #: routed-row accounting, kept coordinator-side so row_count /
        #: cost estimates never need a cross-process round trip
        self.rows_per_shard = [0] * self.shard_count

    @property
    def row_count(self) -> int:  # type: ignore[override]
        return sum(self.rows_per_shard)

    def append_batch(self, batch: VectorBatch) -> None:
        if len(batch) == 0:
            return
        self.version += 1
        keys = batch.column(self.partition_key)
        if keys.dtype == object:
            hashes = np.fromiter(
                (hash(key) for key in keys),
                dtype=np.int64,
                count=len(keys),
            )
        else:
            hashes = keys.astype(np.int64, copy=False)
        assignment = np.abs(hashes) % self.shard_count
        for shard_id in range(self.shard_count):
            mask = assignment == shard_id
            if not mask.any():
                continue
            routed = batch.filter(mask)
            self._coordinator.append_to_shard(shard_id, self.name, routed)
            self.rows_per_shard[shard_id] += len(routed)

    def scan(self, partition=None):  # type: ignore[override]
        raise ShardError(
            f"table {self.name!r} is sharded across "
            f"{self.shard_count} processes and cannot be scanned at "
            "the coordinator; this query should have been dispatched "
            "through the shard coordinator"
        )

    def __getstate__(self) -> dict:
        # The stub is never shipped to workers (fragments reference
        # tables by name), but snapshots/pickles of the catalog must
        # not drag a process handle along.
        state = self.__dict__.copy()
        state["_coordinator"] = None
        return state
