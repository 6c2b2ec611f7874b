"""Multiprocess sharded execution (shared-nothing shards).

The coordinator engine plans, routes and merges; each shard is a full
attached engine in its own process owning a hash partition of every
sharded table.  See docs/SHARDING.md for the architecture tour.
"""

from repro.db.shard.coordinator import ShardCoordinator, ShardHandle
from repro.db.shard.messages import WorkerConfig
from repro.db.shard.tables import ShardedTable
from repro.db.shard.worker import ShardWorker, shard_worker_main

__all__ = [
    "ShardCoordinator",
    "ShardHandle",
    "ShardWorker",
    "ShardedTable",
    "WorkerConfig",
    "shard_worker_main",
]
