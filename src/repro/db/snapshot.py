"""MVCC-lite snapshots: pinned, immutable views of a database.

A :class:`DatabaseSnapshot` captures, at one instant, an immutable view
of every user table — a :class:`FrozenTable` whose partitions hold a
frozen list of blocks — inside a read-only
:class:`~repro.db.catalog.Catalog` clone that the planner consumes
exactly like the live catalog.  Because captured blocks are immutable
(memory blocks by construction, disk blocks because the backing
generation directory is *pinned*), a query planned against the snapshot
sees bit-exactly the state at capture time no matter how many appends,
checkpoints or generation publishes happen concurrently:

* **Memory tables** — :meth:`~repro.db.table.Partition.blocks` returns
  the sealed blocks plus the not-yet-sealed rows as one tail block,
  built for the read and never sealed.  Sealed blocks never change and
  an append replaces the tail instead of mutating it, so the captured
  list stays exactly the rows present at capture.
* **Disk tables** — the snapshot pins the current checkpoint
  generation in the :class:`~repro.db.storage.store.StorageEngine`
  (refcounted).  A later checkpoint publishes a *fresh* generation
  directory and retires the old one, but the storage layer defers
  closing and deleting a pinned generation until its last pin drops
  (see ``StorageEngine.unpin_generations``), so the snapshot's block
  readers stay valid for the snapshot's whole lifetime.  The in-memory
  overlay of appends since the last checkpoint is captured like a
  memory table.

Capture happens under the engine's ``catalog_lock`` — the same lock
writers hold for the whole mutating statement and ``checkpoint`` holds
while swapping partitions — so a snapshot can never observe a write or
a generation publish half-applied (no torn reads across partitions or
tables).

Capture makes no filesystem call.  The generation keys it pins are
recorded when a manifest is published (``StorageEngine`` resolves its
root once, at construction), and disk partitions load their
column-file footers at publish too, so what runs under
``catalog_lock`` is refcount increments and copies of block references
— never a ``stat``, ``resolve`` or ``open``.  A syscall there would
release the GIL while the lock is held and queue every other
dispatcher behind it (``tests/db/test_snapshot_capture.py`` checks it).

The serving layer (:mod:`repro.db.serve`) gives every admitted read
query such a snapshot; release is mandatory (use the context manager)
so pinned generations are garbage-collected promptly.
"""

from __future__ import annotations

from repro.db.catalog import Catalog
from repro.db.column import ZoneMaps
from repro.db.table import Table
from repro.db.vector import VectorBatch
from repro.errors import ExecutionError


class FrozenPartition:
    """An immutable view of one partition's blocks and their zone maps
    (shared with the partition they were read from)."""

    def __init__(self, partition):
        blocks, self._zones = partition.zoned_blocks()
        self._blocks = tuple(blocks)
        self.row_count = int(self._zones.rows.sum())

    def blocks(self) -> list:
        return list(self._blocks)

    def zoned_blocks(self) -> tuple[list, ZoneMaps]:
        return list(self._blocks), self._zones

    def nominal_bytes(self) -> int:
        return sum(block.nominal_bytes() for block in self._blocks)


class FrozenTable(Table):
    """A read-only :class:`~repro.db.table.Table` over frozen partitions.

    Carries the source table's ``uid``/``version``, so version-keyed
    caches (the ModelJoin build cache, compiled epilogue kernels) hit
    for snapshot scans exactly as they do for live scans.
    """

    def __init__(self, table):
        # No Table.__init__: a snapshot keeps the source's identity
        # instead of allocating a fresh uid.
        self.name = table.name
        self.schema = table.schema
        self.partition_key = table.partition_key
        self.sort_key = table.sort_key
        self.uid = table.uid
        self.version = table.version
        self.disk_resident = table.disk_resident
        self.partitions = [
            FrozenPartition(partition)
            for partition in table.partitions
        ]
        if getattr(table, "shard_count", 0):
            # a sharded table's stub: its rows live on the shards
            self.shard_count = table.shard_count

    def append_batch(self, batch: VectorBatch) -> None:
        raise ExecutionError(
            f"table {self.name!r} is a read-only snapshot; "
            "write through the live catalog"
        )


class DatabaseSnapshot:
    """A pinned point-in-time view of a database's user tables.

    ``snapshot.catalog`` is a read-only :class:`Catalog` clone whose
    tables are :class:`FrozenTable` views; model registrations and the
    ``system.*`` provider pass through (system tables always render
    live state — they are observability, not data).  Call
    :meth:`release` (or use the snapshot as a context manager) when the
    query finishes, so pinned checkpoint generations can be
    garbage-collected.

    Construction must happen under ``database.catalog_lock`` —
    :meth:`repro.db.engine.Database.snapshot` does this for you.
    """

    def __init__(self, database):
        live = database.catalog
        self._storage = database.storage
        self._pin = (
            self._storage.pin_generations()
            if self._storage is not None
            else None
        )
        self.catalog = Catalog(
            tables={
                key: FrozenTable(table)
                for key, table in live.tables.items()
            },
            models=dict(live.models),
            # Version bindings are copied too, so `MODEL JOIN m` (and
            # `... VERSION k`) resolved against this snapshot keep the
            # versions current at capture time even while a concurrent
            # retrain publishes (records are frozen dataclasses).
            model_versions={
                name: dict(versions)
                for name, versions in live.model_versions.items()
            },
            current_versions=dict(live.current_versions),
            system_schema=live.system_schema,
        )
        self._released = False

    def release(self) -> None:
        """Unpin the snapshot's checkpoint generations (idempotent)."""
        if self._released:
            return
        self._released = True
        if self._pin is not None:
            self._storage.unpin_generations(self._pin)

    def __enter__(self) -> "DatabaseSnapshot":
        return self

    def __exit__(self, *_exc) -> None:
        self.release()
