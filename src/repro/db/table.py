"""Partitioned columnar tables.

A :class:`Table` is split into a fixed number of partitions (the paper
runs with 12).  Rows are routed to partitions by hashing the partition
key — a unique key yields balanced partitions and, because the ModelJoin
group key ``(ID, Node)`` is derivable from an ``ID`` partitioning, no
repartitioning is ever needed (paper Section 4.4).

Tables may declare a *sort key*: every append checks that rows arrive
in that order per partition, which unlocks order-based aggregation and
Sort elision downstream.
"""

from __future__ import annotations

import threading
from collections.abc import Iterator

import numpy as np

from repro.db.column import BLOCK_SIZE, Block, BlockBuilder, ZoneMaps
from repro.db.schema import Schema
from repro.db.vector import VectorBatch
from repro.errors import DatabaseError, ExecutionError


def _out_of_order(columns: list[np.ndarray]) -> bool:
    """Whether some row of *columns* precedes the row before it in
    ascending ``ORDER BY`` order (NaN last; columns compared left to
    right)."""
    tied = None  # adjacent pairs equal on every column so far
    for index, column in enumerate(columns):
        before, after = column[:-1], column[1:]
        descending = before > after
        if column.dtype.kind == "f":
            before_nan, after_nan = np.isnan(before), np.isnan(after)
            descending |= before_nan & ~after_nan
        if tied is not None:
            descending &= tied
        if descending.any():
            return True
        if index + 1 < len(columns):
            equal = before == after
            if column.dtype.kind == "f":
                equal |= before_nan & after_nan
            tied = equal if tied is None else tied & equal
    return False


class Partition:
    """One horizontal slice of a table, stored as blocks."""

    def __init__(self, schema: Schema, block_size: int = BLOCK_SIZE):
        self.schema = schema
        self._builder = BlockBuilder(schema, block_size)

    @property
    def row_count(self) -> int:
        return self._builder.row_count

    def append(self, batch: VectorBatch) -> None:
        self._builder.append(batch)

    def last_values(self, positions: list[int]) -> list | None:
        return self._builder.last_values(positions)

    def blocks(self) -> list[Block]:
        return self._builder.all_blocks()

    def zoned_blocks(self) -> tuple[list[Block], ZoneMaps]:
        """:meth:`blocks` and their zone maps, read together."""
        return self._builder.zoned_blocks()

    def nominal_bytes(self) -> int:
        return self._builder.nominal_bytes()


#: process-wide unique table identities (survives DROP + re-CREATE of
#: the same name, so caches keyed by identity can never alias tables)
_next_table_uid = 0
_uid_lock = threading.Lock()


def _allocate_uid() -> int:
    global _next_table_uid
    with _uid_lock:
        uid = _next_table_uid
        _next_table_uid += 1
        return uid


def ensure_uid_floor(minimum: int) -> None:
    """Never hand out a uid below *minimum* again.

    Reopening a persistent database restores tables with their saved
    uids (version-keyed caches, e.g. the model cache, persist entries
    under them); raising the floor keeps later CREATEs from aliasing a
    restored identity.
    """
    global _next_table_uid
    with _uid_lock:
        _next_table_uid = max(_next_table_uid, minimum)


class Table:
    """A named, partitioned, columnar base table."""

    #: whether the table's partitions read their blocks from column
    #: files (see repro.db.storage); scans account file opens when set
    disk_resident = False

    def __init__(
        self,
        name: str,
        schema: Schema,
        num_partitions: int = 1,
        partition_key: str | None = None,
        sort_key: tuple[str, ...] = (),
        block_size: int = BLOCK_SIZE,
    ):
        if num_partitions < 1:
            raise DatabaseError("a table needs at least one partition")
        if partition_key is not None:
            schema.position_of(partition_key)  # validates existence
        for key in sort_key:
            schema.position_of(key)
        self.name = name
        self.schema = schema
        self.partition_key = partition_key
        self.sort_key = tuple(sort_key)
        self.partitions = [
            Partition(schema, block_size) for _ in range(num_partitions)
        ]
        #: identity that distinguishes this table object from any other
        #: ever created (even under the same name)
        self.uid = _allocate_uid()
        #: data version, bumped on every append — caches derived from
        #: the table's contents key on (uid, version)
        self.version = 0

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    @property
    def row_count(self) -> int:
        return sum(partition.row_count for partition in self.partitions)

    def nominal_bytes(self) -> int:
        return sum(partition.nominal_bytes() for partition in self.partitions)

    def append_batch(self, batch: VectorBatch) -> None:
        """Route the rows of *batch* to their partitions and store them.

        A sort key is a contract: each partition must receive its rows
        in ``ORDER BY`` order (NaN last), after its last row, or the
        append stores nothing and raises :class:`DatabaseError`.
        """
        if len(batch) == 0:
            return
        pieces = self._route(batch)
        if self.sort_key:
            for partition, piece in pieces:
                self._check_order(partition, piece)
        self.version += 1
        for partition, piece in pieces:
            partition.append(piece)

    def _route(self, batch: VectorBatch) -> list[tuple]:
        """``(partition, rows)`` for each partition *batch* has rows for."""
        count = self.num_partitions
        if count == 1:
            return [(self.partitions[0], batch)]
        if self.partition_key is None:
            # Round-robin in whole batches keeps insertion order per
            # partition, which is what preserves a declared sort key.
            sizes = np.full(count, len(batch) // count)
            sizes[: len(batch) % count] += 1
            stops = np.cumsum(sizes)
            return [
                (partition, batch.slice(int(stop - size), int(stop)))
                for partition, size, stop in zip(self.partitions, sizes, stops)
                if size
            ]
        keys = batch.column(self.partition_key)
        if keys.dtype == object:
            hashes = np.fromiter(
                (hash(key) for key in keys), dtype=np.int64, count=len(keys)
            )
        else:
            hashes = keys.astype(np.int64, copy=False)
        assignment = np.abs(hashes) % count
        pieces = []
        for index, partition in enumerate(self.partitions):
            mask = assignment == index
            if mask.any():
                pieces.append((partition, batch.filter(mask)))
        return pieces

    def _check_order(self, partition, batch: VectorBatch) -> None:
        positions = [self.schema.position_of(key) for key in self.sort_key]
        columns = [batch.arrays[position] for position in positions]
        last = partition.last_values(positions)
        if last is not None:
            columns = [
                np.concatenate([np.array([value], column.dtype), column])
                for value, column in zip(last, columns)
            ]
        if _out_of_order(columns):
            raise DatabaseError(
                f"table {self.name!r} is SORTED BY "
                f"({', '.join(self.sort_key)}): rows must arrive in that "
                "order (NaN last) in each partition"
            )

    def append_columns(self, **columns: np.ndarray) -> None:
        """Convenience bulk load from named arrays."""
        batch = VectorBatch.from_dict(self.schema, columns)
        self.append_batch(batch)

    def append_rows(self, rows: list[tuple]) -> None:
        """Load Python row tuples (used by INSERT ... VALUES)."""
        if not rows:
            return
        columns: dict[str, np.ndarray] = {}
        for position, column in enumerate(self.schema):
            values = [row[position] for row in rows]
            if column.sql_type.numpy_dtype == np.dtype(object):
                columns[column.name] = np.array(values, dtype=object)
            else:
                columns[column.name] = np.asarray(
                    values, dtype=column.sql_type.numpy_dtype
                )
        self.append_batch(VectorBatch(self.schema, list(columns.values())))

    def scan(self, partition: int | None = None) -> Iterator[VectorBatch]:
        """Yield one batch per block: of one partition, or of all in order."""
        if partition is None:
            partitions = self.partitions
        elif 0 <= partition < self.num_partitions:
            partitions = [self.partitions[partition]]
        else:
            raise ExecutionError(
                f"table {self.name!r} has no partition {partition}"
            )
        for part in partitions:
            for block in part.blocks():
                yield block.to_batch(self.schema)
