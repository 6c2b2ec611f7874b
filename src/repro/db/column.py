"""Block-wise columnar storage with Small Materialized Aggregates.

Tables store their rows as a sequence of *blocks*.  A block holds one
NumPy array per column (all equally long) together with per-column
min/max statistics — the Small Materialized Aggregates of Moerkotte
(a.k.a. MinMax indexes / zone maps) that the paper's Section 4.4 relies
on for block pruning of the model table.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from repro.db.schema import Schema
from repro.db.vector import VectorBatch
from repro.errors import ExecutionError

#: Number of rows per storage block.
BLOCK_SIZE = 4096


@dataclass(frozen=True)
class MinMax:
    """Min/max statistic of one column within one block."""

    minimum: float
    maximum: float

    def may_contain_range(self, low: float | None, high: float | None) -> bool:
        """Whether [min, max] intersects the inclusive range [low, high]."""
        if low is not None and self.maximum < low:
            return False
        if high is not None and self.minimum > high:
            return False
        return True


@dataclass(frozen=True)
class ColumnRange:
    """An inclusive range predicate usable for block pruning.

    With *points* set the predicate is a union of point ranges — an
    ``IN`` list or an OR of equalities on one column — whose sorted,
    de-duplicated values are *points*; ``low``/``high`` are then their
    hull.  A plain equality is a one-point union.
    """

    column: str
    low: float | None = None
    high: float | None = None
    points: tuple[float, ...] | None = None

    @classmethod
    def of_points(cls, column: str, points) -> "ColumnRange":
        """The union of the point ranges *points* (empty matches nothing)."""
        points = tuple(sorted(set(points)))
        if not points:
            return cls(column, None, None, ())
        return cls(column, points[0], points[-1], points)

    def may_match(self, stat: MinMax | None) -> bool:
        """Whether a block whose zone map is *stat* may hold a match.

        A ``None`` statistic (non-numeric column, or unknown) never
        prunes; neither does a NaN-poisoned one (NaN compares false).
        """
        if stat is None:
            return True
        if not stat.may_contain_range(self.low, self.high):
            return False
        if self.points is None or not stat.minimum <= stat.maximum:
            return True
        index = bisect_left(self.points, stat.minimum)
        return index < len(self.points) and self.points[index] <= stat.maximum

    def intersect(self, other: "ColumnRange") -> "ColumnRange":
        if self.column.lower() != other.column.lower():
            raise ExecutionError("cannot intersect ranges on different columns")
        low = self.low if other.low is None else (
            other.low if self.low is None else max(self.low, other.low)
        )
        high = self.high if other.high is None else (
            other.high if self.high is None else min(self.high, other.high)
        )
        unions = [r.points for r in (self, other) if r.points is not None]
        if not unions:
            return ColumnRange(self.column, low, high)
        return ColumnRange.of_points(
            self.column,
            (
                point
                for point in set(unions[0]).intersection(*unions[1:])
                if (low is None or point >= low)
                and (high is None or point <= high)
            ),
        )

    def __str__(self) -> str:
        if self.points is None:
            return f"{self.column} in [{self.low}, {self.high}]"
        rendered = ", ".join(_render_point(point) for point in self.points)
        return f"{self.column} in {{{rendered}}}"


def _render_point(point: float) -> str:
    text = repr(point)
    return text[:-2] if text.endswith(".0") else text


def stats_may_match(
    stats: list[MinMax | None],
    schema: Schema,
    ranges: list[ColumnRange],
) -> bool:
    """SMA check shared by in-memory and disk blocks.

    *stats* is positionally aligned with *schema*.
    """
    for predicate in ranges:
        if not schema.has_column(predicate.column):
            continue
        stat = stats[schema.position_of(predicate.column)]
        if not predicate.may_match(stat):
            return False
    return True


class Block:
    """An immutable horizontal slice of a partition with SMA stats."""

    __slots__ = ("arrays", "stats", "length")

    def __init__(self, schema: Schema, arrays: list[np.ndarray]):
        lengths = {len(array) for array in arrays}
        if len(lengths) != 1:
            raise ExecutionError(f"ragged block: column lengths {lengths}")
        self.arrays = arrays
        self.length = lengths.pop()
        self.stats: list[MinMax | None] = []
        for column, array in zip(schema, arrays):
            if column.sql_type.is_numeric and self.length > 0:
                self.stats.append(
                    MinMax(float(array.min()), float(array.max()))
                )
            else:
                self.stats.append(None)

    def nominal_bytes(self) -> int:
        return sum(
            array.nbytes if array.dtype != object else len(array) * 16
            for array in self.arrays
        )

    def may_match(self, schema: Schema, ranges: list[ColumnRange]) -> bool:
        """SMA check: can any row of this block satisfy all *ranges*?"""
        return stats_may_match(self.stats, schema, ranges)

    def column_array(self, position: int) -> np.ndarray:
        """The array of one column (the disk block protocol)."""
        return self.arrays[position]

    def to_batch(self, schema: Schema) -> VectorBatch:
        return VectorBatch(schema, self.arrays)


class BlockBuilder:
    """Accumulates appended batches and seals full blocks.

    Rows are buffered until ``BLOCK_SIZE`` of them are available; sealed
    blocks get their SMA statistics computed once and become immutable.
    """

    def __init__(self, schema: Schema, block_size: int = BLOCK_SIZE):
        self.schema = schema
        self.block_size = block_size
        self.blocks: list[Block] = []
        self._pending: list[VectorBatch] = []
        self._pending_rows = 0
        self.row_count = 0
        # Appends and flushes mutate the pending buffer; a broadcast
        # table is scanned by every partition pipeline concurrently, so
        # the first scans may race to seal the final block.
        self._lock = threading.Lock()

    def __getstate__(self) -> dict:
        # Plan fragments (and the logical scans inside them) must be
        # picklable to ship across shard-process pipes; the lock is
        # process-local state, dropped here and recreated on load.
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def append(self, batch: VectorBatch) -> None:
        if len(batch) == 0:
            return
        with self._lock:
            self._pending.append(batch)
            self._pending_rows += len(batch)
            self.row_count += len(batch)
            while self._pending_rows >= self.block_size:
                self._seal(self.block_size)

    def _seal(self, rows: int) -> None:
        """Move the first *rows* buffered rows into a sealed block."""
        taken: list[VectorBatch] = []
        need = rows
        while need > 0:
            batch = self._pending.pop(0)
            if len(batch) <= need:
                taken.append(batch)
                need -= len(batch)
            else:
                taken.append(batch.slice(0, need))
                self._pending.insert(0, batch.slice(need, len(batch)))
                need = 0
        arrays = [
            np.concatenate([batch.arrays[i] for batch in taken])
            for i in range(len(self.schema))
        ]
        self.blocks.append(Block(self.schema, arrays))
        self._pending_rows -= rows

    def flush(self) -> None:
        """Seal whatever is buffered into a final, possibly short block."""
        with self._lock:
            if self._pending_rows > 0:
                self._seal(self._pending_rows)

    def all_blocks(self) -> list[Block]:
        self.flush()
        return self.blocks

    def nominal_bytes(self) -> int:
        sealed = sum(block.nominal_bytes() for block in self.blocks)
        pending = sum(batch.nominal_bytes() for batch in self._pending)
        return sealed + pending
