"""Block-wise columnar storage with Small Materialized Aggregates.

Tables store their rows as a sequence of *blocks*.  A block holds one
NumPy array per column (all equally long) together with per-column
min/max statistics — the Small Materialized Aggregates of Moerkotte
(a.k.a. MinMax indexes / zone maps) that the paper's Section 4.4 relies
on for block pruning of the model table.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left, bisect_right
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.db.schema import Schema
from repro.db.types import SqlType
from repro.db.vector import VectorBatch, nominal_bytes
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


class ZoneMaps:
    """The zone maps of a list of blocks as ``[blocks × columns]`` arrays.

    ``low`` / ``high`` hold each block's per-column min/max as float64,
    NaN where the block records no zone map (a ``None`` stat, which
    never prunes); ``rows`` holds each block's row count.  Partitions
    keep them beside their block lists (:meth:`BlockBuilder.zoned_blocks`),
    so pruning a partition is one vectorised pass (:func:`block_pruner`).
    """

    __slots__ = ("low", "high", "rows", "_bounds")

    def __init__(self, low: np.ndarray, high: np.ndarray, rows: np.ndarray):
        self.low = low
        self.high = high
        self.rows = rows
        self._bounds: dict[int, tuple[list, list] | None] = {}

    def bounds(self, position: int) -> tuple[list, list] | None:
        """Column *position*'s per-block ``(lows, highs)`` as lists of
        floats, or None when a block has no zone map there (NaN).
        Memoized: the arrays never change."""
        try:
            return self._bounds[position]
        except KeyError:
            pass
        low, high = self.low[:, position], self.high[:, position]
        bounds = (
            None
            if np.isnan(low).any() or np.isnan(high).any()
            else (low.tolist(), high.tolist())
        )
        self._bounds[position] = bounds
        return bounds

    @classmethod
    def of(cls, blocks, width: int) -> "ZoneMaps":
        """The zone maps of *blocks* (each with ``stats`` and ``length``)."""
        nan = math.nan
        low = [
            nan if stat is None else stat.minimum
            for block in blocks
            for stat in block.stats
        ]
        high = [
            nan if stat is None else stat.maximum
            for block in blocks
            for stat in block.stats
        ]
        shape = (len(blocks), width)
        return cls(
            np.array(low, dtype=np.float64).reshape(shape),
            np.array(high, dtype=np.float64).reshape(shape),
            np.array([block.length for block in blocks], dtype=np.int64),
        )

    def __len__(self) -> int:
        return len(self.rows)

    def __add__(self, other: "ZoneMaps") -> "ZoneMaps":
        if not len(other):
            return self
        if not len(self):
            return other
        return ZoneMaps(
            np.concatenate([self.low, other.low]),
            np.concatenate([self.high, other.high]),
            np.concatenate([self.rows, other.rows]),
        )


def block_pruner(
    schema: Schema,
    ranges: list[ColumnRange],
    sort_key: tuple[str, ...] = (),
) -> Callable[[ZoneMaps], np.ndarray] | None:
    """The one zone-map pruner: a ``zone maps -> keep mask`` closure, or
    None when no predicate applies to *schema* (callers then skip the
    check entirely).

    The closure evaluates every range over a partition's zone-map
    arrays at once and answers, per block, exactly what
    :meth:`ColumnRange.may_match` answers for that block's stat: a NaN
    bound compares false, so a missing or NaN-poisoned zone map prunes
    only by the bound it has, and never by a point list.

    With a *sort_key* (the table's ``SORTED BY`` columns) and a range on
    its leading column, a partition whose zone maps of that column hold
    no NaN has them in ascending order, block after block; the closure
    then finds that range's blocks by binary search (one per bound and
    per ``IN`` point) and masks the other ranges over those blocks
    only.  The mask is the same either way.
    """
    resolved = [
        (
            schema.position_of(predicate.column),
            predicate,
            None
            if predicate.points is None
            else np.asarray(predicate.points, dtype=np.float64),
        )
        for predicate in ranges
        if schema.has_column(predicate.column)
    ]
    if not resolved:
        return None

    def may_match(zones: ZoneMaps) -> np.ndarray:
        keep = np.ones(len(zones), dtype=bool)
        for position, predicate, points in resolved:
            low = zones.low[:, position]
            high = zones.high[:, position]
            if predicate.low is not None:
                keep &= ~(high < predicate.low)
            if predicate.high is not None:
                keep &= ~(low > predicate.high)
            if points is not None:
                hit = ~(low <= high)
                if len(points):
                    index = np.searchsorted(points, low)
                    nearest = points[np.minimum(index, len(points) - 1)]
                    hit |= (index < len(points)) & (nearest <= high)
                keep &= hit
        return keep

    searched = _leading_key_range(resolved, sort_key)
    if searched is None:
        return may_match
    position, predicate, points = searched
    others = block_pruner(
        schema, [entry[1] for entry in resolved if entry is not searched]
    )
    # compared as float64, like the masks above
    low_bound = None if predicate.low is None else float(predicate.low)
    high_bound = None if predicate.high is None else float(predicate.high)
    point_list = None if points is None else points.tolist()

    def search(zones: ZoneMaps) -> np.ndarray:
        bounds = zones.bounds(position)
        if bounds is None:
            return may_match(zones)
        lows, highs = bounds
        start = 0 if low_bound is None else bisect_left(highs, low_bound)
        stop = (
            len(lows) if high_bound is None
            else bisect_right(lows, high_bound)
        )
        keep = np.zeros(len(lows), dtype=bool)
        if point_list is None:
            # one run of blocks: mask the other ranges over a view of it
            if others is not None and start < stop:
                keep[start:stop] = others(
                    ZoneMaps(
                        zones.low[start:stop],
                        zones.high[start:stop],
                        zones.rows[start:stop],
                    )
                )
            else:
                keep[start:stop] = True
            return keep
        for point in point_list:
            keep[
                max(bisect_left(highs, point), start):
                min(bisect_right(lows, point), stop)
            ] = True
        if others is not None:
            kept = np.flatnonzero(keep)
            keep[kept] = others(
                ZoneMaps(zones.low[kept], zones.high[kept], zones.rows[kept])
            )
        return keep

    return search


def _leading_key_range(resolved: list, sort_key: tuple[str, ...]):
    """The resolved range on *sort_key*'s leading column whose bounds
    and ``IN`` points are numbers (not NaN), or None."""
    if not sort_key:
        return None
    lead = sort_key[0].lower()
    for entry in resolved:
        predicate = entry[1]
        if predicate.column.lower() != lead:
            continue
        try:
            bounds = [
                float(bound)
                for bound in (predicate.low, predicate.high)
                if bound is not None
            ]
        except (TypeError, ValueError):
            return None
        points = entry[2]
        if all(bound == bound for bound in bounds) and (
            points is None or not np.isnan(points).any()
        ):
            return entry
    return None


def zone_map_bounds(array: np.ndarray, sql_type: SqlType):
    """The (min, max) a zone map records for one column of a block.

    The one zone-map rule, shared by memory blocks and column-file
    footers: NaN is left out, and a block records no zone map (None,
    which never prunes) when its column is not numeric, holds no
    non-NaN value, or has an infinite bound (JSON footers cannot hold
    one).  The bounds are NumPy scalars, so integers stay exact.
    """
    if not sql_type.is_numeric or len(array) == 0:
        return None
    low, high = array.min(), array.max()
    if low != low:  # NaN poisons min/max: bound the other values
        array = array[~np.isnan(array)]
        if len(array) == 0:
            return None
        low, high = array.min(), array.max()
    if not (math.isfinite(low) and math.isfinite(high)):
        return None
    return low, high


class Block:
    """An immutable horizontal slice of a partition with SMA stats."""

    __slots__ = ("arrays", "stats", "length", "_nominal_bytes")

    def __init__(self, schema: Schema, arrays: list[np.ndarray]):
        lengths = {len(array) for array in arrays}
        if len(lengths) != 1:
            raise ExecutionError(f"ragged block: column lengths {lengths}")
        self.arrays = arrays
        self.length = lengths.pop()
        self._nominal_bytes = nominal_bytes(arrays)
        self.stats: list[MinMax | None] = []
        for column, array in zip(schema, arrays):
            bounds = zone_map_bounds(array, column.sql_type)
            self.stats.append(
                None if bounds is None else MinMax(*map(float, bounds))
            )

    def nominal_bytes(self) -> int:
        return self._nominal_bytes

    def column_array(self, position: int) -> np.ndarray:
        """The array of one column (the disk block protocol)."""
        return self.arrays[position]

    def to_batch(self, schema: Schema) -> VectorBatch:
        return VectorBatch.validated(schema, self.arrays)


class BlockBuilder:
    """Accumulates appended batches and seals full blocks.

    Rows are buffered until ``BLOCK_SIZE`` of them are available; sealed
    blocks get their SMA statistics computed once and become immutable.
    Reads see the buffered rows as one unsealed *tail* block, so only a
    partition's last block is ever short, however reads and appends
    interleave.  The blocks' zone maps are kept as arrays beside them
    (:class:`ZoneMaps`), extended as blocks seal.
    """

    def __init__(self, schema: Schema, block_size: int = BLOCK_SIZE):
        self.schema = schema
        self.block_size = block_size
        self._sealed: list[Block] = []
        self._pending: list[VectorBatch] = []
        self._pending_rows = 0
        #: the pending rows as one block, built by the first read after
        #: an append and dropped by the next append
        self._tail: Block | None = None
        #: zone maps of the first len(_zones) sealed blocks, and of the
        #: sealed blocks plus the tail (dropped with the tail)
        self._zones = ZoneMaps.of([], len(schema))
        self._tail_zones: ZoneMaps | None = None
        self.row_count = 0
        # Appends and reads mutate the pending buffer; a broadcast table
        # is scanned by every partition pipeline concurrently, so the
        # first scans may race to build the tail block.
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
            self._tail = None
            self._tail_zones = None
            while self._pending_rows >= self.block_size:
                self._seal()

    def last_values(self, positions: list[int]) -> list | None:
        """The last row's values at *positions*; None when empty."""
        with self._lock:
            if self._pending:
                arrays = self._pending[-1].arrays
            elif self._sealed:
                arrays = self._sealed[-1].arrays
            else:
                return None
        return [arrays[position][-1] for position in positions]

    def _seal(self) -> None:
        """Move the first ``block_size`` buffered rows into a block."""
        taken: list[VectorBatch] = []
        need = self.block_size
        while need > 0:
            batch = self._pending.pop(0)
            if len(batch) <= need:
                taken.append(batch)
                need -= len(batch)
            else:
                taken.append(batch.slice(0, need))
                self._pending.insert(0, batch.slice(need, len(batch)))
                need = 0
        self._sealed.append(self._block_of(taken))
        self._pending_rows -= self.block_size

    def _block_of(self, batches: list[VectorBatch]) -> Block:
        return Block(
            self.schema,
            [
                np.concatenate([batch.arrays[i] for batch in batches])
                for i in range(len(self.schema))
            ],
        )

    def all_blocks(self) -> list[Block]:
        """The sealed blocks, then the pending rows as one tail block."""
        return self.zoned_blocks()[0]

    def zoned_blocks(self) -> tuple[list[Block], ZoneMaps]:
        """:meth:`all_blocks` and their zone maps, read together.

        The tail is cached until the next append and never sealed: a
        read does not change how the partition is blocked.
        """
        with self._lock:
            sealed = len(self._zones)
            if sealed < len(self._sealed):
                self._zones = self._zones + ZoneMaps.of(
                    self._sealed[sealed:], len(self.schema)
                )
            if not self._pending:
                return list(self._sealed), self._zones
            if self._tail is None:
                self._tail = self._block_of(self._pending)
                # Buffer the tail itself, so the next read after an
                # append concatenates two batches, not every insert.
                self._pending = [self._tail.to_batch(self.schema)]
                self._tail_zones = self._zones + ZoneMaps.of(
                    [self._tail], len(self.schema)
                )
            return [*self._sealed, self._tail], self._tail_zones

    def nominal_bytes(self) -> int:
        sealed = sum(block.nominal_bytes() for block in self._sealed)
        pending = sum(batch.nominal_bytes() for batch in self._pending)
        return sealed + pending
