"""The unit of vectorized execution: a batch of column vectors.

Mirroring x100's execution model, operators exchange
:class:`VectorBatch` objects — a small set of equally long NumPy arrays,
one per column.  A batch is up to one storage block long (4096 rows):
scans emit the whole ``VECTOR_SIZE`` vectors of a block together.  The
paper's 1024-row vector stays the unit of per-vector calls — a UDF is
called once per vector, the ModelJoin builds its inference batches of
whole vectors.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.db.schema import Schema
from repro.errors import ExecutionError

#: Default number of tuples per execution vector (paper Section 6.1);
#: the one place the default is stated.
VECTOR_SIZE = 1024


@dataclass
class VectorBatch:
    """A horizontal slice of a relation in columnar layout."""

    schema: Schema
    arrays: list[np.ndarray]

    def __post_init__(self) -> None:
        _check_width(self.schema, self.arrays)
        lengths = {len(array) for array in self.arrays}
        if len(lengths) > 1:
            raise ExecutionError(f"ragged batch: column lengths {lengths}")

    @classmethod
    def validated(
        cls, schema: Schema, arrays: list[np.ndarray]
    ) -> "VectorBatch":
        """A batch of *arrays* already known to be equally long (a
        block's, or a validated batch's sliced alike): only their count
        is checked against *schema*, not every length again."""
        _check_width(schema, arrays)
        batch = object.__new__(cls)
        batch.schema = schema
        batch.arrays = arrays
        return batch

    @classmethod
    def empty(cls, schema: Schema) -> "VectorBatch":
        arrays = [
            np.empty(0, dtype=column.sql_type.numpy_dtype)
            for column in schema
        ]
        return cls(schema, arrays)

    @classmethod
    def from_dict(
        cls, schema: Schema, columns: dict[str, np.ndarray]
    ) -> "VectorBatch":
        """Build a batch from named arrays, coercing to storage dtypes."""
        arrays = []
        for column in schema:
            values = np.asarray(columns[column.name])
            arrays.append(
                values.astype(column.sql_type.numpy_dtype, copy=False)
            )
        return cls(schema, arrays)

    def __len__(self) -> int:
        if not self.arrays:
            return 0
        return len(self.arrays[0])

    def column(self, name: str) -> np.ndarray:
        """The array backing the column named *name*."""
        return self.arrays[self.schema.position_of(name)]

    def column_at(self, position: int) -> np.ndarray:
        return self.arrays[position]

    def with_schema(self, schema: Schema) -> "VectorBatch":
        """Same data, different column names (e.g. after aliasing)."""
        return VectorBatch.validated(schema, self.arrays)

    def filter(self, mask: np.ndarray) -> "VectorBatch":
        """Keep only the rows where *mask* is true."""
        if mask.dtype != np.bool_:
            raise ExecutionError("filter mask must be boolean")
        return VectorBatch(self.schema, [array[mask] for array in self.arrays])

    def take(self, indices: np.ndarray) -> "VectorBatch":
        """Gather rows by position (may repeat or reorder rows)."""
        return VectorBatch(
            self.schema, [array[indices] for array in self.arrays]
        )

    def slice(self, start: int, stop: int) -> "VectorBatch":
        return VectorBatch.validated(
            self.schema, [array[start:stop] for array in self.arrays]
        )

    def pieces(self, rows: int) -> Iterator["VectorBatch"]:
        """Consecutive slices of at most *rows* rows; the batch itself
        when it fits, nothing when it is empty."""
        length = len(self)
        if length <= rows:
            if length:
                yield self
            return
        for start in range(0, length, rows):
            yield self.slice(start, start + rows)

    def concat_columns(self, other: "VectorBatch") -> "VectorBatch":
        """Stitch two equally long batches side by side (join output)."""
        if len(self) != len(other):
            raise ExecutionError(
                f"cannot concat batches of {len(self)} and {len(other)} rows"
            )
        return VectorBatch(
            self.schema.concat(other.schema), self.arrays + other.arrays
        )

    def nominal_bytes(self) -> int:
        return nominal_bytes(self.arrays)

    def to_rows(self) -> list[tuple]:
        """Materialize as Python row tuples (result delivery / tests)."""
        if not self.arrays:
            return []
        return list(zip(*(array.tolist() for array in self.arrays)))


def _check_width(schema: Schema, arrays: list[np.ndarray]) -> None:
    if len(arrays) != len(schema):
        raise ExecutionError(
            f"batch has {len(arrays)} arrays for "
            f"{len(schema)} schema columns"
        )


def nominal_bytes(arrays: list[np.ndarray]) -> int:
    """Approximate memory footprint, for the accountant: 16 bytes per
    VARCHAR value."""
    return sum(
        array.nbytes if array.dtype != object else len(array) * 16
        for array in arrays
    )


def concat_batches(schema: Schema, batches: list[VectorBatch]) -> VectorBatch:
    """Vertically concatenate *batches* into one (possibly long) batch."""
    if not batches:
        return VectorBatch.empty(schema)
    arrays = [
        np.concatenate([batch.arrays[i] for batch in batches])
        for i in range(len(schema))
    ]
    return VectorBatch(schema, arrays)


def rebatch(batches: list[VectorBatch], schema: Schema, size: int = VECTOR_SIZE):
    """Yield batches of exactly *size* rows (last one may be shorter).

    Operators that buffer (e.g. aggregation output) use this to restore
    the engine's vector granularity.  Streams with a carry buffer of at
    most ``size - 1`` rows instead of concatenating the whole input, so
    peak memory stays one vector regardless of how many batches arrive
    (*batches* may be any iterable, including a generator).
    """
    if size < 1:
        raise ExecutionError("rebatch size must be positive")
    carry: list[VectorBatch] = []
    carried = 0
    for batch in batches:
        if len(batch) == 0:
            continue
        if not carry and len(batch) == size:
            yield batch  # already aligned: pass through untouched
            continue
        start = 0
        while carried + (len(batch) - start) >= size:
            take = size - carried
            piece = batch.slice(start, start + take)
            if carry:
                carry.append(piece)
                yield concat_batches(schema, carry)
                carry = []
                carried = 0
            else:
                yield piece
            start += take
        if start < len(batch):
            remainder = batch.slice(start, len(batch))
            carry.append(remainder)
            carried += len(remainder)
    if carried:
        yield concat_batches(schema, carry)
