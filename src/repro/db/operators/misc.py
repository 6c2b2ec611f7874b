"""Small utility operators: LIMIT, UNION ALL, VALUES."""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.db.column import BLOCK_SIZE
from repro.db.operators.base import (
    ExecutionContext,
    PhysicalOperator,
    UnaryOperator,
)
from repro.db.schema import Schema
from repro.db.vector import VectorBatch
from repro.errors import ExecutionError


class LimitOperator(UnaryOperator):
    """Emits at most *limit* rows, then stops pulling from its child."""

    def __init__(
        self,
        context: ExecutionContext,
        child: PhysicalOperator,
        limit: int,
        offset: int = 0,
    ):
        super().__init__(context, child.schema, child)
        if limit < 0 or offset < 0:
            raise ExecutionError("LIMIT/OFFSET must be non-negative")
        self.limit = limit
        self.offset = offset

    @property
    def ordering(self) -> tuple[str, ...]:
        return self.child.ordering

    def _produce(self) -> Iterator[VectorBatch]:
        to_skip = self.offset
        remaining = self.limit
        for batch in self.child.next_batches():
            if to_skip >= len(batch):
                to_skip -= len(batch)
                continue
            if to_skip:
                batch = batch.slice(to_skip, len(batch))
                to_skip = 0
            if remaining <= 0:
                return
            if len(batch) > remaining:
                batch = batch.slice(0, remaining)
            remaining -= len(batch)
            yield batch
            if remaining == 0:
                return

    def describe(self) -> str:
        return f"Limit({self.limit}, offset={self.offset})"


class UnionAll(PhysicalOperator):
    """Concatenates the outputs of its children (bag union)."""

    def __init__(
        self, context: ExecutionContext, inputs: list[PhysicalOperator]
    ):
        if not inputs:
            raise ExecutionError("UNION ALL needs at least one input")
        schema = inputs[0].schema
        for child in inputs[1:]:
            if child.schema.types != schema.types:
                raise ExecutionError("UNION ALL inputs have different types")
        super().__init__(context, schema)
        self.inputs = list(inputs)

    def open(self) -> None:
        super().open()
        for child in self.inputs:
            child.open()

    def close(self) -> None:
        for child in self.inputs:
            child.close()
        super().close()

    def children(self) -> list[PhysicalOperator]:
        return self.inputs

    def _produce(self) -> Iterator[VectorBatch]:
        for child in self.inputs:
            for batch in child.next_batches():
                yield batch.with_schema(self.schema)

    def describe(self) -> str:
        return f"UnionAll({len(self.inputs)} inputs)"


class ValuesOperator(PhysicalOperator):
    """Emits a fixed list of literal rows (INSERT ... VALUES source)."""

    def __init__(
        self, context: ExecutionContext, schema: Schema, rows: list[tuple]
    ):
        super().__init__(context, schema)
        self.rows = list(rows)

    def _produce(self) -> Iterator[VectorBatch]:
        for start in range(0, len(self.rows), BLOCK_SIZE):
            chunk = self.rows[start : start + BLOCK_SIZE]
            arrays = []
            for position, column in enumerate(self.schema):
                values = [row[position] for row in chunk]
                dtype = column.sql_type.numpy_dtype
                if dtype == np.dtype(object):
                    array = np.array(values, dtype=object)
                else:
                    array = np.asarray(values, dtype=dtype)
                arrays.append(array)
            yield VectorBatch(self.schema, arrays)

    def describe(self) -> str:
        return f"Values({len(self.rows)} rows)"


class RenameOperator(UnaryOperator):
    """Zero-cost relabelling of the child's columns.

    The planner uses this to qualify FROM-item columns with their
    binding name ("alias.column") so that joined relations keep unique
    column names.
    """

    morsel_streaming = True

    def __init__(
        self,
        context: ExecutionContext,
        child: PhysicalOperator,
        names: list[str],
    ):
        super().__init__(context, child.schema.rename_all(names), child)

    @property
    def ordering(self) -> tuple[str, ...]:
        renamed = {
            old.lower(): new
            for old, new in zip(self.child.schema.names, self.schema.names)
        }
        return tuple(renamed[name.lower()] for name in self.child.ordering)

    def _produce(self) -> Iterator[VectorBatch]:
        for batch in self.child.next_batches():
            yield batch.with_schema(self.schema)

    def describe(self) -> str:
        return f"Rename({', '.join(self.schema.names)})"
