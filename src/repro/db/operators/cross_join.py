"""Cross join (Cartesian product).

ML-To-SQL's input function cross-joins the fact table with the handful
of input-layer edges of the model (paper Listings 2/3); the right side
is therefore expected to be small and is materialized.  The product is
emitted left-major — every left row's combinations are contiguous — so
the left child's ordering property is preserved.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.db.column import BLOCK_SIZE
from repro.db.operators.base import (
    BinaryOperator,
    ExecutionContext,
    PhysicalOperator,
)
from repro.db.vector import VectorBatch, concat_batches


class CrossJoin(BinaryOperator):
    """Cartesian product; right side materialized."""

    # the materialized right side, made by _produce
    _right_batch: VectorBatch | None = None
    _accounted_bytes = 0

    def __init__(
        self,
        context: ExecutionContext,
        left: PhysicalOperator,
        right: PhysicalOperator,
    ):
        super().__init__(context, left.schema.concat(right.schema), left, right)

    @property
    def ordering(self) -> tuple[str, ...]:
        return self.left.ordering

    def _produce(self) -> Iterator[VectorBatch]:
        self._right_batch = concat_batches(
            self.right.schema, list(self.right.next_batches())
        )
        self._accounted_bytes = self._right_batch.nominal_bytes()
        self.context.memory.allocate(self._accounted_bytes, "join-build")
        right_rows = len(self._right_batch)
        if right_rows == 0:
            return
        right_cycle = np.arange(right_rows, dtype=np.int64)
        for batch in self.left.next_batches():
            if len(batch) == 0:
                continue
            left_indices = np.repeat(
                np.arange(len(batch), dtype=np.int64), right_rows
            )
            right_indices = np.tile(right_cycle, len(batch))
            product = batch.take(left_indices).concat_columns(
                self._right_batch.take(right_indices)
            )
            yield from product.pieces(BLOCK_SIZE)

    def close(self) -> None:
        if self._accounted_bytes:
            self.context.memory.release(self._accounted_bytes, "join-build")
            self._accounted_bytes = 0
        self._right_batch = None
        super().close()

    def describe(self) -> str:
        return "CrossJoin"
