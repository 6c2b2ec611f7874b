"""Hash (equi-) join.

The build side (by planner convention the *right* child — in ModelJoin
queries this is the small model table) is fully consumed first; the
probe side then streams through.  The implementation codes the build
keys once, sorts them, and answers each probe batch with two
``searchsorted`` calls — semantically a hash join, with the same
memory profile (build side materialized) and the same pipelining
property: probe-side order is preserved because every probe row's
matches are emitted contiguously and in probe order.  That preserved
order is what enables the order-based aggregation of paper Section 4.4.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.db.column import BLOCK_SIZE
from repro.db.expressions import Expression, evaluate_per_vector
from repro.db.operators.base import (
    BinaryOperator,
    ExecutionContext,
    PhysicalOperator,
)
from repro.db.operators.keys import (
    pack_keys,
    pack_keys_slow,
    ranges_to_indices,
    supports_fast_keys,
)
from repro.db.vector import VectorBatch, concat_batches
from repro.errors import ExecutionError


class HashJoin(BinaryOperator):
    """Inner equi-join; left = probe side, right = build side."""

    def __init__(
        self,
        context: ExecutionContext,
        left: PhysicalOperator,
        right: PhysicalOperator,
        left_keys: list[Expression],
        right_keys: list[Expression],
        residual: Expression | None = None,
    ):
        if len(left_keys) != len(right_keys) or not left_keys:
            raise ExecutionError("join needs matching, non-empty key lists")
        super().__init__(context, left.schema.concat(right.schema), left, right)
        self.left_keys = list(left_keys)
        self.right_keys = list(right_keys)
        self.residual = residual
        self._build_batch: VectorBatch | None = None
        self._sorted_keys: np.ndarray | None = None
        self._order: np.ndarray | None = None
        self._fast_keys = True
        self._accounted_bytes = 0

    @property
    def ordering(self) -> tuple[str, ...]:
        return self.left.ordering

    def _evaluate(self, expression: Expression, batch: VectorBatch):
        return evaluate_per_vector(expression, batch, self.context.vector_size)

    def _build(self) -> None:
        """Drain the build (right) side and index its keys."""
        batches = list(self.right.next_batches())
        build = concat_batches(self.right.schema, batches)
        self._build_batch = build
        key_arrays = [self._evaluate(key, build) for key in self.right_keys]
        self._fast_keys = supports_fast_keys(key_arrays)
        if self._fast_keys:
            packed = pack_keys(key_arrays)
        else:
            packed = pack_keys_slow(key_arrays)
        self._order = np.argsort(packed, kind="stable")
        self._sorted_keys = packed[self._order]
        self._accounted_bytes = (
            build.nominal_bytes() + self._sorted_keys.size * 8 * 2
        )
        self.context.memory.allocate(self._accounted_bytes, "join-build")

    def _probe(self, batch: VectorBatch) -> VectorBatch | None:
        key_arrays = [self._evaluate(key, batch) for key in self.left_keys]
        if self._fast_keys:
            packed = pack_keys(key_arrays)
        else:
            packed = pack_keys_slow(key_arrays)
        low = np.searchsorted(self._sorted_keys, packed, side="left")
        high = np.searchsorted(self._sorted_keys, packed, side="right")
        counts = (high - low).astype(np.int64)
        total = int(counts.sum())
        if total == 0:
            return None
        probe_indices = np.repeat(
            np.arange(len(batch), dtype=np.int64), counts
        )
        build_positions = ranges_to_indices(low.astype(np.int64), counts)
        build_indices = self._order[build_positions]
        left_out = batch.take(probe_indices)
        right_out = self._build_batch.take(build_indices)
        joined = left_out.concat_columns(right_out)
        if self.residual is not None:
            mask = self._evaluate(self.residual, joined)
            if mask.dtype != np.bool_:
                raise ExecutionError("join residual predicate is not boolean")
            if not mask.all():
                joined = joined.filter(mask)
        return joined if len(joined) else None

    def _produce(self) -> Iterator[VectorBatch]:
        self._build()
        for batch in self.left.next_batches():
            joined = self._probe(batch)
            if joined is None:
                continue
            # One probe row may match many build rows: cut the output
            # to batches of at most one block.
            yield from joined.pieces(BLOCK_SIZE)

    def close(self) -> None:
        if self._accounted_bytes:
            self.context.memory.release(self._accounted_bytes, "join-build")
            self._accounted_bytes = 0
        self._build_batch = None
        self._sorted_keys = None
        self._order = None
        super().close()

    def describe(self) -> str:
        keys = ", ".join(
            f"{left} = {right}"
            for left, right in zip(self.left_keys, self.right_keys)
        )
        suffix = f" AND {self.residual}" if self.residual is not None else ""
        return f"HashJoin({keys}{suffix})"
