"""Hash (equi-) join.

The build side (by planner convention the *right* child — in ModelJoin
queries this is the small model table) is fully consumed first and its
keys indexed once (:class:`~repro.db.operators.keys.JoinIndex`); each
probe batch is then coded through the build side's dictionaries —
semantically a hash join, with the same memory profile (build side
materialized) and the same pipelining property: probe-side order is
preserved because every probe row's matches are emitted contiguously,
in probe order and in build order within one key.  That preserved
order is what enables the order-based aggregation of paper Section 4.4.
A key pair is coded as its types say, once: an INTEGER paired with a
FLOAT or DOUBLE as float64, NumPy's common type of the two.

A probe batch's matches are (probe row, build row) index pairs
(:meth:`HashJoin._matches`); the join gathers the joined rows from
them, while a :class:`~repro.db.operators.aggregate.GroupJoin` — the
hash aggregate fused with this join — groups the pairs themselves and
gathers only the columns its aggregate reads.
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
from repro.db.operators.keys import JoinIndex, equality_codes
from repro.db.types import SqlType, check_comparable
from repro.db.vector import VectorBatch, concat_batches
from repro.errors import ExecutionError


class HashJoin(BinaryOperator):
    """Inner equi-join; left = probe side, right = build side."""

    # the build side, made by _produce
    _build_batch: VectorBatch | None = None
    _index: JoinIndex | None = None
    _accounted_bytes = 0

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
        self.left_keys = tuple(left_keys)
        self.right_keys = tuple(right_keys)
        self.residual = residual
        as_float = []
        for pair in zip(left_keys, right_keys):
            types = [
                key.output_type(side.schema)
                for key, side in zip(pair, (left, right))
            ]
            check_comparable(*types)
            as_float.append(SqlType.FLOAT in types or SqlType.DOUBLE in types)
        #: per key pair, whether both sides are coded as float64
        self._as_float = tuple(as_float)

    @property
    def ordering(self) -> tuple[str, ...]:
        return self.left.ordering

    def _evaluate(self, expression: Expression, batch: VectorBatch):
        return evaluate_per_vector(
            expression, batch, self.context.vector_size, self.bound.values
        )

    def _key_codes(self, keys, batch: VectorBatch) -> list[np.ndarray]:
        """The key columns of *batch*, coded as the index compares them."""
        columns = [self._evaluate(key, batch) for key in keys]
        return equality_codes(
            [
                column.astype(np.float64, copy=False) if as_float else column
                for column, as_float in zip(columns, self._as_float)
            ]
        )

    def _build(self) -> None:
        """Drain the build (right) side and index its keys."""
        batches = list(self.right.next_batches())
        build = concat_batches(self.right.schema, batches)
        self._build_batch = build
        self._index = JoinIndex(self._key_codes(self.right_keys, build))
        # the index is charged 16 B per build row, whatever its layout
        self._accounted_bytes = build.nominal_bytes() + 16 * len(build)
        self.context.memory.allocate(self._accounted_bytes, "join-build")

    def _matches(self, batch: VectorBatch):
        """``(counts, build_rows)``: each row of the probe *batch*'s
        match count, and the build rows they match in join output order
        (probe order, then build order within a key); None when no row
        matches."""
        return self._index.matches(self._key_codes(self.left_keys, batch))

    def _probe(self, batch: VectorBatch) -> VectorBatch | None:
        matches = self._matches(batch)
        if matches is None:
            return None
        counts, build_indices = matches
        probe_indices = np.repeat(
            np.arange(len(batch), dtype=np.int64), counts
        )
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
        self._index = None
        super().close()

    def condition(self) -> str:
        """The join condition as EXPLAIN shows it: the key pairs, then
        the residual."""
        keys = ", ".join(
            f"{left} = {right}"
            for left, right in zip(
                self.shown(self.left_keys), self.shown(self.right_keys)
            )
        )
        if self.residual is None:
            return keys
        return f"{keys} AND {self.shown(self.residual)}"

    def describe(self) -> str:
        return f"HashJoin({self.condition()})"
