"""Sort operator (pipeline breaker), optionally keeping only the top rows."""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.db.column import BLOCK_SIZE
from repro.db.expressions import ColumnRef
from repro.db.operators.base import (
    ExecutionContext,
    PhysicalOperator,
    UnaryOperator,
)
from repro.db.operators.keys import string_ranks
from repro.db.vector import VectorBatch, concat_batches
from repro.errors import PlanError


def _sort_column(values: np.ndarray, ascending: bool) -> np.ndarray:
    """A numeric column whose ascending order is the wanted key order.

    VARCHAR sorts by its ranks; DESC reverses integer codes with ``~``
    (exact, cannot overflow) and negates floats, so NaN stays last.
    """
    if values.dtype == object:
        values = string_ranks(values)
    if ascending:
        return values
    if values.dtype.kind == "f":
        return -values
    return ~values.astype(np.int64)


class SortOperator(UnaryOperator):
    """Materializes its input and emits it sorted by the given columns.

    With *top* it emits only the first *top* rows of that order (the
    planner sets it for ``ORDER BY … LIMIT``).  Rows tie on all keys in
    input order, so the top rows are exactly a prefix of the full sort.
    """

    #: bytes of the materialized input accounted by _produce
    _accounted_bytes = 0

    def __init__(
        self,
        context: ExecutionContext,
        child: PhysicalOperator,
        keys: list[ColumnRef],
        ascending: list[bool] | None = None,
        top: int | None = None,
    ):
        super().__init__(context, child.schema, child)
        if not keys:
            raise PlanError("ORDER BY requires at least one key")
        for key in keys:
            if not isinstance(key, ColumnRef):
                raise PlanError("ORDER BY keys must be column references")
            child.schema.position_of(key.name)
        self.keys = tuple(keys)
        self.ascending = tuple(ascending or [True] * len(keys))
        self.top = top

    @property
    def ordering(self) -> tuple[str, ...]:
        if all(self.ascending):
            return tuple(key.name for key in self.keys)
        return ()

    def _produce(self) -> Iterator[VectorBatch]:
        whole = concat_batches(self.schema, list(self.child.next_batches()))
        self._accounted_bytes = whole.nominal_bytes()
        self.context.memory.allocate(self._accounted_bytes, "sort")
        if len(whole) == 0 or self.top == 0:
            return
        columns = [
            _sort_column(whole.column(key.name), ascending)
            for key, ascending in zip(self.keys, self.ascending)
        ]
        ordered = whole.take(self._order(columns))
        yield from ordered.pieces(BLOCK_SIZE)

    def _order(self, columns: list[np.ndarray]) -> np.ndarray:
        """Stable sort permutation of the rows (its first *top* only).

        For a top-k, ``np.partition`` finds the k-th value of the first
        key and only the rows ``<=`` it (ties included, in input order)
        are lexsorted.  A NaN k-th value means fewer than k non-NaN
        rows, so that case sorts everything.
        """
        candidates = None
        top = self.top
        if top is not None and top < len(columns[0]):
            first = columns[0]
            kth = np.partition(first, top - 1)[top - 1]
            if not np.isnan(kth):
                candidates = np.flatnonzero(first <= kth)
                columns = [column[candidates] for column in columns]
        # np.lexsort sorts by the *last* key first, so reverse the list.
        order = np.lexsort(columns[::-1])
        if candidates is not None:
            order = candidates[order]
        return order if top is None else order[:top]

    def close(self) -> None:
        if self._accounted_bytes:
            self.context.memory.release(self._accounted_bytes, "sort")
            self._accounted_bytes = 0
        super().close()

    def describe(self) -> str:
        rendered = ", ".join(
            f"{key.name} {'ASC' if ascending else 'DESC'}"
            for key, ascending in zip(self.keys, self.ascending)
        )
        suffix = "" if self.top is None else f" [top {self.top}]"
        return f"Sort({rendered}){suffix}"
