"""Selection operator."""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.db.expressions import Expression
from repro.db.operators.base import ExecutionContext, UnaryOperator
from repro.db.operators.base import PhysicalOperator
from repro.db.vector import VectorBatch
from repro.errors import ExecutionError


class FilterOperator(UnaryOperator):
    """Keeps the rows for which the predicate evaluates to true.

    Selection is order-preserving, so the child's ordering property
    propagates unchanged.
    """

    morsel_streaming = True

    def __init__(
        self,
        context: ExecutionContext,
        child: PhysicalOperator,
        predicate: Expression,
        compiled=None,
    ):
        super().__init__(context, child.schema, child)
        self.predicate = predicate
        #: optional CompiledExpr evaluating the predicate in one
        #: generated call (residual filters the lowering could not fuse
        #: into a FusedPipeline still skip tree interpretation this way)
        self.compiled = compiled

    @property
    def compiled_source(self) -> str | None:
        return None if self.compiled is None else self.compiled.listing

    @property
    def ordering(self) -> tuple[str, ...]:
        return self.child.ordering

    def _produce(self) -> Iterator[VectorBatch]:
        evaluate = (
            self.predicate.evaluate
            if self.compiled is None
            else self.compiled.evaluate
        )
        for batch in self.child.next_batches():
            mask = evaluate(batch)
            if mask.dtype != np.bool_:
                raise ExecutionError(
                    f"WHERE predicate is not boolean: {self.predicate}"
                )
            if mask.all():
                yield batch
            elif mask.any():
                yield batch.filter(mask)

    def describe(self) -> str:
        marker = "" if self.compiled is None else " [compiled]"
        return f"Filter({self.predicate}){marker}"
