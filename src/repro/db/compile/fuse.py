"""The pipeline operator: every filter and projection of a plan.

A :class:`FusedPipeline` runs an adjacent filter→project chain (or a
bare filter, whose outputs are then the pass-through of the child
schema) as one operator that calls one kernel per input batch.  A
generated kernel applies all filter conjuncts with mask narrowing and
computes all outputs in one pass, so per-batch Python interpretation of
the expression trees disappears from the hot loop; an interpreted
kernel (compilation off, or no exact generated form) walks the trees
instead, with the same results.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.db.compile.kernels import FusedKernel, InterpretedKernel
from repro.db.expressions import ColumnRef
from repro.db.operators.base import (
    ExecutionContext,
    PhysicalOperator,
    UnaryOperator,
)
from repro.db.schema import Column, Schema
from repro.db.vector import VectorBatch


class FusedPipeline(UnaryOperator):
    """Filter + projection as one kernel call per batch."""

    morsel_streaming = True

    def __init__(
        self,
        context: ExecutionContext,
        child: PhysicalOperator,
        kernel: FusedKernel | InterpretedKernel,
    ):
        columns = tuple(
            Column(output.name, output.expression.output_type(child.schema))
            for output in kernel.spec.outputs
        )
        super().__init__(context, Schema(columns), child)
        self.kernel = kernel

    @property
    def spec(self):
        return self.kernel.spec

    def open(self) -> None:
        super().open()
        if self.kernel.generated:
            # Marks the query as compiled in its resource profile (the
            # query log's ``compiled`` flag reads this counter).
            self.context.counters.increment("compile.fused_pipelines")

    @property
    def filters_only(self) -> bool:
        """A bare filter: every output passes its child column through."""
        return [
            (output.name, output.expression)
            for output in self.spec.outputs
        ] == [(name, ColumnRef(name)) for name in self.child.schema.names]

    @property
    def ordering(self) -> tuple[str, ...]:
        # Ordering survives for the leading ordering columns that pass
        # through as bare references, possibly renamed (the filter
        # preserves relative row order).
        passthrough: dict[str, str] = {}
        for output in self.spec.outputs:
            if isinstance(output.expression, ColumnRef):
                passthrough.setdefault(
                    output.expression.name.lower(), output.name
                )
        preserved: list[str] = []
        for key in self.child.ordering:
            new_name = passthrough.get(key.lower())
            if new_name is None:
                break
            preserved.append(new_name)
        return tuple(preserved)

    def _produce(self) -> Iterator[VectorBatch]:
        outputs = self.kernel.outputs
        vector_size = self.context.vector_size
        cancellation = self.context.query.cancellation
        for batch in self.child.next_batches():
            for arrays in outputs(batch, vector_size, cancellation):
                yield VectorBatch(self.schema, arrays)

    def describe(self) -> str:
        parts = []
        if self.spec.predicates:
            rendered = " AND ".join(
                str(predicate) for predicate in self.spec.predicates
            )
            parts.append(f"filter: {rendered}")
        rendered = ", ".join(
            f"{output.expression} AS {output.name}"
            for output in self.spec.outputs
        )
        parts.append(f"project: {rendered}")
        if self.kernel.generated:
            return f"FusedPipeline({' | '.join(parts)}) [compiled]"
        return f"Pipeline({' | '.join(parts)})"
