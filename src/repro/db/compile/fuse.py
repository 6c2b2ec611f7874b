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
from repro.db.expressions import ColumnRef, with_values
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
        super().__init__(context, output_schema(kernel.spec), child)
        self.kernel = kernel

    def open(self) -> None:
        super().open()
        if self.kernel.generated:
            # Marks the query as compiled in its resource profile (the
            # query log's ``compiled`` flag reads this counter).
            self.context.counters.increment("compile.fused_pipelines")

    @property
    def ordering(self) -> tuple[str, ...]:
        return passthrough_ordering(self.kernel.spec, self.child.ordering)

    def _produce(self) -> Iterator[VectorBatch]:
        outputs = self.kernel.outputs
        vector_size = self.context.vector_size
        cancellation = self.context.query.cancellation
        for batch in self.child.next_batches():
            for arrays in outputs(batch, vector_size, cancellation):
                yield VectorBatch(self.schema, arrays)

    def describe(self) -> str:
        segment = describe_segment(self.kernel.spec, self.bound.values)
        if self.kernel.generated:
            return f"FusedPipeline({segment}) [compiled]"
        return f"Pipeline({segment})"


def output_schema(spec) -> Schema:
    """The schema of a kernel's outputs."""
    return Schema(
        tuple(
            Column(output.name, output.expression.output_type(spec.schema))
            for output in spec.outputs
        )
    )


def describe_segment(spec, values: tuple | None = None) -> str:
    """``filter: … | project: …`` of a kernel spec with a statement's
    literal *values*, for EXPLAIN."""
    parts = []
    if spec.predicates:
        rendered = " AND ".join(map(str, with_values(spec.predicates, values)))
        parts.append(f"filter: {rendered}")
    rendered = ", ".join(
        f"{with_values(output.expression, values)} AS {output.name}"
        for output in spec.outputs
    )
    parts.append(f"project: {rendered}")
    return " | ".join(parts)


def passthrough_ordering(spec, ordering) -> tuple[str, ...]:
    """What survives of an input *ordering* through a kernel's outputs:
    the leading ordering columns passed through as bare references,
    possibly renamed (a filter preserves relative row order)."""
    passthrough: dict[str, str] = {}
    for output in spec.outputs:
        if isinstance(output.expression, ColumnRef):
            key = output.expression.name.lower()
            passthrough.setdefault(key, output.name)
    preserved: list[str] = []
    for key in ordering:
        new_name = passthrough.get(key.lower())
        if new_name is None:
            break
        preserved.append(new_name)
    return tuple(preserved)
