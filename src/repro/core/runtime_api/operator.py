"""The runtime-API inference operator (TF_CAPI of the evaluation).

A regular unary operator: per input vector it converts the prediction
columns to the runtime's row-major layout, invokes the runtime session
and converts the result back.  The model itself is loaded into the
runtime once (weights move to the device at load time), so unlike the
native ModelJoin there is no relational build phase — the model comes
from the framework object, which is exactly why this approach stays
generic across model types (paper Section 6.3 / Table 2).
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.core.runtime_api.conversion import (
    columnar_to_row_major,
    row_major_to_columnar,
)
from repro.db.operators.base import (
    ExecutionContext,
    PhysicalOperator,
    UnaryOperator,
)
from repro.db.schema import Column, Schema
from repro.db.types import SqlType
from repro.db.vector import VectorBatch
from repro.device.base import Device
from repro.errors import ModelJoinError
from repro.nn.model import Sequential
from repro.nn.runtime import MlRuntime


class RuntimeApiOperator(UnaryOperator):
    """child (input flow) -> child columns + runtime predictions."""

    # per-vector inference with no cross-pipeline coupling: safe to
    # feed from a shared morsel queue
    morsel_streaming = True

    def __init__(
        self,
        context: ExecutionContext,
        child: PhysicalOperator,
        model: Sequential,
        input_columns: list[str],
        output_prefix: str = "prediction",
        device: Device | None = None,
        runtime: MlRuntime | None = None,
    ):
        if len(input_columns) != model.input_width:
            raise ModelJoinError(
                f"model expects {model.input_width} input columns, "
                f"got {len(input_columns)}"
            )
        for name in input_columns:
            child.schema.position_of(name)
        prediction_columns = tuple(
            Column(f"{output_prefix}_{index}", SqlType.FLOAT)
            for index in range(model.output_width)
        )
        super().__init__(
            context, Schema(child.schema.columns + prediction_columns), child
        )
        self.model = model
        self.input_columns = list(input_columns)
        self.runtime = runtime or MlRuntime(device)
        self._handle: int | None = None
        self._accounted_bytes = 0

    @property
    def ordering(self) -> tuple[str, ...]:
        return self.child.ordering

    def open(self) -> None:
        super().open()
        self.runtime.device.set_tracer(self.context.tracer)
        with self.context.stopwatch.measure("runtime-load"):
            with self.context.tracer.span(
                "runtime-load",
                category="phase",
                parent_id=self._span_id,
            ):
                self._handle = self.runtime.load_model(self.model)
        # The runtime holds the framework graph plus the device copy of
        # the weights, and some fixed session state — the "slightly
        # higher fixed memory" the paper observes for TF(C-API) in
        # Table 3 relative to the native operator.
        session_fixed_bytes = 256 * 1024
        self._accounted_bytes = (
            2 * 4 * self.model.parameter_count() + session_fixed_bytes
        )
        self.context.memory.allocate(self._accounted_bytes, "runtime-model")

    def _produce(self) -> Iterator[VectorBatch]:
        tracer = self.context.tracer
        prediction_schema = Schema(
            self.schema.columns[len(self.child.schema) :]
        )
        for input_batch in self.child.next_batches():
            # The runtime is invoked once per vector, as in the paper.
            for batch in input_batch.pieces(self.context.vector_size):
                if tracer.enabled:
                    with tracer.span(
                        "runtime-infer",
                        category="phase",
                        parent_id=self._span_id,
                        args={"rows": len(batch)},
                    ):
                        yield self._infer_batch(prediction_schema, batch)
                else:
                    yield self._infer_batch(prediction_schema, batch)

    def _infer_batch(
        self, prediction_schema: Schema, batch: VectorBatch
    ) -> VectorBatch:
        stopwatch = self.context.stopwatch
        with stopwatch.measure("runtime-convert"):
            buffer = columnar_to_row_major(
                [batch.column(name) for name in self.input_columns]
            )
        transient = buffer.array.nbytes
        self.context.memory.allocate(transient, "runtime-vector")
        try:
            with stopwatch.measure("runtime-infer"):
                result = self.runtime.run(self._handle, buffer)
            with stopwatch.measure("runtime-convert"):
                columns = row_major_to_columnar(result)
        finally:
            self.context.memory.release(transient, "runtime-vector")
        predictions = VectorBatch(prediction_schema, columns)
        return batch.concat_columns(predictions)

    def close(self) -> None:
        if self._handle is not None:
            self.runtime.unload(self._handle)
            self._handle = None
        if self._accounted_bytes:
            self.context.memory.release(
                self._accounted_bytes, "runtime-model"
            )
            self._accounted_bytes = 0
        super().close()

    def describe(self) -> str:
        return (
            f"RuntimeApi(device={self.runtime.device.name}, "
            f"inputs=[{', '.join(self.input_columns)}])"
        )
