"""Grouped aggregation: hash-based and order-based.

The hash aggregate is the generic strategy: it materializes its input
(a pipeline breaker with memory proportional to the input), groups it
with :func:`~repro.db.operators.keys.group_order` (a counting pass over
a small composite key domain, one sort of an int64 composite key, or a
lexsort of the key codes when that would overflow) and reduces each
group with ``ufunc.reduceat``.  Groups come out in key code order:
integers by value, VARCHAR lexicographically, floats by their IEEE bit
pattern — so every NaN bit pattern is a group of its own, in a VARCHAR +
float key as much as in a numeric one.

Every aggregate operator evaluates its group keys and each distinct
argument once per batch with one input kernel (:func:`input_outputs`;
generated, or interpreted — see :mod:`repro.db.compile`), into which
the lowering fuses the filter below: ``SUM(v), COUNT(v), AVG(v)``
materializes and gathers ``v`` once and reduces it with one
``np.add.reduceat``, and ``COUNT`` is the group size, so it evaluates
nothing.  Input from a scan arrives in one batch per block; an input
kernel that calls a UDF still calls it once per vector.

The order-based aggregate is the optimization of paper Section 4.4: if
the input is already sorted on the group keys it emits a group the
moment its key changes, holding only constant state — this is what
makes the ML-To-SQL pipeline fully streaming and low-memory.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import reduce

import numpy as np

from repro.db.compile.kernels import (
    FusedKernel,
    InterpretedKernel,
    KernelOutput,
    KernelSpec,
)
from repro.db.column import BLOCK_SIZE
from repro.db.expressions import BinaryOp, ColumnRef, Expression, Literal
from repro.db.operators.base import (
    ExecutionContext,
    PhysicalOperator,
    UnaryOperator,
)
from repro.db.operators.keys import equality_codes, group_order, run_starts
from repro.db.schema import Column, Schema
from repro.db.types import SqlType
from repro.db.vector import VectorBatch, concat_batches
from repro.errors import PlanError

_SUPPORTED = ("SUM", "COUNT", "MIN", "MAX", "AVG")

#: the ufunc that reduces a group's values, or merges two partials
_REDUCERS = {
    "SUM": np.add,
    "COUNT": np.add,
    "AVG": np.add,
    "MIN": np.minimum,
    "MAX": np.maximum,
}


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate of the SELECT list, e.g. ``SUM(x * w) AS s``."""

    function: str
    argument: Expression | None
    name: str

    def __post_init__(self) -> None:
        function = self.function.upper()
        if function not in _SUPPORTED:
            raise PlanError(f"unsupported aggregate function {self.function}")
        if function != "COUNT" and self.argument is None:
            raise PlanError(f"{function} requires an argument")
        object.__setattr__(self, "function", function)

    def output_type(self, input_schema: Schema) -> SqlType:
        if self.function == "COUNT":
            return SqlType.INTEGER
        argument_type = self.argument.output_type(input_schema)
        if self.function == "AVG":
            return SqlType.DOUBLE
        if not argument_type.is_numeric and self.function == "SUM":
            raise PlanError("SUM requires a numeric argument")
        return argument_type

    def __str__(self) -> str:
        inner = "*" if self.argument is None else str(self.argument)
        return f"{self.function}({inner})"


def _output_schema(
    input_schema: Schema,
    group_expressions: list[Expression],
    group_names: list[str],
    aggregates: list[AggregateSpec],
) -> Schema:
    columns = [
        Column(name, expression.output_type(input_schema))
        for expression, name in zip(group_expressions, group_names)
    ]
    columns.extend(
        Column(spec.name, spec.output_type(input_schema))
        for spec in aggregates
    )
    return Schema(tuple(columns))


def _argument_key(argument: Expression) -> tuple:
    """*argument* with the statement slots of its literals.

    A cached plan re-instantiates every literal slot with its own value,
    so two arguments share one input only when they are equal and read
    the same slots — the kernel layout must not depend on the values.
    """
    slots: list = []

    def visit(node) -> None:
        if isinstance(node, Literal):
            slots.append(node.slot)
        elif isinstance(node, tuple):
            for item in node:
                visit(item)
        elif isinstance(node, Expression):
            for value in vars(node).values():
                visit(value)

    visit(argument)
    return argument, tuple(slots)


def aggregate_inputs(
    aggregates: list[AggregateSpec],
) -> tuple[list[AggregateSpec], list[int | None]]:
    """The aggregates whose argument an aggregate operator evaluates —
    the first one of each distinct argument, in the order of its input
    arrays and of its compiled kernel's outputs — and each aggregate's
    position among them (None for COUNT, which is the group size)."""
    inputs: list[AggregateSpec] = []
    positions: dict[tuple, int] = {}
    slots: list[int | None] = []
    for spec in aggregates:
        if spec.function == "COUNT":
            slots.append(None)
            continue
        key = _argument_key(spec.argument)
        if key not in positions:
            positions[key] = len(inputs)
            inputs.append(spec)
        slots.append(positions[key])
    return inputs, slots


def _nbytes(arrays: list[np.ndarray]) -> int:
    """Accounted size of buffered arrays (16 bytes per VARCHAR value)."""
    return sum(
        array.nbytes if array.dtype != object else len(array) * 16
        for array in arrays
    )


def input_outputs(
    group_expressions: list[Expression],
    group_names: list[str],
    aggregates: list[AggregateSpec],
) -> tuple[KernelOutput, ...]:
    """The outputs of an aggregate's input kernel: the group keys, then
    each argument the aggregate evaluates (:func:`aggregate_inputs`),
    raw — the aggregate coerces after reduction."""
    outputs = [
        KernelOutput(name, expression)
        for expression, name in zip(group_expressions, group_names)
    ]
    outputs.extend(
        KernelOutput(spec.name, spec.argument)
        for spec in aggregate_inputs(aggregates)[0]
    )
    return tuple(outputs)


def _input_kernel(operator, child, kernel):
    """*kernel*, or the interpreted kernel of the operator's inputs."""
    if kernel is not None:
        return kernel
    outputs = input_outputs(
        operator.group_expressions, operator.group_names, operator.aggregates
    )
    return InterpretedKernel(
        KernelSpec(child.schema, outputs=outputs, label="aggregate-input")
    )


def _inputs(operator) -> Iterator[tuple[list, list]]:
    """Group-key and aggregate-argument arrays of each input-kernel call
    over the operator's input (one per batch, or per vector when the
    kernel calls a UDF); calls whose fused filter dropped every row
    yield nothing."""
    split = len(operator.group_expressions)
    context = operator.context
    for batch in operator.child.next_batches():
        for arrays in operator.kernel.outputs(
            batch, context.vector_size, context.query.cancellation
        ):
            yield arrays[:split], arrays[split:]


def _describe_fusion(operator) -> str:
    """Suffix describing the input kernel, for EXPLAIN."""
    predicates = operator.kernel.spec.predicates
    fused = ""
    if predicates:
        conjunction = reduce(
            lambda left, right: BinaryOp("AND", left, right), predicates
        )
        fused = f"fused filter: {conjunction}"
    if not operator.kernel.generated:
        return f" [{fused}]" if fused else ""
    return f" [compiled input | {fused}]" if fused else " [compiled input]"


def _partials(
    operator, columns: list[np.ndarray], starts: np.ndarray, counts
) -> list[np.ndarray]:
    """Each aggregate reduced over the segments beginning at *starts*.

    *columns* are the operator's input arrays; COUNT is *counts* and AVG
    its SUM (the caller divides), and each (ufunc, input) pair is
    reduced once however many aggregates use it.
    """
    reduced: dict[tuple, np.ndarray] = {}
    partials = []
    for spec, slot in zip(operator.aggregates, operator.input_slots):
        if slot is None:
            partials.append(counts)
            continue
        ufunc = _REDUCERS[spec.function]
        key = (ufunc, slot)
        if key not in reduced:
            reduced[key] = ufunc.reduceat(columns[slot], starts)
        partials.append(reduced[key])
    return partials


def _grouped_batch(
    operator, keys: list[np.ndarray], values: list[np.ndarray]
) -> VectorBatch:
    """Group non-empty *keys* and reduce *values* (the operator's input
    arrays) per group: one output row per group, in
    :func:`group_order`'s order."""
    order, starts = group_order(keys)
    counts = np.diff(np.append(starts, len(order)))
    firsts = order[starts]
    arrays: list[np.ndarray] = [key[firsts] for key in keys]
    partials = _partials(
        operator, [column[order] for column in values], starts, counts
    )
    for spec, reduced in zip(operator.aggregates, partials):
        if spec.function == "AVG":
            reduced = reduced.astype(np.float64) / counts
        arrays.append(reduced)
    return VectorBatch(
        operator.schema,
        [
            array.astype(column.sql_type.numpy_dtype, copy=False)
            for array, column in zip(arrays, operator.schema)
        ],
    )


def _row(columns: list[np.ndarray], index: int) -> tuple:
    return tuple(column[index] for column in columns)


class HashAggregate(UnaryOperator):
    """Generic grouped aggregation; materializes its input."""

    def __init__(
        self,
        context: ExecutionContext,
        child: PhysicalOperator,
        group_expressions: list[Expression],
        group_names: list[str],
        aggregates: list[AggregateSpec],
        kernel: FusedKernel | InterpretedKernel | None = None,
    ):
        if not group_expressions:
            raise PlanError("global aggregation uses group keys = ()")
        schema = _output_schema(
            child.schema, group_expressions, group_names, aggregates
        )
        super().__init__(context, schema, child)
        self.group_expressions = list(group_expressions)
        self.group_names = list(group_names)
        self.aggregates = list(aggregates)
        self.inputs, self.input_slots = aggregate_inputs(self.aggregates)
        self.kernel = _input_kernel(self, child, kernel)
        self._accounted_bytes = 0

    def _produce(self) -> Iterator[VectorBatch]:
        key_chunks: list[list[np.ndarray]] = [
            [] for _ in self.group_expressions
        ]
        value_chunks: list[list[np.ndarray]] = [[] for _ in self.inputs]
        for keys, values in _inputs(self):
            for chunks, array in zip(key_chunks, keys):
                chunks.append(array)
            for chunks, array in zip(value_chunks, values):
                chunks.append(array)
            nbytes = _nbytes(keys) + _nbytes(values)
            self._accounted_bytes += nbytes
            self.context.memory.allocate(nbytes, "aggregation")
        if not key_chunks[0]:
            return
        keys = [np.concatenate(chunks) for chunks in key_chunks]
        if len(keys[0]) == 0:
            return
        values = [np.concatenate(chunks) for chunks in value_chunks]
        result = _grouped_batch(self, keys, values)
        yield from result.pieces(BLOCK_SIZE)

    def close(self) -> None:
        if self._accounted_bytes:
            self.context.memory.release(self._accounted_bytes, "aggregation")
            self._accounted_bytes = 0
        super().close()

    def describe(self) -> str:
        keys = ", ".join(map(str, self.group_expressions))
        aggs = ", ".join(str(spec) for spec in self.aggregates)
        return (
            f"HashAggregate(by [{keys}] compute [{aggs}])"
            f"{_describe_fusion(self)}"
        )


class OrderedAggregate(UnaryOperator):
    """Streaming aggregation over input sorted by the group keys.

    Only legal when the child's ordering starts with the group key
    columns (the planner checks this).  Group keys must be bare column
    references.  Memory is constant: one open group.
    """

    def __init__(
        self,
        context: ExecutionContext,
        child: PhysicalOperator,
        group_expressions: list[Expression],
        group_names: list[str],
        aggregates: list[AggregateSpec],
        kernel: FusedKernel | InterpretedKernel | None = None,
    ):
        for expression in group_expressions:
            if not isinstance(expression, ColumnRef):
                raise PlanError(
                    "order-based aggregation requires bare column group keys"
                )
        key_names = {
            expression.name.lower() for expression in group_expressions
        }
        child_order = tuple(name.lower() for name in child.ordering)
        # The first len(keys) ordering columns must be exactly the group
        # keys (their relative order is irrelevant: rows of one group are
        # contiguous either way).
        if set(child_order[: len(key_names)]) != key_names:
            raise PlanError(
                f"input ordering {child.ordering} does not cover group "
                f"keys {sorted(key_names)}; use HashAggregate"
            )
        schema = _output_schema(
            child.schema, group_expressions, group_names, aggregates
        )
        super().__init__(context, schema, child)
        self.group_expressions = list(group_expressions)
        self.group_names = list(group_names)
        self.aggregates = list(aggregates)
        self.inputs, self.input_slots = aggregate_inputs(self.aggregates)
        self.kernel = _input_kernel(self, child, kernel)

    @property
    def ordering(self) -> tuple[str, ...]:
        return tuple(self.group_names)

    def _produce(self) -> Iterator[VectorBatch]:
        pending_key_rows: list | None = None
        pending_key = None
        pending_partials: list = []
        pending_count = 0

        for keys, values in _inputs(self):
            codes = equality_codes(keys)
            starts = run_starts(codes)
            counts = np.diff(np.append(starts, len(codes[0])))
            partials = _partials(self, values, starts, counts)
            segment_keys = [key[starts] for key in keys]
            merged_row: list | None = None
            first = 0
            if pending_key is not None and _row(codes, 0) == pending_key:
                # The open group continues into this batch: fold in the
                # first segment.
                # ufuncs, not min()/max(): a NaN must win in any order
                pending_partials = [
                    _REDUCERS[spec.function](old, new[:1])
                    for spec, old, new in zip(
                        self.aggregates, pending_partials, partials
                    )
                ]
                pending_count += int(counts[0])
                first = 1
                if len(starts) > 1:
                    # More segments follow, so the merged group is done.
                    merged_row = self._finish_group(
                        pending_key_rows, pending_partials, pending_count
                    )
                    pending_key = None
            elif pending_key is not None:
                merged_row = self._finish_group(
                    pending_key_rows, pending_partials, pending_count
                )
                pending_key = None
            # Segments [first, last) are complete within the batch: emit
            # them as one array slice (no per-group Python work).
            last = len(starts) - 1
            complete = self._segments_to_batch(
                segment_keys, partials, counts, first, last, merged_row
            )
            if complete is not None:
                yield complete
            if last >= first:
                pending_key_rows = [key[last] for key in segment_keys]
                pending_partials = [
                    column[last:last + 1] for column in partials
                ]
                pending_count = int(counts[last])
                pending_key = _row(codes, starts[last])
        if pending_key is not None:
            final = self._finish_group(
                pending_key_rows, pending_partials, pending_count
            )
            yield self._rows_to_batch([final])

    def _segments_to_batch(
        self,
        segment_keys: list[np.ndarray],
        partials: list[np.ndarray],
        counts: np.ndarray,
        first: int,
        last: int,
        merged_row: list | None,
    ) -> VectorBatch | None:
        """Completed segments [first, last) (+ one merged boundary row)
        as a single output batch, built with array slicing."""
        if first >= last and merged_row is None:
            return None
        arrays: list[np.ndarray] = []
        slot = 0
        for key in segment_keys:
            arrays.append(key[first:last])
            slot += 1
        for spec, column in zip(self.aggregates, partials):
            values = column[first:last]
            if spec.function == "AVG":
                values = values.astype(np.float64) / counts[first:last]
            arrays.append(values)
        result = VectorBatch(
            self.schema,
            [
                array.astype(column.sql_type.numpy_dtype, copy=False)
                if array.dtype != np.dtype(object)
                else array
                for array, column in zip(arrays, self.schema)
            ],
        )
        if merged_row is not None:
            merged = self._rows_to_batch([merged_row])
            # The merged boundary group precedes this batch's segments.
            result = concat_batches(self.schema, [merged, result])
        return result

    def _finish_group(self, key_row: list, partials: list, count: int) -> list:
        """One output row; *partials* are one-element arrays."""
        row = list(key_row)
        for spec, partial in zip(self.aggregates, partials):
            if spec.function == "AVG":
                row.append(float(partial[0]) / count)
            else:
                row.append(partial[0])
        return row

    def _rows_to_batch(self, rows: list[list]) -> VectorBatch:
        arrays = []
        for position, column in enumerate(self.schema):
            values = [row[position] for row in rows]
            if column.sql_type.numpy_dtype == np.dtype(object):
                array = np.array(values, dtype=object)
            else:
                array = np.asarray(
                    values, dtype=column.sql_type.numpy_dtype
                )
            arrays.append(array)
        return VectorBatch(self.schema, arrays)

    def describe(self) -> str:
        keys = ", ".join(map(str, self.group_expressions))
        aggs = ", ".join(str(spec) for spec in self.aggregates)
        return (
            f"OrderedAggregate(by [{keys}] compute [{aggs}])"
            f"{_describe_fusion(self)}"
        )


class SegmentedAggregate(UnaryOperator):
    """Partially ordered aggregation (paper Section 4.4's pipelining).

    When the input is sorted by a *prefix* of the group keys (the fact
    table's unique ID in ModelJoin queries) but not by all of them, a
    fully streaming aggregate is impossible — yet the pipeline does not
    have to break: rows of one prefix value are contiguous, so the
    operator buffers only the *current segment* (one ID's rows — a few
    hundred values for the paper's models) and hash-aggregates each
    segment as it closes.  "The aggregation does not need the full
    dataset, leading to a low memory footprint and pipelined
    execution."

    The prefix keys must be the leading group keys and bare columns;
    the planner arranges both.
    """

    def __init__(
        self,
        context: ExecutionContext,
        child: PhysicalOperator,
        group_expressions: list[Expression],
        group_names: list[str],
        aggregates: list[AggregateSpec],
        prefix_length: int,
        kernel: FusedKernel | InterpretedKernel | None = None,
    ):
        if not 0 < prefix_length <= len(group_expressions):
            raise PlanError("invalid segmented-aggregation prefix length")
        for expression in group_expressions[:prefix_length]:
            if not isinstance(expression, ColumnRef):
                raise PlanError(
                    "segmented aggregation needs bare-column prefix keys"
                )
        prefix_names = {
            expression.name.lower()
            for expression in group_expressions[:prefix_length]
        }
        child_order = tuple(name.lower() for name in child.ordering)
        if set(child_order[:prefix_length]) != prefix_names:
            raise PlanError(
                f"input ordering {child.ordering} does not cover the "
                f"prefix keys {sorted(prefix_names)}"
            )
        schema = _output_schema(
            child.schema, group_expressions, group_names, aggregates
        )
        super().__init__(context, schema, child)
        self.group_expressions = list(group_expressions)
        self.group_names = list(group_names)
        self.aggregates = list(aggregates)
        self.inputs, self.input_slots = aggregate_inputs(self.aggregates)
        self.prefix_length = prefix_length
        self.kernel = _input_kernel(self, child, kernel)

    @property
    def ordering(self) -> tuple[str, ...]:
        # Output is ordered by the prefix keys (segments are emitted in
        # input order); the within-segment order is unspecified.
        return tuple(self.group_names[: self.prefix_length])

    def _produce(self) -> Iterator[VectorBatch]:
        # Only the OPEN tail segment is ever buffered; all segments
        # that close within a batch are aggregated together in one
        # sort+reduceat pass (their prefixes are disjoint, so a single
        # full-key grouping is equivalent to per-segment grouping and
        # avoids a Python round trip per segment).
        buffered_keys: list[list[np.ndarray]] = [
            [] for _ in self.group_expressions
        ]
        buffered_values: list[list[np.ndarray]] = [
            [] for _ in self.inputs
        ]
        buffered_bytes = 0
        pending_prefix = None

        def buffer_slice(
            keys: list[np.ndarray],
            values: list[np.ndarray],
            start: int,
            stop: int,
        ) -> None:
            nonlocal buffered_bytes
            key_slices = [key[start:stop] for key in keys]
            value_slices = [value[start:stop] for value in values]
            for slot, piece in enumerate(key_slices):
                buffered_keys[slot].append(piece)
            for slot, piece in enumerate(value_slices):
                buffered_values[slot].append(piece)
            added = _nbytes(key_slices) + _nbytes(value_slices)
            buffered_bytes += added
            self.context.memory.allocate(added, "aggregation-segment")

        def flush() -> VectorBatch | None:
            nonlocal buffered_bytes
            if not buffered_keys[0]:
                return None
            keys = [np.concatenate(chunks) for chunks in buffered_keys]
            values = [np.concatenate(chunks) for chunks in buffered_values]
            for chunks in buffered_keys:
                chunks.clear()
            for chunks in buffered_values:
                chunks.clear()
            self.context.memory.release(
                buffered_bytes, "aggregation-segment"
            )
            buffered_bytes = 0
            return _grouped_batch(self, keys, values)

        for keys, values in _inputs(self):
            prefix = equality_codes(keys[: self.prefix_length])
            rows = len(prefix[0])
            # Start of the final (still open) segment of this batch.
            boundaries = run_starts(prefix)[1:]
            last_start = int(boundaries[-1]) if len(boundaries) else 0
            # 1. Resolve the carried-over open segment.
            continues = (
                pending_prefix is not None
                and _row(prefix, 0) == pending_prefix
            )
            if continues:
                # Extend the buffer with the first segment's rows.
                first_stop = (
                    int(boundaries[0]) if len(boundaries) else rows
                )
                buffer_slice(keys, values, 0, first_stop)
                closed_start = first_stop
                if first_stop < rows:
                    result = flush()
                    if result is not None:
                        yield result
            else:
                result = flush()
                if result is not None:
                    yield result
                closed_start = 0
            # 2. All segments that both start and end in this batch.
            if closed_start < last_start:
                result = _grouped_batch(
                    self,
                    [key[closed_start:last_start] for key in keys],
                    [
                        value[closed_start:last_start]
                        for value in values
                    ],
                )
                yield result
            # 3. Buffer the open tail segment.
            tail_start = max(last_start, closed_start)
            if tail_start < rows:
                buffer_slice(keys, values, tail_start, rows)
            pending_prefix = _row(prefix, rows - 1)
        final = flush()
        if final is not None:
            yield final

    def describe(self) -> str:
        keys = ", ".join(map(str, self.group_expressions))
        aggs = ", ".join(str(spec) for spec in self.aggregates)
        return (
            f"SegmentedAggregate(prefix={self.prefix_length} "
            f"by [{keys}] compute [{aggs}]){_describe_fusion(self)}"
        )
