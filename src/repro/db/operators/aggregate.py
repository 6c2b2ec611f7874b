"""Grouped aggregation: segment-buffering and order-based.

Every strategy numbers its groups, then reduces each aggregate in one
pass over the rows in input order (:func:`_reduced`): ``SUM``/``AVG``
of FLOAT/DOUBLE accumulate in float64 (``np.bincount`` weights) and
round once to the result type, an INTEGER ``SUM`` is exact in int64 or
raises :class:`~repro.errors.IntegerOverflowError`, ``COUNT`` is the
group size, and ``MIN``/``MAX`` apply their ufunc row by row
(``ufunc.at``; VARCHAR through its ranks).  A group's result therefore
depends on its rows and their order only, never on how a strategy cut
the input, so the strategies agree bit for bit.

:class:`HashAggregate` buffers the rows of its open segment and numbers
their groups with :func:`~repro.db.operators.keys.group_ids` (a
counting pass over a small composite key domain, one sort of an int64
composite key, or a lexsort of the key codes when that would overflow).
With no sorted prefix the open segment is the whole input: the generic
strategy, a pipeline breaker with memory proportional to the input,
whose groups come out in key code order — integers by value, VARCHAR
lexicographically, floats by their IEEE bit pattern, so every NaN bit
pattern is a group of its own.  With the input sorted by k leading
group keys (paper Section 4.4's pipelining) a segment closes at each
new prefix value, and segments leave in input order.

Every aggregate operator evaluates its group keys and each distinct
argument once per batch with one input kernel (:func:`input_outputs`;
generated, or interpreted — see :mod:`repro.db.compile`), into which
the lowering fuses the filter below: ``SUM(v), COUNT(v), AVG(v)``
materializes ``v`` once and reduces it once, and ``COUNT`` evaluates
nothing.  Input from a scan arrives in one batch per block; an input
kernel that calls a UDF still calls it once per vector.

The order-based aggregate is the optimization of paper Section 4.4: if
the input is already sorted on all group keys it emits a group the
moment its key changes, holding only that group's rows — this is what
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
from repro.db.operators.keys import (
    Groups,
    equality_codes,
    group_ids,
    run_starts,
)
from repro.db.schema import Column, Schema
from repro.db.types import SqlType
from repro.db.vector import VectorBatch, nominal_bytes
from repro.errors import IntegerOverflowError, PlanError

_SUPPORTED = ("SUM", "COUNT", "MIN", "MAX", "AVG")

#: an INTEGER group is summed again exactly when its float64 shadow — the
#: sum of its values' magnitudes, which bounds its sum and rounds far
#: less than a factor of two — reaches this
_SUM_RECHECK = 2.0**62


def _checked_sum(totals, values, ids) -> None:
    """Raise :class:`IntegerOverflowError` when a group's true sum of
    the integer *values* leaves int64 (*totals* hold it wrapped)."""
    bound = max(-int(values.min()), int(values.max())) * len(values)
    if bound < _SUM_RECHECK:  # no group can reach the limit
        return
    shadow = np.bincount(
        ids, weights=np.abs(values.astype(np.float64)),
        minlength=len(totals),
    )
    for group in np.flatnonzero(shadow >= _SUM_RECHECK):
        total = sum(map(int, values[ids == group]))
        if total != int(totals[group]):
            raise IntegerOverflowError(
                f"integer SUM {total} is outside the INTEGER (int64) range"
            )


def _sum(values: np.ndarray, groups: Groups) -> np.ndarray:
    """Per-group sums: float64 for floats, accumulated in row order;
    exact int64 (or an :class:`IntegerOverflowError`) for integers."""
    if values.dtype.kind == "f":
        return np.bincount(
            groups.ids, weights=values, minlength=len(groups.firsts)
        )
    totals = np.zeros(len(groups.firsts), dtype=np.int64)
    np.add.at(totals, groups.ids, values)
    if values.dtype.kind != "b":
        _checked_sum(totals, values, groups.ids)
    return totals


def _extreme(ufunc):
    """A MIN / MAX reduction: *ufunc* applied in row order, from each
    group's first row (VARCHAR: over the values' ranks)."""

    def extreme(values: np.ndarray, groups: Groups) -> np.ndarray:
        if values.dtype == object:
            distinct, ranks = np.unique(values, return_inverse=True)
            return distinct[extreme(ranks, groups)]
        accumulator = values[groups.firsts]
        with np.errstate(invalid="ignore"):  # NaN is a MIN like any other
            ufunc.at(accumulator, groups.ids, values)
        return accumulator

    return extreme


#: the per-group reduction of each function (COUNT is the group size,
#: AVG its SUM divided by it)
_REDUCERS = {
    "SUM": _sum,
    "AVG": _sum,
    "MIN": _extreme(np.minimum),
    "MAX": _extreme(np.maximum),
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
    predicates = operator.shown(operator.kernel.spec.predicates)
    fused = ""
    if predicates:
        conjunction = reduce(
            lambda left, right: BinaryOp("AND", left, right), predicates
        )
        fused = f"fused filter: {conjunction}"
    if not operator.kernel.generated:
        return f" [{fused}]" if fused else ""
    return f" [compiled input | {fused}]" if fused else " [compiled input]"


def _reduced(
    operator,
    keys: list[np.ndarray],
    values: list[np.ndarray],
    groups: Groups,
) -> VectorBatch:
    """One output row per group: the *keys* of its first row, then each
    aggregate reduced over the rows ``groups.ids`` numbers, in input row
    order — the one reduction of every strategy, so they agree bit for
    bit.  *values* are the operator's input arrays; COUNT is the group
    size and AVG its SUM divided by it, and each (reduction, input) pair
    is reduced once however many aggregates use it."""
    arrays = [key[groups.firsts] for key in keys]
    reduced: dict[tuple, np.ndarray] = {}
    for spec, slot in zip(operator.aggregates, operator.input_slots):
        if slot is None:
            arrays.append(groups.sizes)
            continue
        reducer = _REDUCERS[spec.function]
        key = (reducer, slot)
        if key not in reduced:
            reduced[key] = reducer(values[slot], groups)
        partial = reduced[key]
        if spec.function == "AVG":
            partial = partial.astype(np.float64) / groups.sizes
        arrays.append(partial)
    return VectorBatch(
        operator.schema,
        [
            array.astype(column.sql_type.numpy_dtype, copy=False)
            for array, column in zip(arrays, operator.schema)
        ],
    )


def _concatenated(pieces: list[tuple[list, list]]) -> tuple[list, list]:
    """The key and value columns of ``(keys, values)`` row pieces."""
    keys, values = (
        [np.concatenate(column) for column in zip(*columns)]
        for columns in zip(*pieces)
    )
    return keys, values


def _row(columns: list[np.ndarray], index: int) -> tuple:
    return tuple(column[index] for column in columns)


def _rows(keys: list, values: list, start: int, stop: int) -> tuple:
    """Rows [start, stop) of an aggregate's key and value arrays."""
    return (
        [key[start:stop] for key in keys],
        [value[start:stop] for value in values],
    )


def _check_ordered_by(child: PhysicalOperator, keys: list[Expression]):
    """Raise unless *keys* are bare columns and the child's ordering
    starts with them (in any order: rows of one key are contiguous
    either way)."""
    for expression in keys:
        if not isinstance(expression, ColumnRef):
            raise PlanError(
                "order-based aggregation requires bare column group keys"
            )
    names = {expression.name.lower() for expression in keys}
    child_order = tuple(name.lower() for name in child.ordering)
    if set(child_order[: len(names)]) != names:
        raise PlanError(
            f"input ordering {child.ordering} does not cover group "
            f"keys {sorted(names)}"
        )


class HashAggregate(UnaryOperator):
    """Grouped aggregation that buffers its open prefix segment.

    The input is sorted by the first *prefix_length* (k) group keys —
    bare columns; the planner arranges both.  Rows of one prefix value
    are then contiguous, so only the open segment is buffered: when a
    batch closes it, the segment and the batch's rows before its last
    run are grouped on (segment number, remaining keys), and segments
    leave in input order (paper Section 4.4: "the aggregation does not
    need the full dataset").  With k = 0 the open segment is the whole
    input: the generic, materializing hash aggregate.
    """

    #: whether the prefix is every key (:class:`OrderedAggregate`)
    full = False
    #: bytes of held input accounted to the memory accountant
    _accounted_bytes = 0

    def __init__(
        self,
        context: ExecutionContext,
        child: PhysicalOperator,
        group_expressions: list[Expression],
        group_names: list[str],
        aggregates: list[AggregateSpec],
        kernel: FusedKernel | InterpretedKernel | None = None,
        prefix_length: int = 0,
    ):
        if not group_expressions:
            raise PlanError("global aggregation uses group keys = ()")
        if self.full:
            prefix_length = len(group_expressions)
        if not 0 <= prefix_length < len(group_expressions) + self.full:
            raise PlanError(
                f"invalid prefix length {prefix_length} for "
                f"{len(group_expressions)} group keys"
            )
        if prefix_length:
            _check_ordered_by(child, group_expressions[:prefix_length])
        schema = _output_schema(
            child.schema, group_expressions, group_names, aggregates
        )
        super().__init__(context, schema, child)
        self.group_expressions = tuple(group_expressions)
        self.group_names = tuple(group_names)
        self.aggregates = tuple(aggregates)
        inputs, slots = aggregate_inputs(self.aggregates)
        self.inputs, self.input_slots = tuple(inputs), tuple(slots)
        self.prefix_length = prefix_length
        self.kernel = _input_kernel(self, child, kernel)
        self._category = (
            "aggregation-segment" if prefix_length else "aggregation"
        )

    @property
    def ordering(self) -> tuple[str, ...]:
        # Segments leave in input order; rows within one are unordered.
        return tuple(self.group_names[: self.prefix_length])

    def _produce(self) -> Iterator[VectorBatch]:
        prefix = self.prefix_length
        #: the open segment, as (keys, values) pieces
        held: list[tuple[list, list]] = []
        open_codes = None
        for keys, values in _inputs(self):
            rows = len(keys[0])
            if not prefix:  # the whole input is one open segment
                held.append(self._hold(keys, values))
                continue
            codes = equality_codes(keys[:prefix])
            runs = run_starts(codes)
            # 1 when the batch's first run continues the open segment
            first = int(open_codes == _row(codes, 0))
            open_codes = _row(codes, rows - 1)
            # Rows [0, stop) continue the open segment.
            stop = int(runs[first]) if first < len(runs) else rows
            if stop:
                held.append(self._hold(*_rows(keys, values, 0, stop)))
            if stop == rows:
                continue
            # The open segment closes, and so does every run of the
            # batch but its last: they are segments 1, 2, ...
            cut = int(runs[-1])
            lengths = np.diff(runs[first:])
            closed = self._grouped(
                [*held, _rows(keys, values, stop, cut)],
                np.repeat(np.arange(1, len(lengths) + 1), lengths),
            )
            self._release()
            held = [self._hold(*_rows(keys, values, cut, rows))]
            if closed is not None:
                yield from closed.pieces(BLOCK_SIZE)
        if held:
            result = self._grouped(held, np.empty(0, dtype=np.int64))
            if prefix:  # a hash aggregate's input is held until close
                self._release()
            if result is not None:
                yield from result.pieces(BLOCK_SIZE)

    def _hold(self, keys: list, values: list) -> tuple:
        """*keys* and *values*, accounted as buffered."""
        nbytes = nominal_bytes(keys) + nominal_bytes(values)
        self._accounted_bytes += nbytes
        self.context.memory.allocate(nbytes, self._category)
        return keys, values

    def _release(self) -> None:
        if self._accounted_bytes:
            self.context.memory.release(
                self._accounted_bytes, self._category
            )
            self._accounted_bytes = 0

    def _grouped(
        self, pieces: list[tuple[list, list]], segments: np.ndarray
    ) -> VectorBatch | None:
        """The groups of the rows in *pieces*: the open segment's rows
        (segment 0), then rows of the given *segments*."""
        keys, values = _concatenated(pieces)
        if len(keys[0]) == 0:
            return None
        grouping = keys
        if self.prefix_length:
            opened = np.zeros(len(keys[0]) - len(segments), dtype=np.int64)
            grouping = [
                np.concatenate([opened, segments]),
                *keys[self.prefix_length:],
            ]
        return _reduced(self, keys, values, group_ids(grouping))

    def close(self) -> None:
        self._release()
        super().close()

    def describe(self) -> str:
        keys = ", ".join(map(str, self.shown(self.group_expressions)))
        aggs = ", ".join(map(str, self.shown(self.aggregates)))
        label = "HashAggregate("
        if self.full:
            label = "OrderedAggregate("
        elif self.prefix_length:
            label = f"SegmentedAggregate(prefix={self.prefix_length} "
        return (
            f"{label}by [{keys}] compute [{aggs}]){_describe_fusion(self)}"
        )


class OrderedAggregate(HashAggregate):
    """Streaming aggregation over input sorted by all group keys.

    Only legal when the child's ordering starts with the group keys,
    bare columns (the planner checks this): the prefix is every key.
    Memory is one group's rows, which wait for the key that closes the
    group; each group is reduced over all of its rows at once, as
    :class:`HashAggregate` reduces it, so float results match bit for
    bit.  A group spanning batches is concatenated, and accounted.
    """

    full = True

    def _produce(self) -> Iterator[VectorBatch]:
        #: the open group's rows, one (keys, values) piece per batch
        held: list[tuple[list, list]] = []
        open_codes = None
        for keys, values in _inputs(self):
            rows = len(keys[0])
            codes = equality_codes(keys)
            starts = run_starts(codes)
            if open_codes == _row(codes, 0):  # the open group continues
                stop = int(starts[1]) if len(starts) > 1 else rows
                held.append(_rows(keys, values, 0, stop))
                if stop == rows:
                    continue
                starts = starts[1:]
            if held:
                yield self._reduced(held, np.zeros(1, dtype=np.intp))
            cut = int(starts[-1])  # the batch's last group stays open
            if len(starts) > 1:
                head = int(starts[0])
                interior = [_rows(keys, values, head, cut)]
                yield self._reduced(interior, starts[:-1] - head)
            held = [_rows(keys, values, cut, rows)]
            open_codes = _row(codes, cut)
        if held:
            yield self._reduced(held, np.zeros(1, dtype=np.intp))

    def _reduced(self, pieces: list, starts: np.ndarray) -> VectorBatch:
        """One row per group of the rows in *pieces*, the groups beginning
        at *starts*.  Pieces of a group that spans batches are
        concatenated, and accounted while they are."""
        (keys, values), nbytes = pieces[0], 0
        if len(pieces) > 1:
            keys, values = _concatenated(pieces)
            nbytes = nominal_bytes(keys) + nominal_bytes(values)
        self.context.memory.allocate(nbytes, "aggregation-group")
        rows = len(keys[0])
        ids = np.zeros(rows, dtype=np.int64)
        ids[starts[1:]] = 1
        np.cumsum(ids, out=ids)
        sizes = np.diff(np.append(starts, rows))
        batch = _reduced(self, keys, values, Groups(ids, starts, sizes))
        self.context.memory.release(nbytes, "aggregation-group")
        return batch
