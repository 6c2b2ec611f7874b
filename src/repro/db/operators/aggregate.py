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

:class:`GroupJoin` is a hash aggregate with no sorted prefix fused with
the :class:`~repro.db.operators.join.HashJoin` directly below it, when
every group key reads one join side — ML-To-SQL's dense layer, ``GROUP
BY t.id, m.node, m.b_i`` over ``t.node = m.node_in``.  It groups the
join's (probe row, build row) index pairs instead of joined rows: the
build side's keys are numbered once per build, the probe side's once
over the held probe rows, and a pair's group is the fold of the two
(:func:`~repro.db.operators.keys.pair_groups`); per pair it gathers
only what its input kernel reads and holds one int64 code beside the
arguments.  It reduces with :func:`_reduced` in join output order, so
it returns the joined path's groups, in its order, bit for bit.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import reduce
from itertools import groupby
from operator import itemgetter

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
from repro.db.operators.join import HashJoin
from repro.db.operators.keys import (
    Groups,
    equality_codes,
    group_ids,
    pair_groups,
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
    keys = tuple(
        KernelOutput(name, expression)
        for expression, name in zip(group_expressions, group_names)
    )
    return keys + argument_outputs(aggregates)


def argument_outputs(aggregates) -> tuple[KernelOutput, ...]:
    """Each argument the aggregate evaluates (:func:`aggregate_inputs`),
    as a raw kernel output."""
    return tuple(
        KernelOutput(spec.name, spec.argument)
        for spec in aggregate_inputs(aggregates)[0]
    )


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


def _describe_fusion(operator, predicates=None) -> str:
    """Suffix describing the input kernel and the filter *predicates*
    fused into it (default: all of the kernel's), for EXPLAIN."""
    if predicates is None:
        predicates = operator.kernel.spec.predicates
    predicates = operator.shown(predicates)
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
    """One output row per group: its *keys* (each group's first row's),
    then each aggregate reduced over the rows ``groups.ids`` numbers, in
    input row order — the one reduction of every strategy, so they agree
    bit for bit.  *values* are the operator's input arrays; COUNT is the
    group size and AVG its SUM divided by it, and each (reduction,
    input) pair is reduced once however many aggregates use it."""
    arrays = list(keys)
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
        groups = group_ids(grouping)
        firsts = [key[groups.firsts] for key in keys]
        return _reduced(self, firsts, values, groups)

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
        firsts = [key[starts] for key in keys]
        batch = _reduced(self, firsts, values, Groups(ids, starts, sizes))
        self.context.memory.release(nbytes, "aggregation-group")
        return batch


#: the pair-code column of a groupjoin's input kernel
_PAIR = "__pair"


def key_sides(join: HashJoin, group_expressions) -> tuple[bool, ...] | None:
    """Per group key, whether it reads *join*'s build side (True) or its
    probe side (False); None unless each key reads columns of one side
    only."""
    left, right = (
        {name.lower() for name in side.schema.names}
        for side in (join.left, join.right)
    )
    sides = []
    for expression in group_expressions:
        names = expression.referenced_columns()
        if not names or not (names <= left or names <= right):
            return None
        sides.append(not names <= left)
    return tuple(sides)


class GroupJoin(HashJoin):
    """A :class:`HashAggregate` with no sorted prefix fused with the
    :class:`HashJoin` below it (a groupjoin, Moerkotte & Neumann, VLDB
    2011): the aggregate groups the join's (probe row, build row) index
    pairs instead of joined rows.

    Every group key reads one join side.  Build-side keys are numbered
    once per build (:func:`group_ids` over the build rows), probe-side
    keys once over the held probe rows (those that match), each run of
    consecutive keys on one side as one digit; a pair's group is the
    mixed-radix fold of its digits in the GROUP BY's key order
    (:func:`~repro.db.operators.keys.pair_groups`), so groups and their
    order are HashAggregate's.  Per pair, only the columns read by the
    join residual, the fused filter and the aggregate arguments are
    gathered, straight into the input kernel's narrowed schema; the
    kernel carries the pair's int64 code (held probe row, shifted past
    the build row's bits, or'ed with the build row) through its filter,
    and the code and the arguments are all a pair holds.
    :func:`_reduced` reduces the pairs in join output order, so every
    group, its key values and its result are the joined path's, bit for
    bit.
    """

    _held_bytes = 0

    def __init__(
        self,
        context: ExecutionContext,
        join: HashJoin,
        group_expressions: list[Expression],
        group_names: list[str],
        aggregates: list[AggregateSpec],
        predicates,
        compiler,
    ):
        super().__init__(
            context,
            join.left,
            join.right,
            list(join.left_keys),
            list(join.right_keys),
            join.residual,
        )
        sides = key_sides(join, group_expressions)
        if sides is None:
            raise PlanError("a groupjoin's group keys each read one side")
        joined = self.schema
        self.schema = _output_schema(
            joined, group_expressions, group_names, aggregates
        )
        self.group_expressions = tuple(group_expressions)
        self.group_names = tuple(group_names)
        self.aggregates = tuple(aggregates)
        self.input_slots = tuple(aggregate_inputs(self.aggregates)[1])
        self.sides = sides
        #: the digits: each run of consecutive keys on one side, as
        #: (build side?, key positions)
        self.runs = tuple(
            (side, tuple(position for position, _ in run))
            for side, run in groupby(enumerate(sides), key=itemgetter(1))
        )
        #: the filter conjuncts fused after the join residual
        self.predicates = tuple(predicates)
        conjuncts = self.predicates
        if join.residual is not None:
            conjuncts = (join.residual, *conjuncts)
        outputs = (
            KernelOutput(_PAIR, ColumnRef(_PAIR)),
            *argument_outputs(self.aggregates),
        )
        #: the joined-row positions each pair gathers
        self.reads = tuple(sorted({
            joined.position_of(name)
            for expression in (
                *conjuncts, *(output.expression for output in outputs)
            )
            for name in expression.referenced_columns()
            if name != _PAIR
        }))
        label = "groupjoin-input"
        if conjuncts:
            label = f"filter({len(conjuncts)})+{label}"
        spec = KernelSpec(
            Schema(
                (Column(_PAIR, SqlType.INTEGER),)
                + tuple(joined.columns[p] for p in self.reads)
            ),
            predicates=conjuncts,
            outputs=outputs,
            label=label,
        )
        self.kernel = compiler.kernel(spec)

    @property
    def ordering(self) -> tuple[str, ...]:
        return ()

    def _keys(self, batch: VectorBatch, build: bool) -> dict:
        """The group keys of one side, by key position, over *batch*."""
        return {
            position: self._evaluate(expression, batch)
            for position, (expression, side) in enumerate(
                zip(self.group_expressions, self.sides)
            )
            if side == build
        }

    def _held(self, arrays: list) -> list:
        """*arrays*, accounted as held."""
        nbytes = nominal_bytes(arrays)
        self._held_bytes += nbytes
        self.context.memory.allocate(nbytes, "aggregation")
        return arrays

    def _produce(self) -> Iterator[VectorBatch]:
        self._build()
        build = self._build_batch
        split = len(self.left.schema)
        #: a pair's code is its held probe row << shift | its build row
        shift = (len(build) - 1).bit_length()
        build_keys = self._keys(build, True)
        build_digits = {
            positions: group_ids([build_keys[p] for p in positions])
            for side, positions in self.runs
            if side
        }
        context = self.context
        cancel = context.query.cancellation
        schema = self.kernel.spec.schema
        #: per probe batch that kept a pair: its held rows' keys
        probe_keys: list[dict] = []
        #: per kernel call: its pairs' codes and argument arrays
        pieces: list[list] = []
        held = 0
        for batch in self.left.next_batches():
            matches = self._matches(batch)
            if matches is None:
                continue
            counts, build_rows = matches
            if not counts.all():  # only the probe rows that match are held
                hits = np.flatnonzero(counts)
                batch, counts = batch.take(hits), counts[hits]
            rows = len(batch)
            code = np.arange(held, held + rows, dtype=np.int64)
            code <<= shift
            code = np.repeat(code, counts)
            code |= build_rows
            arrays = [code]
            for position in self.reads:
                if position < split:
                    arrays.append(np.repeat(batch.arrays[position], counts))
                else:
                    arrays.append(build.arrays[position - split][build_rows])
            kept = len(pieces)
            pieces.extend(
                self._held(outputs)
                for outputs in self.kernel.outputs(
                    VectorBatch.validated(schema, arrays),
                    context.vector_size,
                    cancel,
                )
            )
            if len(pieces) > kept:
                keys = self._keys(batch, False)
                self._held(list(keys.values()))
                probe_keys.append(keys)
                held += rows
        if not pieces:
            return
        code, *values = (
            column[0] if len(column) == 1 else np.concatenate(column)
            for column in zip(*pieces)
        )
        probe_columns = {
            position: np.concatenate([keys[position] for keys in probe_keys])
            for position in probe_keys[0]
        }
        digits = [
            (side, build_digits[positions] if side else group_ids(
                [probe_columns[p] for p in positions]
            ))
            for side, positions in self.runs
        ]
        groups = pair_groups(digits, code, shift)
        first = code[groups.firsts]
        first_probe = first >> shift
        first_build = first & ((1 << shift) - 1)
        keys = [
            build_keys[position][first_build] if side
            else probe_columns[position][first_probe]
            for position, side in enumerate(self.sides)
        ]
        yield from _reduced(self, keys, values, groups).pieces(BLOCK_SIZE)

    def close(self) -> None:
        if self._held_bytes:
            self.context.memory.release(self._held_bytes, "aggregation")
            self._held_bytes = 0
        super().close()

    def describe(self) -> str:
        keys = ", ".join(map(str, self.shown(self.group_expressions)))
        aggs = ", ".join(map(str, self.shown(self.aggregates)))
        return (
            f"HashAggregate(by [{keys}] compute [{aggs}]) "
            f"[groupjoin: {self.condition()}]"
            f"{_describe_fusion(self, self.predicates)}"
        )
