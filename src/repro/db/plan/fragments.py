"""Fragment planning: how one SELECT splits over partitions.

Thread-parallel execution (one pipeline per partition of a local table,
:mod:`repro.db.parallel`) and sharded execution (one fragment per shard
process, :mod:`repro.db.shard`) are one decomposition at two scales:
run :attr:`FragmentPlan.statement` once per partition, gather the
per-partition results through a
:class:`~repro.db.plan.physical.GatherExchange`, and finish the query
with the merge pipeline of :func:`build_merge_plan`.

:func:`plan_fragments` picks the merge with one walk over the bound,
optimized logical plan that tracks which output columns carry the
partition key:

``concat``
    The per-partition results are already final rows: every aggregate
    and DISTINCT below the top groups on a key column, and every join
    whose two sides both read partitioned input pairs their key columns.
    Each group's rows fold in the same order as serial execution, so
    even floating-point SUM/AVG match to the last bit.

``partial``
    As ``concat``, except for a top-level aggregate that does not group
    on the key: every aggregate in its select list (and HAVING) is
    decomposed into per-partition partials (``AVG`` becomes ``SUM`` +
    ``COUNT``) that the merge re-aggregates with the standard
    :class:`~repro.db.operators.HashAggregate` and projects back to the
    original output expressions.  Merge order is not the serial fold
    order, so float results are exact only for exactly-representable
    values (see ``tests/db/test_partition_merge.py``).  Equal aggregate
    calls share one partial only when their literals share slots too, so
    a plan-cache hit that gives them other values still merges the right
    columns.

``decline``
    Anything else, including a plan that reads no partitioned input.
    The statement then runs serially — or, when its rows live on shards,
    fails with a typed :class:`~repro.errors.ShardError`.

The partitioned input is every sharded table a statement reads or, when
it reads none, every local table with more than one partition; other
tables (and a MODEL JOIN's model table) are read whole by every
partition.  ORDER BY / LIMIT / OFFSET and a top-level DISTINCT are
stripped from the per-partition statement and re-applied by the merge.

A statement served from the plan cache does not run this module's walk
again: its template keeps the fragment plan and the merge pipeline's
compiled plan (:class:`repro.db.plan.cache.FragmentTemplate`), and the
per-partition statement is planned, in a plan cache too, under the
fragment's *key* — this engine's for thread pipelines, each shard's for
shards.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.db.catalog import is_system_table_name
from repro.db.expressions import (
    BinaryOp,
    ColumnRef,
    Expression,
    FunctionCall,
    Literal,
)
from repro.db.operators import HashAggregate, LimitOperator, SortOperator
from repro.db.operators.aggregate import AggregateSpec, input_outputs
from repro.db.plan.logical import (
    LogicalAggregate,
    LogicalDistinct,
    LogicalJoin,
    LogicalLimit,
    LogicalModelJoin,
    LogicalNode,
    LogicalOrderBy,
    LogicalProject,
    LogicalScan,
    LogicalSubquery,
    bare_name,
    contains_aggregate,
    rebuild,
    split_conjuncts,
    walk,
)
from repro.db.plan.physical import pipeline, segment_kernel
from repro.db.sql.ast import SelectItem, SelectStatement, Star
from repro.db.sql.parser import is_aggregate_call
from repro.errors import PlanError


@dataclass
class FragmentPlan:
    """One SELECT split over partitions: the per-partition statement
    plus its merge recipe."""

    #: the statement every partition runs
    statement: SelectStatement
    #: "concat" | "partial" | "decline"
    merge: str
    #: why the walk chose *merge* (the message of a declined shard query)
    reason: str = ""
    #: partitions of the partitioned input: one pipeline or shard each
    partitions: int = 0
    #: whether the partitioned input lives on shard processes
    sharded: bool = False
    #: sharded plans: the sharded tables the fragment reads, replicated
    #: tables it also reads (synced to shards before dispatch) and
    #: models it invokes
    sharded_tables: tuple[str, ...] = ()
    replicated_tables: tuple[str, ...] = ()
    model_names: tuple[str, ...] = ()
    #: "partial" merge: group key aliases (__k0..), merge aggregates
    #: over the partial columns, and the final projection restoring the
    #: original output expressions/names
    group_names: tuple[str, ...] = ()
    merge_specs: tuple[AggregateSpec, ...] = ()
    final_exprs: tuple[Expression, ...] = ()
    final_names: tuple[str, ...] = ()
    #: HAVING rewritten over the merged columns (partial merge only)
    having: Expression | None = None
    #: global operations the merge re-applies: the bound ORDER BY keys
    #: (output column names) and directions, LIMIT / OFFSET, DISTINCT
    order_keys: tuple[str, ...] = ()
    ascending: tuple[bool, ...] = ()
    limit: int | None = None
    offset: int = 0
    distinct: bool = False
    estimated_rows: int = 0
    #: whether partitions run a statement other than the query's own
    #: (ORDER BY / LIMIT / OFFSET / DISTINCT stripped, or partials)
    rewritten: bool = False
    #: plan-cache products (:class:`repro.db.plan.cache.FragmentTemplate`):
    #: the per-partition statement's plan-cache key (None: plan it cold),
    #: the query's literal values by slot, the values *statement* reads
    #: (None in the other slots) and the template itself; a plan made for
    #: one statement has no values (its literals hold them)
    key: str | None = None
    values: tuple | None = None
    statement_values: tuple | None = None
    template: object = None

    @property
    def top(self) -> int | None:
        """Rows the merge sort must keep: LIMIT + OFFSET, or all."""
        return None if self.limit is None else self.limit + self.offset


def _tail(name: str) -> str:
    return name.rsplit(".", 1)[-1].lower()


def shard_count(table) -> int:
    """Shard processes holding *table*'s rows (0 for a local table).

    Only the coordinator's :class:`~repro.db.shard.tables.ShardedTable`
    stubs (and their plan-cache identities) carry a shard count.
    """
    return getattr(table, "shard_count", 0)


def sharded_rows(tables) -> int:
    """The estimated input rows of a sharded fragment over *tables*:
    those of its largest sharded table."""
    return max(table.row_count for table in tables if shard_count(table))


@dataclass(frozen=True)
class _Spread:
    """How a subtree's output rows lie across the partitions."""

    #: partitions of the partitioned input the subtree reads; 0 when it
    #: reads none, so every partition computes all of its rows
    partitions: int = 0
    #: lower-cased output names equal to the partition key on every row
    keys: frozenset[str] = frozenset()

    def carries_key(self, expression: Expression) -> bool:
        return (
            isinstance(expression, ColumnRef)
            and expression.name.lower() in self.keys
        )


class _Decline(Exception):
    """A plan shape no merge can finish; the message says which."""


def _decide(
    root: LogicalNode, sharded: bool, pipelines: int
) -> tuple[str, int, str]:
    """The concat / partial / decline decision for a bound plan.

    Returns ``(merge, partitions, reason)``.  *pipelines* bounds the
    partitions a local (thread-parallel) plan may have.
    """
    partial = False

    def scan(node: LogicalScan) -> _Spread:
        table = node.table
        if sharded:
            if is_system_table_name(table.name):
                raise _Decline("system tables are coordinator-local")
            partitions = shard_count(table)
        elif table.num_partitions > 1:
            partitions = table.num_partitions
        else:
            partitions = 0
        key = table.partition_key
        if not partitions or key is None:
            return _Spread(partitions)
        return _Spread(
            partitions, frozenset({f"{node.binding}.{key}".lower()})
        )

    def spread(node: LogicalNode, top: bool) -> _Spread:
        """*top*: *node* is in the outermost query block, above its
        aggregate — where the merge can finish what partitions cannot."""
        nonlocal partial
        if isinstance(node, LogicalScan):
            return scan(node)
        if isinstance(node, LogicalSubquery):
            inner = spread(node.inner, False)
            return _Spread(
                inner.partitions,
                frozenset(
                    f"{node.binding}.{name}".lower()
                    for name in node.inner.output_names()
                    if name.lower() in inner.keys
                ),
            )
        if isinstance(node, LogicalJoin):
            left = spread(node.left, False)
            right = spread(node.right, False)
            if left.partitions and right.partitions:
                if left.partitions != right.partitions:
                    raise _Decline(
                        f"a join of inputs with {left.partitions} and "
                        f"{right.partitions} partitions"
                    )
                if not any(
                    left.carries_key(left_key)
                    and right.carries_key(right_key)
                    for left_key, right_key in zip(
                        node.left_keys, node.right_keys
                    )
                ):
                    raise _Decline(
                        "a join of two partitioned inputs that does not "
                        "pair their partition keys"
                    )
            return _Spread(
                max(left.partitions, right.partitions),
                left.keys | right.keys,
            )
        (child_node,) = node.children()
        child = spread(
            child_node, top and not isinstance(node, LogicalAggregate)
        )
        if not child.partitions:
            return child
        if isinstance(node, LogicalProject):
            return _Spread(
                child.partitions,
                frozenset(
                    name.lower()
                    for expression, name in zip(node.expressions, node.names)
                    if child.carries_key(expression)
                ),
            )
        if isinstance(node, LogicalAggregate):
            keys = frozenset(
                name.lower()
                for expression, name in zip(
                    node.group_exprs, node.group_names
                )
                if child.carries_key(expression)
            )
            if not keys:
                if not top:
                    raise _Decline(
                        "an aggregate in a subquery does not group on the "
                        "partition key"
                    )
                partial = True
            return _Spread(child.partitions, keys)
        if not top and isinstance(node, LogicalLimit):
            raise _Decline("a LIMIT in a subquery over partitioned input")
        if not top and isinstance(node, LogicalDistinct) and not child.keys:
            raise _Decline(
                "a DISTINCT in a subquery without the partition key"
            )
        # Filter, OrderBy, ModelJoin, and the top block's Distinct and
        # Limit (the merge re-applies those two)
        return child

    try:
        result = spread(root, True)
    except _Decline as decline:
        return "decline", 0, str(decline)
    if not result.partitions:
        return "decline", 0, "no partitioned input"
    if not sharded and result.partitions > pipelines:
        return (
            "decline",
            0,
            f"{result.partitions} partitions exceed {pipelines} pipeline(s)",
        )
    if partial:
        return (
            "partial",
            result.partitions,
            "the top-level aggregate does not group on the partition key",
        )
    return "concat", result.partitions, "per-partition results are final"


def plan_fragments(prepared, pipelines: int) -> FragmentPlan:
    """Split a prepared SELECT over its partitions (or decline to).

    *prepared* is the :class:`~repro.db.planner.PreparedPlan` of the
    statement; *pipelines* is how many partitions a thread-parallel
    plan may run side by side (shards are not bounded by it).
    """
    statement = prepared.statement
    nodes = walk(prepared.logical)
    scans = [node for node in nodes if isinstance(node, LogicalScan)]
    sharded = any(shard_count(scan.table) for scan in scans)
    merge, partitions, reason = _decide(
        prepared.logical, sharded, pipelines
    )
    plan = FragmentPlan(
        statement=statement,
        merge=merge,
        reason=reason,
        partitions=partitions,
        sharded=sharded,
        limit=statement.limit,
        offset=statement.offset,
        distinct=statement.distinct,
    )
    if merge == "decline":
        return plan
    top = prepared.logical
    if isinstance(top, LogicalLimit):
        top = top.child
    if isinstance(top, LogicalOrderBy):
        plan.order_keys = tuple(top.keys)
        plan.ascending = tuple(top.ascending)
    if sharded:
        plan.estimated_rows = sharded_rows(prepared.tables.values())
        names = {scan.table.name: shard_count(scan.table) for scan in scans}
        plan.sharded_tables = tuple(
            name for name, shards in names.items() if shards
        )
        plan.replicated_tables = tuple(
            name for name, shards in names.items() if not shards
        )
        plan.model_names = tuple(
            dict.fromkeys(
                node.model_name
                for node in nodes
                if isinstance(node, LogicalModelJoin)
            )
        )
    if (
        statement.order_by
        or statement.limit is not None
        or statement.offset
        or statement.distinct
    ):
        plan.statement = dataclasses.replace(
            statement, order_by=(), limit=None, offset=0, distinct=False
        )
    if merge == "partial":
        _decompose_aggregation(plan, plan.statement)
    plan.rewritten = plan.statement is not statement
    return plan


def _decompose_aggregation(
    plan: FragmentPlan, statement: SelectStatement
) -> None:
    """Rewrite *statement* into per-partition partials + a merge."""
    if not statement.group_by:
        raise PlanError(
            "global aggregation (no GROUP BY) is not supported; "
            "add a constant group key"
        )
    group_names = [f"__k{i}" for i in range(len(statement.group_by))]
    partial_items: list[SelectItem] = []
    merge_specs: list[AggregateSpec] = []
    replacements: dict[tuple, Expression] = {}
    partials: dict[tuple, ColumnRef] = {}

    def partial(function: str, argument, merge_function: str) -> ColumnRef:
        # one partial per (function, argument): AVG(v) reuses SUM(v)'s
        # and COUNT(v)'s, so each is computed and shipped once
        key = (function, argument, literal_slots(argument))
        shipped = partials.get(key)
        if shipped is not None:
            return shipped
        name = f"__p{len(partial_items)}"
        arguments = () if argument is None else (argument,)
        partial_items.append(
            SelectItem(FunctionCall(function, arguments), name)
        )
        merge_specs.append(
            AggregateSpec(merge_function, ColumnRef(name), name)
        )
        partials[key] = ColumnRef(name)
        return ColumnRef(name)

    def rewrite(expression: Expression) -> Expression:
        for slot, group_expr in enumerate(statement.group_by):
            if _matches_group(expression, group_expr):
                return ColumnRef(group_names[slot])
        if is_aggregate_call(expression):
            key = (expression, literal_slots(expression))
            cached = replacements.get(key)
            if cached is not None:
                return cached
            argument = None
            if expression.arguments:
                if len(expression.arguments) != 1:
                    raise PlanError(
                        f"{expression.name} takes exactly one argument"
                    )
                argument = expression.arguments[0]
                if contains_aggregate(argument):
                    raise PlanError("nested aggregates are not allowed")
            function = expression.name.upper()
            if function == "AVG":
                # AVG is not mergeable; decompose into SUM/COUNT
                # partials and divide after the merge (division always
                # yields DOUBLE, matching AVG's output type).
                total = partial("SUM", argument, "SUM")
                count = partial("COUNT", argument, "SUM")
                replacement: Expression = BinaryOp("/", total, count)
            elif function in ("SUM", "COUNT"):
                replacement = partial(function, argument, "SUM")
            else:  # MIN / MAX merge with themselves
                replacement = partial(function, argument, function)
            replacements[key] = replacement
            return replacement
        return rebuild(expression, rewrite)

    final_exprs: list[Expression] = []
    final_names: list[str] = []
    for item in statement.select_items:
        if isinstance(item.expression, Star):
            raise PlanError(
                "SELECT * cannot be combined with GROUP BY"
            )
        final_exprs.append(rewrite(item.expression))
        if item.alias:
            final_names.append(item.alias)
        elif isinstance(item.expression, ColumnRef):
            final_names.append(bare_name(item.expression.name, final_names))
        else:
            final_names.append(f"col{len(final_names)}")
    having = None
    if statement.having is not None:
        having = rewrite(statement.having)
    plan.group_names = tuple(group_names)
    plan.merge_specs = tuple(merge_specs)
    plan.final_exprs = tuple(final_exprs)
    plan.final_names = tuple(final_names)
    plan.having = having
    plan.statement = dataclasses.replace(
        statement,
        select_items=tuple(
            SelectItem(group_expr, group_names[slot])
            for slot, group_expr in enumerate(statement.group_by)
        )
        + tuple(partial_items),
        having=None,
    )


def literal_slots(node) -> tuple[int, ...]:
    """The slots of the statement literals in *node* — an expression, an
    AST node or a tuple of them — in field order."""
    if isinstance(node, Literal):
        return () if node.slot is None else (node.slot,)
    if isinstance(node, tuple):
        items = node
    elif hasattr(node, "__dataclass_fields__"):
        items = node.__dict__.values()
    else:
        return ()
    return tuple(slot for item in items for slot in literal_slots(item))


def _matches_group(expression: Expression, group_expr: Expression) -> bool:
    if expression == group_expr:
        return True
    # Qualification-insensitive column match: the binder resolves
    # ``k`` and ``t.k`` to the same column, so the AST-level rewrite
    # must treat them as the same group key.
    if isinstance(expression, ColumnRef) and isinstance(
        group_expr, ColumnRef
    ):
        return _tail(expression.name) == _tail(group_expr.name)
    return False


def build_merge_plan(context, fragment: FragmentPlan, source, compiler):
    """The merge pipeline above a GatherExchange *source*: the one
    place partition results are merged, for threads and shards alike.
    Its aggregate input and its HAVING→projection segment each ask
    *compiler* for their kernel, like a lowered plan's."""
    plan = source
    if fragment.merge == "partial":
        keys = [ColumnRef(name) for name in fragment.group_names]
        outputs = input_outputs(
            keys, fragment.group_names, fragment.merge_specs
        )
        plan = HashAggregate(
            context,
            plan,
            keys,
            list(fragment.group_names),
            list(fragment.merge_specs),
            kernel=segment_kernel(
                compiler, plan, (), outputs, "aggregate-input"
            ),
        )
        plan = pipeline(
            context,
            compiler,
            plan,
            split_conjuncts(fragment.having) if fragment.having else [],
            fragment.final_exprs,
            fragment.final_names,
        )
    if fragment.distinct:
        plan = HashAggregate(
            context,
            plan,
            [ColumnRef(name) for name in plan.schema.names],
            list(plan.schema.names),
            [],
        )
    if fragment.order_keys:
        keys = [ColumnRef(name) for name in fragment.order_keys]
        plan = SortOperator(
            context, plan, keys, list(fragment.ascending), fragment.top
        )
    if fragment.limit is not None:
        plan = LimitOperator(context, plan, fragment.limit, fragment.offset)
    return plan
