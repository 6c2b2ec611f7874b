"""Fragment planning: split one SELECT into shard fragments + a merge.

The coordinator ships the *shard statement* (a picklable AST
``SelectStatement``) to every shard, gathers the per-shard results
through a :class:`~repro.db.plan.physical.GatherExchange`, and finishes
the query with a coordinator-local merge pipeline described by the
:class:`FragmentPlan`.

Two merge strategies exist:

``concat``
    The shard results are already final rows: either the query has no
    aggregation, or every group is wholly owned by one shard because
    the GROUP BY keys include the sharded table's partition key.  The
    disjoint-groups path is the important one for bit-exactness — each
    group's rows fold in the same order as single-process execution, so
    even floating-point SUM/AVG match to the last bit.

``partial``
    General aggregation: every aggregate in the select list (and
    HAVING) is decomposed into shard-local partials (``AVG`` becomes
    ``SUM`` + ``COUNT``) that the coordinator re-aggregates with the
    standard :class:`~repro.db.operators.HashAggregate` and projects
    back to the original output expressions.  Merge order across
    shards is not the single-process fold order, so float results are
    exact only for exactly-representable values (see
    ``tests/db/test_partition_merge.py``).

ORDER BY / LIMIT / OFFSET / DISTINCT are always stripped from the shard
statement and re-applied at the coordinator (global operations).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.db.catalog import Catalog, is_system_table_name
from repro.db.expressions import BinaryOp, ColumnRef, Expression, FunctionCall
from repro.db.operators import (
    FilterOperator,
    HashAggregate,
    LimitOperator,
    ProjectOperator,
    SortOperator,
)
from repro.db.operators.aggregate import AggregateSpec
from repro.db.plan.logical import contains_aggregate, order_keys, rebuild
from repro.db.shard.tables import ShardedTable
from repro.db.sql.ast import (
    FromItem,
    JoinRef,
    ModelJoinRef,
    OrderItem,
    SelectItem,
    SelectStatement,
    Star,
    SubqueryRef,
    TableRef,
)
from repro.db.sql.parser import is_aggregate_call
from repro.errors import PlanError, ShardError


@dataclass
class FragmentPlan:
    """One sharded SELECT: the shard fragment plus its merge recipe."""

    shard_statement: SelectStatement
    #: "concat" | "partial"
    merge: str
    #: the (single) sharded base table the fragment scans
    sharded_table: str
    #: replicated tables the fragment also reads (synced to shards
    #: before dispatch) and models it invokes
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
    #: global operations re-applied at the coordinator
    order_by: tuple[OrderItem, ...] = ()
    limit: int | None = None
    offset: int = 0
    distinct: bool = False
    #: whether the fragment may run partition-parallel inside a worker
    parallel_safe: bool = True
    estimated_rows: int = 0
    notes: list[str] = field(default_factory=list)


def referenced_tables(from_items: tuple[FromItem, ...]) -> list[TableRef]:
    """All base-table references, recursively through joins/subqueries."""
    refs: list[TableRef] = []
    for item in from_items:
        if isinstance(item, TableRef):
            refs.append(item)
        elif isinstance(item, JoinRef):
            refs.extend(referenced_tables((item.left, item.right)))
        elif isinstance(item, ModelJoinRef):
            refs.extend(referenced_tables((item.left,)))
        elif isinstance(item, SubqueryRef):
            refs.extend(referenced_tables(item.query.from_items))
    return refs


def referenced_models(from_items: tuple[FromItem, ...]) -> list[str]:
    names: list[str] = []
    for item in from_items:
        if isinstance(item, ModelJoinRef):
            names.append(item.model_name)
            names.extend(referenced_models((item.left,)))
        elif isinstance(item, JoinRef):
            names.extend(referenced_models((item.left, item.right)))
        elif isinstance(item, SubqueryRef):
            names.extend(referenced_models(item.query.from_items))
    return names


def _subqueries(from_items: tuple[FromItem, ...]) -> list[SelectStatement]:
    queries: list[SelectStatement] = []
    for item in from_items:
        if isinstance(item, SubqueryRef):
            queries.append(item.query)
            queries.extend(_subqueries(item.query.from_items))
        elif isinstance(item, JoinRef):
            queries.extend(_subqueries((item.left, item.right)))
        elif isinstance(item, ModelJoinRef):
            queries.extend(_subqueries((item.left,)))
    return queries


def _tail(name: str) -> str:
    return name.rsplit(".", 1)[-1].lower()


def _qualifier(name: str) -> str | None:
    if "." in name:
        return name.split(".", 1)[0].lower()
    return None


def _statement_has_aggregates(statement: SelectStatement) -> bool:
    for item in statement.select_items:
        if isinstance(item.expression, Star):
            continue
        if contains_aggregate(item.expression):
            return True
    return bool(statement.group_by) or statement.having is not None


def _groups_disjoint_by_shard_key(
    statement: SelectStatement, partition_key: str, bindings: set[str]
) -> bool:
    """Whether every group lives wholly on one shard.

    True when some GROUP BY key is a bare reference to the sharded
    table's partition key (rows of one group share the partition key
    value, hence hash to the same shard).  Qualified references must
    name a binding of the sharded table — ``dim.k`` must not match a
    fact-table partition key that happens to share the name.
    """
    for expression in statement.group_by:
        if not isinstance(expression, ColumnRef):
            continue
        if _tail(expression.name) != partition_key.lower():
            continue
        qualifier = _qualifier(expression.name)
        if qualifier is None or qualifier in bindings:
            return True
    return False


def plan_select_fragments(
    statement: SelectStatement, catalog: Catalog
) -> FragmentPlan | None:
    """Plan sharded execution for *statement*, or None to run locally.

    Raises :class:`~repro.errors.ShardError` for statements that read
    sharded tables but cannot be distributed (two sharded tables,
    ``system.*`` mixed in, aggregating subqueries).
    """
    refs = referenced_tables(statement.from_items)
    sharded_refs: list[TableRef] = []
    replicated: list[str] = []
    system_refs: list[str] = []
    for ref in refs:
        if is_system_table_name(ref.table_name):
            system_refs.append(ref.table_name)
            continue
        if not catalog.has_table(ref.table_name):
            # Let the binder produce its canonical CatalogError.
            return None
        table = catalog.table(ref.table_name)
        if isinstance(table, ShardedTable):
            sharded_refs.append(ref)
        else:
            replicated.append(ref.table_name)
    if not sharded_refs:
        return None
    if system_refs:
        raise ShardError(
            "cannot combine sharded tables with system tables in one "
            f"query (system tables are coordinator-local): {system_refs}"
        )
    sharded_names = {ref.table_name.lower() for ref in sharded_refs}
    if len(sharded_names) > 1:
        raise ShardError(
            "queries joining two sharded tables need a repartition "
            f"exchange, which is not supported yet: {sorted(sharded_names)}"
        )
    for subquery in _subqueries(statement.from_items):
        if (
            _statement_has_aggregates(subquery)
            or subquery.distinct
            or subquery.limit is not None
            or subquery.order_by
        ):
            raise ShardError(
                "subqueries with aggregation, DISTINCT, ORDER BY or "
                "LIMIT over sharded tables are not supported; "
                "materialize the inner query first"
            )
    sharded_ref = sharded_refs[0]
    table = catalog.table(sharded_ref.table_name)
    bindings = {
        ref.binding_name.lower()
        for ref in sharded_refs
        if ref.table_name.lower() == sharded_ref.table_name.lower()
    }
    plan = FragmentPlan(
        shard_statement=statement,
        merge="concat",
        sharded_table=table.name,
        replicated_tables=tuple(dict.fromkeys(replicated)),
        model_names=tuple(
            dict.fromkeys(referenced_models(statement.from_items))
        ),
        order_by=statement.order_by,
        limit=statement.limit,
        offset=statement.offset,
        distinct=statement.distinct,
        estimated_rows=table.row_count,
    )
    core = dataclasses.replace(
        statement, order_by=(), limit=None, offset=0, distinct=False
    )
    has_aggregates = _statement_has_aggregates(statement)
    if not has_aggregates:
        plan.shard_statement = core
        plan.parallel_safe = True
        return plan
    if _groups_disjoint_by_shard_key(
        statement, table.partition_key, bindings
    ):
        # Each group is wholly owned by one shard: shard-local results
        # (HAVING included) are final; the merge is a plain concat and
        # stays bit-exact because per-group fold order is preserved.
        plan.shard_statement = core
        plan.parallel_safe = True
        plan.notes.append(
            f"groups disjoint by partition key {table.partition_key!r}"
        )
        return plan
    _decompose_aggregation(plan, core)
    return plan


def _decompose_aggregation(
    plan: FragmentPlan, statement: SelectStatement
) -> None:
    """Rewrite *statement* into shard partials + a coordinator merge."""
    if not statement.group_by:
        raise PlanError(
            "global aggregation (no GROUP BY) is not supported; "
            "add a constant group key"
        )
    group_names = [f"__k{i}" for i in range(len(statement.group_by))]
    partial_items: list[SelectItem] = []
    merge_specs: list[AggregateSpec] = []
    replacements: dict[FunctionCall, Expression] = {}

    def partial(function: str, argument, merge_function: str) -> ColumnRef:
        name = f"__p{len(partial_items)}"
        arguments = () if argument is None else (argument,)
        partial_items.append(
            SelectItem(FunctionCall(function, arguments), name)
        )
        merge_specs.append(
            AggregateSpec(merge_function, ColumnRef(name), name)
        )
        return ColumnRef(name)

    def rewrite(expression: Expression) -> Expression:
        for slot, group_expr in enumerate(statement.group_by):
            if _matches_group(expression, group_expr):
                return ColumnRef(group_names[slot])
        if is_aggregate_call(expression):
            cached = replacements.get(expression)
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
            replacements[expression] = replacement
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
            final_names.append(item.expression.name.rsplit(".", 1)[-1])
        else:
            final_names.append(f"col{len(final_names)}")
    having = None
    if statement.having is not None:
        having = rewrite(statement.having)
    plan.merge = "partial"
    plan.group_names = tuple(group_names)
    plan.merge_specs = tuple(merge_specs)
    plan.final_exprs = tuple(final_exprs)
    plan.final_names = tuple(final_names)
    plan.having = having
    # Partial aggregation is not partition-compatible inside a worker
    # (the same group may span worker-local partitions), so the
    # fragment runs one pipeline per shard process.
    plan.parallel_safe = False
    plan.shard_statement = dataclasses.replace(
        statement,
        select_items=tuple(
            SelectItem(group_expr, group_names[slot])
            for slot, group_expr in enumerate(statement.group_by)
        )
        + tuple(partial_items),
        having=None,
    )
    plan.notes.append(
        f"decomposed {len(merge_specs)} partial aggregate(s)"
    )


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


def build_merge_plan(context, fragment: FragmentPlan, source):
    """The coordinator merge pipeline above a GatherExchange *source*."""
    plan = source
    if fragment.merge == "partial":
        plan = HashAggregate(
            context,
            plan,
            [ColumnRef(name) for name in fragment.group_names],
            list(fragment.group_names),
            list(fragment.merge_specs),
        )
        if fragment.having is not None:
            plan = FilterOperator(context, plan, fragment.having)
        plan = ProjectOperator(
            context,
            plan,
            list(fragment.final_exprs),
            list(fragment.final_names),
        )
    if fragment.distinct:
        plan = HashAggregate(
            context,
            plan,
            [ColumnRef(name) for name in plan.schema.names],
            list(plan.schema.names),
            [],
        )
    if fragment.order_by:
        names, ascending = order_keys(fragment.order_by)
        keys = [ColumnRef(name.rsplit(".", 1)[-1]) for name in names]
        plan = SortOperator(context, plan, keys, ascending)
    if fragment.limit is not None:
        plan = LimitOperator(context, plan, fragment.limit, fragment.offset)
    return plan
