"""Logical plan IR and the binder that produces it from the AST.

The binder resolves *every* column reference against the complete scope
of the statement before any rewriting happens.  That is what makes the
optimizer's pushdowns safe: once ``id < 10`` has been resolved to
``f.id < 10`` there is no residual ambiguity, so the predicate can be
moved below a join or a ModelJoin freely (the old single-pass planner
had to keep unqualified predicates above the MODEL JOIN because later
FROM items were still unbound).

Logical nodes carry their qualified output names and an estimated
cardinality; both are recomputed bottom-up after every rewrite pass.
The rendering deliberately uses *logical* operator names ("Join",
"OrderBy", "Aggregate") — strategy names like HashJoin or
OrderedAggregate only appear in the physical plan.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from operator import attrgetter

from repro.db.catalog import Catalog, ModelMetadata
from repro.db.column import ColumnRange, block_pruner
from repro.db.expressions import (
    COMPARISONS,
    BinaryOp,
    CaseWhen,
    Cast,
    ColumnRef,
    Expression,
    FunctionCall,
    Literal,
    UnaryOp,
)
from repro.db.functions import has_function
from repro.db.operators import AggregateSpec
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
from repro.db.table import Table
from repro.db.types import SqlType
from repro.errors import BindError, PlanError

# ----------------------------------------------------------------------
# logical operator tree
# ----------------------------------------------------------------------


class LogicalNode:
    """Base class of logical plan operators."""

    def __init__(self) -> None:
        #: estimated output cardinality (heuristic, recomputed after
        #: every rewrite pass; drives ModelJoin variant selection)
        self.estimated_rows: float = 0.0

    def children(self) -> list["LogicalNode"]:
        return []

    def output_names(self) -> list[str]:
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__

    def estimate(self, inputs: list[float]) -> float:
        """This node's cardinality from its children's (*inputs*)."""
        return inputs[0] if inputs else 0.0

    def render(self, indent: int = 0) -> str:
        """Human-readable logical tree (the EXPLAIN logical section)."""
        line = (
            " " * indent
            + self.describe()
            + f"  [~{int(round(self.estimated_rows))} rows]"
        )
        rendered = [line]
        for child in self.children():
            rendered.append(child.render(indent + 2))
        return "\n".join(rendered)


def scan_estimate(table, ranges) -> float:
    """The rows a scan of *table* is estimated to produce under the
    pruning *ranges*: the rows of the surviving blocks of a disk table,
    else half the table per range."""
    rows = float(table.row_count)
    if ranges:
        surviving = _zone_map_row_estimate(table, ranges)
        if surviving is not None:
            return float(surviving)
    for _ in ranges:
        rows *= 0.5
    return rows


def _zone_map_row_estimate(table, ranges) -> int | None:
    """Rows surviving block pruning, or None for memory tables.

    Disk-resident tables persist per-block zone maps in their column
    file footers, so counting the rows of the blocks that survive the
    derived SMA ranges is exact block-granular cardinality — and free:
    footers are metadata, no block payload is read.  Memory tables
    keep the generic selectivity guess (their stats exist too, but the
    cheap heuristic has the right fidelity for data that was never
    sized for I/O).
    """
    if not getattr(table, "disk_resident", False):
        return None
    may_match = block_pruner(table.schema, ranges)
    surviving = 0
    for partition in table.partitions:
        zones = partition.zoned_blocks()[1]
        rows = zones.rows
        if may_match is not None:
            rows = rows[may_match(zones)]
        surviving += int(rows.sum())
    return surviving


class LogicalScan(LogicalNode):
    """Base-table scan; *columns* are the fetched bare column names."""

    def __init__(self, table: Table, binding: str, columns: list[str]):
        super().__init__()
        self.table = table
        self.binding = binding
        self.columns = list(columns)
        self.ranges: list[ColumnRange] = []
        #: this scan's position among the scans of its plan template
        #: (set on the template's tree; None on a live one)
        self.template_index: int | None = None

    def output_names(self) -> list[str]:
        return [f"{self.binding}.{name}" for name in self.columns]

    def estimate(self, inputs: list[float]) -> float:
        return scan_estimate(self.table, self.ranges)

    def describe(self) -> str:
        parts = [f"Scan({self.table.name}"]
        if len(self.columns) < len(self.table.schema):
            parts.append(f", cols=[{', '.join(self.columns)}]")
        if self.ranges:
            rendered = ", ".join(str(r) for r in self.ranges)
            parts.append(f", prune: {rendered}")
        return "".join(parts) + ")"


class LogicalSubquery(LogicalNode):
    """A FROM-list subquery; *inner* is its own bound query block."""

    def __init__(self, binding: str, inner: LogicalNode):
        super().__init__()
        self.binding = binding
        self.inner = inner

    def children(self) -> list[LogicalNode]:
        return [self.inner]

    def output_names(self) -> list[str]:
        return [
            f"{self.binding}.{name}" for name in self.inner.output_names()
        ]

    def describe(self) -> str:
        return f"Subquery({self.binding})"


class LogicalFilter(LogicalNode):
    def __init__(self, child: LogicalNode, conjuncts: list[Expression]):
        super().__init__()
        self.child = child
        self.conjuncts = list(conjuncts)

    def children(self) -> list[LogicalNode]:
        return [self.child]

    def output_names(self) -> list[str]:
        return self.child.output_names()

    def estimate(self, inputs: list[float]) -> float:
        rows = inputs[0]
        for conjunct in self.conjuncts:
            rows *= _selectivity(conjunct)
        return max(rows, 1.0)

    def describe(self) -> str:
        rendered = " AND ".join(str(c) for c in self.conjuncts)
        return f"Filter({rendered})"


class LogicalJoin(LogicalNode):
    """Inner join; conjuncts start unclassified and the join-key rule
    splits them into hash-key pairs and a residual predicate."""

    def __init__(
        self,
        left: LogicalNode,
        right: LogicalNode,
        conjuncts: list[Expression] | None = None,
    ):
        super().__init__()
        self.left = left
        self.right = right
        self.conjuncts: list[Expression] = list(conjuncts or [])
        self.left_keys: list[Expression] = []
        self.right_keys: list[Expression] = []
        self.residual: list[Expression] = []

    def children(self) -> list[LogicalNode]:
        return [self.left, self.right]

    def output_names(self) -> list[str]:
        return self.left.output_names() + self.right.output_names()

    def estimate(self, inputs: list[float]) -> float:
        left, right = inputs
        if self.left_keys:
            rows = max(left, right)
        elif self.conjuncts:
            rows = left * right * 0.5
        else:
            rows = left * right
        for _ in self.residual:
            rows *= 0.5
        return max(rows, 1.0)

    def describe(self) -> str:
        if self.left_keys:
            keys = ", ".join(
                f"{left} = {right}"
                for left, right in zip(self.left_keys, self.right_keys)
            )
            base = f"Join(keys: {keys}"
            if self.residual:
                rendered = " AND ".join(str(c) for c in self.residual)
                base += f", residual: {rendered}"
            return base + ")"
        if self.conjuncts:
            rendered = " AND ".join(str(c) for c in self.conjuncts)
            return f"Join(on: {rendered})"
        return "Join(cross)"


class LogicalModelJoin(LogicalNode):
    """The MODEL JOIN extension as a first-class logical operator."""

    def __init__(
        self,
        child: LogicalNode,
        model_name: str,
        metadata: ModelMetadata,
        model_table: Table,
        input_columns: list[str] | None,
        output_prefix: str,
        variant_override: str | None = None,
        version: int | None = None,
    ):
        super().__init__()
        self.child = child
        self.model_name = model_name
        self.metadata = metadata
        self.model_table = model_table
        self.input_columns = input_columns
        self.output_prefix = output_prefix
        self.variant_override = variant_override
        self.version = version
        #: filled by the planner's variant-selection step (physical.py)
        self.selection = None

    @property
    def binding(self) -> str:
        return self.model_name.lower()

    def prediction_names(self) -> list[str]:
        return [
            f"{self.binding}.{self.output_prefix}_{index}"
            for index in range(self.metadata.output_width)
        ]

    def children(self) -> list[LogicalNode]:
        return [self.child]

    def output_names(self) -> list[str]:
        return self.child.output_names() + self.prediction_names()

    def describe(self) -> str:
        inputs = (
            ", ".join(self.input_columns) if self.input_columns else "auto"
        )
        base = f"ModelJoin(model={self.metadata.model_name}, inputs=[{inputs}]"
        if self.version is not None:
            base += f", version={self.version}"
        if self.variant_override:
            base += f", variant={self.variant_override}"
        elif self.selection is not None:
            base += f", variant={self.selection.chosen}"
        return base + ")"


class LogicalProject(LogicalNode):
    def __init__(
        self,
        child: LogicalNode,
        expressions: list[Expression],
        names: list[str],
    ):
        super().__init__()
        self.child = child
        self.expressions = list(expressions)
        self.names = list(names)

    def children(self) -> list[LogicalNode]:
        return [self.child]

    def output_names(self) -> list[str]:
        return list(self.names)

    def describe(self) -> str:
        return f"Project({', '.join(self.names)})"


class LogicalAggregate(LogicalNode):
    def __init__(
        self,
        child: LogicalNode,
        group_exprs: list[Expression],
        group_names: list[str],
        aggregates: list[AggregateSpec],
    ):
        super().__init__()
        self.child = child
        self.group_exprs = list(group_exprs)
        self.group_names = list(group_names)
        self.aggregates = list(aggregates)

    def children(self) -> list[LogicalNode]:
        return [self.child]

    def output_names(self) -> list[str]:
        return self.group_names + [spec.name for spec in self.aggregates]

    def estimate(self, inputs: list[float]) -> float:
        return max(inputs[0] / 10.0, 1.0)

    def describe(self) -> str:
        groups = ", ".join(str(e) for e in self.group_exprs)
        aggs = ", ".join(
            f"{spec.function}({spec.argument if spec.argument else '*'})"
            for spec in self.aggregates
        )
        return f"Aggregate(group=[{groups}], aggs=[{aggs}])"


class LogicalDistinct(LogicalNode):
    def __init__(self, child: LogicalNode):
        super().__init__()
        self.child = child

    def children(self) -> list[LogicalNode]:
        return [self.child]

    def output_names(self) -> list[str]:
        return self.child.output_names()

    def estimate(self, inputs: list[float]) -> float:
        return max(inputs[0] * 0.5, 1.0)

    def describe(self) -> str:
        return "Distinct"


class LogicalOrderBy(LogicalNode):
    """Rendered as "OrderBy": "Sort" is a physical-strategy name and
    the physical plan may elide it entirely (sort-order elision)."""

    def __init__(
        self, child: LogicalNode, keys: list[str], ascending: list[bool]
    ):
        super().__init__()
        self.child = child
        self.keys = list(keys)
        self.ascending = list(ascending)

    def children(self) -> list[LogicalNode]:
        return [self.child]

    def output_names(self) -> list[str]:
        return self.child.output_names()

    def describe(self) -> str:
        rendered = ", ".join(
            f"{key} {'asc' if asc else 'desc'}"
            for key, asc in zip(self.keys, self.ascending)
        )
        return f"OrderBy({rendered})"


class LogicalLimit(LogicalNode):
    def __init__(self, child: LogicalNode, limit: int, offset: int = 0):
        super().__init__()
        self.child = child
        self.limit = limit
        self.offset = offset

    def children(self) -> list[LogicalNode]:
        return [self.child]

    def output_names(self) -> list[str]:
        return self.child.output_names()

    def estimate(self, inputs: list[float]) -> float:
        return min(float(self.limit), inputs[0])

    def describe(self) -> str:
        return f"Limit({self.limit}, offset={self.offset})"


def recompute_estimates(node: LogicalNode) -> None:
    """Refresh cardinality estimates bottom-up."""
    children = node.children()
    for child in children:
        recompute_estimates(child)
    node.estimated_rows = node.estimate(
        [child.estimated_rows for child in children]
    )


def estimate_rows(node: LogicalNode, scan_rows) -> float:
    """*node*'s cardinality with each scan's taken from *scan_rows*
    (a ``LogicalScan -> float`` function), leaving the tree untouched:
    how a plan-cache hit estimates a template's ModelJoin inputs."""
    if isinstance(node, LogicalScan):
        return scan_rows(node)
    return node.estimate(
        [estimate_rows(child, scan_rows) for child in node.children()]
    )


def walk(
    node: LogicalNode, into_subqueries: bool = True
) -> list[LogicalNode]:
    """All nodes of the tree, parents before children."""
    nodes = [node]
    if isinstance(node, LogicalSubquery) and not into_subqueries:
        return nodes
    for child in node.children():
        nodes.extend(walk(child, into_subqueries))
    return nodes


def _selectivity(conjunct: Expression) -> float:
    if isinstance(conjunct, BinaryOp):
        if conjunct.operator == "=":
            return 0.1
        if conjunct.operator in ("<", "<=", ">", ">="):
            return 0.3
    return 0.5


# ----------------------------------------------------------------------
# name resolution
# ----------------------------------------------------------------------
@dataclass
class Scope:
    """Name-resolution scope over the qualified columns of a relation."""

    qualified: dict[str, str] = field(default_factory=dict)
    by_bare_name: dict[str, list[str]] = field(default_factory=dict)
    #: SQL type of each qualified column (lowercase), None if unknown
    types: dict[str, SqlType | None] = field(default_factory=dict)

    def add(self, binding: str, column: str, sql_type=None) -> None:
        qualified = f"{binding}.{column}"
        self.qualified[qualified.lower()] = qualified
        self.by_bare_name.setdefault(column.lower(), []).append(qualified)
        self.types[qualified.lower()] = sql_type

    def type_of(self, name: str) -> SqlType:
        """:meth:`Schema.type_of`, for :meth:`Expression.output_type`."""
        if self.types.get(name.lower()) is None:
            raise BindError(f"type of column {name!r} is not known")
        return self.types[name.lower()]

    def resolve(self, name: str) -> str:
        key = name.lower()
        if key in self.qualified:
            return self.qualified[key]
        candidates = self.by_bare_name.get(key, [])
        if len(candidates) == 1:
            return candidates[0]
        if not candidates:
            raise BindError(f"column {name!r} not found")
        raise BindError(
            f"column {name!r} is ambiguous: {sorted(candidates)}"
        )


# ----------------------------------------------------------------------
# expression utilities (shared by binder, rules and lowering)
# ----------------------------------------------------------------------
def split_conjuncts(expression: Expression) -> list[Expression]:
    if isinstance(expression, BinaryOp) and expression.operator == "AND":
        return split_conjuncts(expression.left) + split_conjuncts(
            expression.right
        )
    return [expression]


def conjoin(conjuncts: list[Expression]) -> Expression:
    result = conjuncts[0]
    for conjunct in conjuncts[1:]:
        result = BinaryOp("AND", result, conjunct)
    return result


def rebuild(
    expression: Expression, transform: Callable[[Expression], Expression]
) -> Expression:
    """Rebuild *expression* with *transform* applied to its children."""
    if isinstance(expression, BinaryOp):
        return BinaryOp(
            expression.operator,
            transform(expression.left),
            transform(expression.right),
        )
    if isinstance(expression, UnaryOp):
        return UnaryOp(expression.operator, transform(expression.operand))
    if isinstance(expression, FunctionCall):
        return FunctionCall(
            expression.name,
            tuple(transform(argument) for argument in expression.arguments),
        )
    if isinstance(expression, CaseWhen):
        return CaseWhen(
            tuple(
                (transform(condition), transform(value))
                for condition, value in expression.branches
            ),
            transform(expression.otherwise)
            if expression.otherwise is not None
            else None,
        )
    if isinstance(expression, Cast):
        return Cast(transform(expression.operand), expression.target)
    return expression


def resolve_expression(expression: Expression, scope: Scope) -> Expression:
    """Resolve all column references in *expression* against *scope*;
    a comparison of a VARCHAR with a number of known types raises
    :class:`~repro.errors.TypeMismatchError`."""

    def transform(node: Expression) -> Expression:
        if isinstance(node, ColumnRef):
            return ColumnRef(scope.resolve(node.name))
        if isinstance(node, FunctionCall) and not has_function(node.name):
            if node.name not in ("SUM", "COUNT", "MIN", "MAX", "AVG"):
                raise BindError(f"unknown function {node.name!r}")
        resolved = rebuild(node, transform)
        if isinstance(resolved, BinaryOp) and resolved.operator in COMPARISONS:
            type_in_scope(resolved, scope)
        return resolved

    return transform(expression)


#: aggregates whose output type is not their argument's
_AGGREGATE_TYPES = {"COUNT": SqlType.INTEGER, "AVG": SqlType.DOUBLE}


class _AggregateScope:
    """*scope* plus the types of the aggregate outputs an expression
    reads (:func:`type_in_scope` names each one)."""

    def __init__(self, scope: Scope):
        self.scope = scope
        self.types: dict[str, SqlType] = {}

    def type_of(self, name: str) -> SqlType:
        sql_type = self.types.get(name)
        return self.scope.type_of(name) if sql_type is None else sql_type


def type_in_scope(expression: Expression, scope: Scope) -> SqlType | None:
    """Type of a resolved *expression*, None where the binder cannot tell
    (a column of unknown type).  An aggregate is typed as its output:
    SUM, MIN and MAX take their argument's type, COUNT is INTEGER and
    AVG is DOUBLE."""
    outputs = _AggregateScope(scope)

    def typed(node: Expression) -> Expression:
        if not is_aggregate_call(node):
            return rebuild(node, typed)
        sql_type = _AGGREGATE_TYPES.get(node.name)
        if sql_type is None:
            if len(node.arguments) != 1:
                raise BindError(f"{node.name} takes exactly one argument")
            sql_type = node.arguments[0].output_type(scope)
        # a name no column has: it holds a space
        name = f"aggregate {len(outputs.types)}"
        outputs.types[name] = sql_type
        return ColumnRef(name)

    try:
        return typed(expression).output_type(outputs)
    except BindError:
        return None


def bindings_of(expression: Expression) -> set[str]:
    """Binding names referenced by a fully resolved expression."""
    return {
        name.split(".", 1)[0]
        for name in expression.referenced_columns()
        if "." in name
    }


def contains_aggregate(expression: Expression) -> bool:
    if is_aggregate_call(expression):
        return True
    found = False

    def transform(node: Expression) -> Expression:
        nonlocal found
        if is_aggregate_call(node):
            found = True
            return node
        return rebuild(node, transform)

    rebuild(expression, transform)
    return found


def equi_key_pair(
    conjunct: Expression, left_bindings: set[str], right_bindings: set[str]
) -> tuple[Expression, Expression] | None:
    """If *conjunct* is ``left_expr = right_expr`` across the two sides,
    return the (left, right) key expressions, else None."""
    if not isinstance(conjunct, BinaryOp) or conjunct.operator != "=":
        return None
    first = bindings_of(conjunct.left)
    second = bindings_of(conjunct.right)
    if not first or not second:
        return None
    if first <= left_bindings and second <= right_bindings:
        return conjunct.left, conjunct.right
    if first <= right_bindings and second <= left_bindings:
        return conjunct.right, conjunct.left
    return None


def extract_ranges(
    conjuncts: list[Expression],
    binding: str,
    table_schema,
    value_of: Callable[[Literal], object] = attrgetter("value"),
) -> list[ColumnRange]:
    """Turn pushable comparisons with literals into SMA pruning ranges.

    Works on fully *resolved* conjuncts, whose column references are
    all qualified — a reference belongs to this scan iff its qualifier
    is *binding*.  *value_of* reads a literal's value (a plan-cache hit
    reads its own statement's values by slot).
    """
    ranges: dict[str, ColumnRange] = {}
    for conjunct in conjuncts:
        extracted = range_of_conjunct(conjunct, binding, value_of)
        if extracted is None:
            continue
        if not table_schema.has_column(extracted.column):
            continue
        key = extracted.column.lower()
        if key in ranges:
            ranges[key] = ranges[key].intersect(extracted)
        else:
            ranges[key] = extracted
    return list(ranges.values())


def range_of_conjunct(
    conjunct: Expression,
    binding: str,
    value_of: Callable[[Literal], object] = attrgetter("value"),
) -> ColumnRange | None:
    """The pruning range one conjunct implies on this scan, if any.

    An ``OR`` tree of equalities on one column — what ``IN (...)``
    parses to — becomes one point union; any other ``OR`` (a
    comparison branch, two columns) implies nothing prunable.
    """
    if not isinstance(conjunct, BinaryOp):
        return None
    operator = conjunct.operator
    left, right = conjunct.left, conjunct.right
    if operator == "OR":
        left = range_of_conjunct(left, binding, value_of)
        right = range_of_conjunct(right, binding, value_of)
        if (
            left is None
            or right is None
            or left.points is None
            or right.points is None
            or left.column.lower() != right.column.lower()
        ):
            return None
        return ColumnRange.of_points(left.column, left.points + right.points)
    if isinstance(left, Literal) and isinstance(right, ColumnRef):
        flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
        operator = flipped.get(operator, operator)
        left, right = right, left
    if not (isinstance(left, ColumnRef) and isinstance(right, Literal)):
        return None
    value = value_of(right)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return None
    item_binding, _, column = left.name.partition(".")
    if not column or item_binding.lower() != binding:
        return None
    value = float(value)
    if math.isnan(value):
        return None  # NaN is unordered: it bounds nothing
    if operator == "=":
        return ColumnRange.of_points(column, (value,))
    if operator == "<":
        return ColumnRange(column, None, value)
    if operator == "<=":
        return ColumnRange(column, None, value)
    if operator == ">":
        return ColumnRange(column, value, None)
    if operator == ">=":
        return ColumnRange(column, value, None)
    return None


def order_keys(
    order_by: tuple[OrderItem, ...],
    select_exprs: list[Expression],
    output_names: list[str],
    scope: Scope,
) -> tuple[list[str], list[bool]]:
    """The output columns an ORDER BY sorts on, and their directions.

    A key names an output column as written, or is a column reference
    resolving to the same column as a select-list item:
    ``SELECT t.id AS x FROM t ORDER BY t.id`` sorts on ``x``.  The
    binder resolves the keys once; the thread and shard merges sort on
    the bound keys (:func:`repro.db.plan.fragments.plan_fragments`).
    """
    available = [name.lower() for name in output_names]
    keys: list[str] = []
    for item in order_by:
        expression = item.expression
        if not isinstance(expression, ColumnRef):
            raise PlanError("ORDER BY supports only output column references")
        if expression.name.lower() in available:
            keys.append(expression.name)
            continue
        try:
            resolved = ColumnRef(scope.resolve(expression.name))
        except BindError:
            resolved = None
        matches = [
            name
            for select, name in zip(select_exprs, output_names)
            if select == resolved
        ]
        if not matches:
            raise BindError(
                f"column {expression.name!r} not found; "
                f"available: {list(output_names)}"
            )
        keys.append(matches[0])
    return keys, [item.ascending for item in order_by]


def bare_name(qualified: str, taken: list[str]) -> str:
    bare = qualified.split(".", 1)[1] if "." in qualified else qualified
    lowered = [name.lower() for name in taken]
    if bare.lower() not in lowered:
        return bare
    # Collision (e.g. SELECT * over a join with same-named columns):
    # fall back to a disambiguated name.
    candidate = qualified.replace(".", "_")
    suffix = 0
    while candidate.lower() in lowered:
        suffix += 1
        candidate = f"{qualified.replace('.', '_')}_{suffix}"
    return candidate


# ----------------------------------------------------------------------
# binder: AST -> logical tree
# ----------------------------------------------------------------------
class LogicalBinder:
    """Binds a SELECT statement into a resolved logical tree."""

    def __init__(self, catalog: Catalog, has_modeljoin_factory: bool):
        self.catalog = catalog
        self.has_modeljoin_factory = has_modeljoin_factory

    def bind(self, statement: SelectStatement) -> LogicalNode:
        return self._bind_block(statement)[0]

    def _bind_block(self, statement: SelectStatement):
        """The bound block and its output columns' types (or None)."""
        scope = Scope()
        items = [
            self._bind_from_item(item, scope)
            for item in statement.from_items
        ]
        root = items[0]
        for item in items[1:]:
            root = LogicalJoin(root, item)
        conjuncts = (
            split_conjuncts(statement.where) if statement.where else []
        )
        resolved = [
            resolve_expression(conjunct, scope) for conjunct in conjuncts
        ]
        if resolved:
            root = LogicalFilter(root, resolved)

        group_exprs = [
            resolve_expression(expression, scope)
            for expression in statement.group_by
        ]
        select_exprs, select_names = self._resolve_select_list(
            statement.select_items, scope, root
        )
        having = (
            resolve_expression(statement.having, scope)
            if statement.having is not None
            else None
        )
        has_aggregates = any(
            contains_aggregate(expression) for expression in select_exprs
        ) or (having is not None and contains_aggregate(having))
        if group_exprs or has_aggregates:
            root = self._bind_aggregation(
                root, group_exprs, select_exprs, select_names, having
            )
        else:
            root = LogicalProject(root, select_exprs, select_names)

        if statement.distinct:
            root = LogicalDistinct(root)
        if statement.order_by:
            keys, ascending = order_keys(
                statement.order_by, select_exprs, select_names, scope
            )
            root = LogicalOrderBy(root, keys, ascending)
        if statement.limit is not None:
            root = LogicalLimit(root, statement.limit, statement.offset)
        recompute_estimates(root)
        return root, [type_in_scope(e, scope) for e in select_exprs]

    # ------------------------------------------------------------------
    # FROM clause
    # ------------------------------------------------------------------
    def _bind_from_item(self, item: FromItem, scope: Scope) -> LogicalNode:
        if isinstance(item, TableRef):
            table = self.catalog.table(item.table_name)
            binding = item.binding_name.lower()
            for column in table.schema:
                scope.add(binding, column.name, column.sql_type)
            return LogicalScan(table, binding, list(table.schema.names))
        if isinstance(item, SubqueryRef):
            inner, types = self._bind_block(item.query)
            binding = item.alias.lower()
            for name, sql_type in zip(inner.output_names(), types):
                scope.add(binding, name, sql_type)
            return LogicalSubquery(binding, inner)
        if isinstance(item, JoinRef):
            left = self._bind_from_item(item.left, scope)
            right = self._bind_from_item(item.right, scope)
            # The ON condition is resolved mid-FROM against the partial
            # scope, preserving ANSI name-visibility semantics.
            condition = resolve_expression(item.condition, scope)
            return LogicalJoin(left, right, [condition])
        if isinstance(item, ModelJoinRef):
            return self._bind_model_join(item, scope)
        raise PlanError(f"unsupported FROM item {type(item).__name__}")

    def _bind_model_join(
        self, item: ModelJoinRef, scope: Scope
    ) -> LogicalNode:
        if not self.has_modeljoin_factory:
            raise PlanError(
                "MODEL JOIN is not available: no ModelJoin operator factory "
                "is registered (import repro.core or use Database from "
                "repro, not repro.db)"
            )
        left = self._bind_from_item(item.left, scope)
        version = getattr(item, "version", None)
        metadata = self.catalog.model(item.model_name, version)
        model_table = self.catalog.table(metadata.table_name)
        input_columns = [
            scope.resolve(name) for name in item.input_columns
        ] or None
        node = LogicalModelJoin(
            left,
            item.model_name,
            metadata,
            model_table,
            input_columns,
            item.output_prefix,
            variant_override=getattr(item, "variant", None),
            version=version,
        )
        for index in range(metadata.output_width):
            name = f"{item.output_prefix}_{index}"
            scope.add(node.binding, name, SqlType.FLOAT)
        return node

    # ------------------------------------------------------------------
    # SELECT list / aggregation / ORDER BY
    # ------------------------------------------------------------------
    def _resolve_select_list(
        self,
        items: tuple[SelectItem, ...],
        scope: Scope,
        root: LogicalNode,
    ) -> tuple[list[Expression], list[str]]:
        expressions: list[Expression] = []
        names: list[str] = []
        for item in items:
            if isinstance(item.expression, Star):
                qualifier = (
                    item.expression.qualifier.lower()
                    if item.expression.qualifier
                    else None
                )
                for qualified in self._expand_star(root, qualifier):
                    expressions.append(ColumnRef(qualified))
                    names.append(bare_name(qualified, names))
                continue
            expression = resolve_expression(item.expression, scope)
            expressions.append(expression)
            if item.alias:
                names.append(item.alias)
            elif isinstance(expression, ColumnRef):
                names.append(bare_name(expression.name, names))
            else:
                names.append(f"col{len(names)}")
        lowered = [name.lower() for name in names]
        if len(set(lowered)) != len(lowered):
            raise PlanError(f"duplicate output column names: {names}")
        return expressions, names

    @staticmethod
    def _expand_star(root: LogicalNode, qualifier: str | None) -> list[str]:
        names = []
        for name in root.output_names():
            binding = name.split(".", 1)[0].lower() if "." in name else ""
            if qualifier is None or binding == qualifier:
                names.append(name)
        if not names:
            raise BindError(f"no columns match {qualifier}.*")
        return names

    def _bind_aggregation(
        self,
        root: LogicalNode,
        group_exprs: list[Expression],
        select_exprs: list[Expression],
        select_names: list[str],
        having: Expression | None,
    ) -> LogicalNode:
        if not group_exprs:
            raise PlanError(
                "global aggregation (no GROUP BY) is not supported; "
                "add a constant group key"
            )
        group_names = [f"__g{i}" for i in range(len(group_exprs))]
        aggregates: list[AggregateSpec] = []

        def rewrite(expression: Expression) -> Expression:
            for slot, group_expr in enumerate(group_exprs):
                if expression == group_expr:
                    return ColumnRef(group_names[slot])
            if is_aggregate_call(expression):
                argument = None
                if expression.arguments:
                    if len(expression.arguments) != 1:
                        raise PlanError(
                            f"{expression.name} takes exactly one argument"
                        )
                    argument = expression.arguments[0]
                    if contains_aggregate(argument):
                        raise PlanError("nested aggregates are not allowed")
                name = f"__a{len(aggregates)}"
                aggregates.append(
                    AggregateSpec(expression.name, argument, name)
                )
                return ColumnRef(name)
            return rebuild(expression, rewrite)

        rewritten_select = [rewrite(expression) for expression in select_exprs]
        rewritten_having = rewrite(having) if having is not None else None
        generated = set(group_names) | {spec.name for spec in aggregates}
        for expression, name in zip(rewritten_select, select_names):
            stray = expression.referenced_columns() - generated
            if stray:
                raise PlanError(
                    f"column(s) {sorted(stray)} in select item {name!r} "
                    "appear neither in GROUP BY nor inside an aggregate"
                )
        result: LogicalNode = LogicalAggregate(
            root, group_exprs, group_names, aggregates
        )
        if rewritten_having is not None:
            result = LogicalFilter(
                result, split_conjuncts(rewritten_having)
            )
        return LogicalProject(result, rewritten_select, select_names)
