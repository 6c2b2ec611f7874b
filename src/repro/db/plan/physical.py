"""Lowering: logical plan -> physical operators, with cost-based
selection of the ModelJoin execution variant.

The variant decision happens once per statement (in
``select_variants``), *before* per-partition lowering, so all
partition pipelines of a parallel query execute the same variant.  A
pluggable selector (installed by ``repro.core.attach``; see
``repro.core.cost.selector``) ranks all execution variants the system
implements — native CPU/GPU, ML-To-SQL, runtime API, UDF, external —
by predicted runtime from the calibrated inference cost model and the
optimizer's input-cardinality estimate.  Only the native variants can
run *inside* a query plan; the full ranking is still recorded on the
plan because EXPLAIN prints it and the resilience layer executes it as
its fallback chain.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.db.compile import (
    FusedPipeline,
    KernelCompiler,
    KernelOutput,
    KernelSpec,
    project_outputs,
)
from repro.db.column import BLOCK_SIZE
from repro.db.expressions import ColumnRef, Expression, FunctionCall
from repro.db.operators import (
    CrossJoin,
    ExecutionContext,
    HashAggregate,
    HashJoin,
    LimitOperator,
    OrderedAggregate,
    PhysicalOperator,
    SortOperator,
    TableScan,
)
from repro.db.operators.aggregate import (
    AggregateSpec,
    SegmentedAggregate,
    input_outputs,
)
from repro.db.operators.misc import RenameOperator
from repro.db.plan.logical import (
    LogicalAggregate,
    LogicalDistinct,
    LogicalFilter,
    LogicalJoin,
    LogicalLimit,
    LogicalModelJoin,
    LogicalNode,
    LogicalOrderBy,
    LogicalProject,
    LogicalScan,
    LogicalSubquery,
    conjoin,
    rebuild,
    walk,
)
from repro.errors import PlanError

#: variants that can execute inside a physical query plan; the others
#: (ml-to-sql, runtime-api, udf, external) run through their dedicated
#: runners outside the Volcano pipeline
IN_PLAN_VARIANTS = ("native-cpu", "native-gpu")

#: every execution variant the system implements, canonical order
ALL_VARIANTS = (
    "native-cpu",
    "native-gpu",
    "ml-to-sql",
    "runtime-api",
    "udf",
    "external",
)


@dataclass(frozen=True)
class VariantEstimate:
    """Predicted cost of one ModelJoin execution variant."""

    variant: str
    predicted_seconds: float
    in_plan: bool


@dataclass(frozen=True)
class VariantSelection:
    """The optimizer's per-query ModelJoin variant decision."""

    model_name: str
    tuples: int
    flops_per_tuple: float
    estimates: tuple[VariantEstimate, ...]
    chosen: str
    reason: str

    def ranked(self) -> tuple[VariantEstimate, ...]:
        return tuple(
            sorted(self.estimates, key=lambda e: e.predicted_seconds)
        )


def select_variants(root: LogicalNode, selector, metrics=None):
    """Pick the execution variant for every ModelJoin in the plan.

    Mutates each :class:`LogicalModelJoin` node's ``selection`` and
    returns the list of selections.  *selector* is duck-typed (see
    ``repro.core.cost.selector.CostBasedVariantSelector``) or None,
    in which case the native CPU operator is used unconditionally.
    """
    selections: list[VariantSelection] = []
    for node in walk(root):
        if not isinstance(node, LogicalModelJoin):
            continue
        tuples = max(int(round(node.child.estimated_rows)), 1)
        estimates: tuple[VariantEstimate, ...] = ()
        flops = 0.0
        if selector is not None:
            estimates = tuple(selector.rank(node.metadata, tuples))
            flops = selector.flops_per_tuple(node.metadata)
        if node.variant_override is not None:
            chosen = node.variant_override
            if chosen not in IN_PLAN_VARIANTS:
                raise PlanError(
                    f"variant {chosen!r} cannot run inside a query plan; "
                    f"in-plan variants are {list(IN_PLAN_VARIANTS)}"
                )
            reason = "explicit override (VARIANT clause)"
        elif estimates:
            in_plan = [e for e in estimates if e.in_plan]
            best = min(in_plan, key=lambda e: e.predicted_seconds)
            chosen = best.variant
            reason = (
                f"lowest predicted cost among in-plan variants "
                f"({best.predicted_seconds * 1e3:.3f} ms for "
                f"~{tuples} tuples)"
            )
        else:
            chosen = "native-cpu"
            reason = "default (no cost selector installed)"
        selection = VariantSelection(
            model_name=node.metadata.model_name,
            tuples=tuples,
            flops_per_tuple=flops,
            estimates=estimates,
            chosen=chosen,
            reason=reason,
        )
        node.selection = selection
        selections.append(selection)
        if metrics is not None:
            metrics.counter("planner.variant_selected").increment()
            metrics.counter(
                f"planner.variant_selected.{chosen}"
            ).increment()
    return selections


class Lowering:
    """Lowers one bound+optimized logical tree to physical operators."""

    def __init__(
        self,
        context: ExecutionContext,
        options,
        modeljoin_factory,
        compiler: KernelCompiler,
        partition_index: int | None = None,
    ):
        self.context = context
        self.options = options
        self.modeljoin_factory = modeljoin_factory
        #: answers each pipeline segment's one kernel request (generated
        #: or interpreted, see KernelCompiler.generate)
        self.compiler = compiler
        self.partition_index = partition_index

    def lower(self, node: LogicalNode) -> PhysicalOperator:
        if isinstance(node, LogicalScan):
            return self._lower_scan(node)
        if isinstance(node, LogicalSubquery):
            inner = self.lower(node.inner)
            names = [
                f"{node.binding}.{name}" for name in inner.schema.names
            ]
            return RenameOperator(self.context, inner, names)
        if isinstance(node, LogicalFilter):
            return pipeline(
                self.context,
                self.compiler,
                self.lower(node.child),
                node.conjuncts,
            )
        if isinstance(node, LogicalJoin):
            return self._lower_join(node)
        if isinstance(node, LogicalModelJoin):
            return self._lower_model_join(node)
        if isinstance(node, LogicalProject):
            return self._lower_project(node)
        if isinstance(node, LogicalAggregate):
            return self._lower_aggregate(node)
        if isinstance(node, LogicalDistinct):
            child = self.lower(node.child)
            return HashAggregate(
                self.context,
                child,
                [ColumnRef(name) for name in child.schema.names],
                list(child.schema.names),
                [],
            )
        if isinstance(node, LogicalOrderBy):
            return self._lower_order_by(node)
        if isinstance(node, LogicalLimit):
            if isinstance(node.child, LogicalOrderBy):
                child = self._lower_order_by(
                    node.child, top=node.limit + node.offset
                )
            else:
                child = self.lower(node.child)
            return LimitOperator(
                self.context, child, node.limit, node.offset
            )
        raise PlanError(
            f"cannot lower logical node {type(node).__name__}"
        )  # pragma: no cover - all node types are handled above

    def _lower_project(self, node: LogicalProject) -> PhysicalOperator:
        child_node = node.child
        predicates: list = []
        if isinstance(child_node, LogicalFilter):
            # Absorb the adjacent filter into one filter→project segment.
            child = self.lower(child_node.child)
            predicates = list(child_node.conjuncts)
        else:
            child = self.lower(child_node)
        return pipeline(
            self.context,
            self.compiler,
            child,
            predicates,
            node.expressions,
            node.names,
        )

    # ------------------------------------------------------------------
    def _lower_scan(self, node: LogicalScan) -> PhysicalOperator:
        scan_partition = self.partition_index
        if (
            self.partition_index is not None
            and node.table.num_partitions == 1
        ):
            scan_partition = None  # broadcast unpartitioned tables
        columns = (
            node.columns
            if len(node.columns) < len(node.table.schema)
            else None
        )
        scan = TableScan(
            self.context,
            node.table,
            ranges=node.ranges or None,
            partition_index=scan_partition,
            columns=columns,
        )
        names = [f"{node.binding}.{name}" for name in node.columns]
        return RenameOperator(self.context, scan, names)

    def _lower_join(self, node: LogicalJoin) -> PhysicalOperator:
        left = self.lower(node.left)
        right = self.lower(node.right)
        if node.left_keys:
            residual = conjoin(node.residual) if node.residual else None
            return HashJoin(
                self.context,
                left,
                right,
                node.left_keys,
                node.right_keys,
                residual,
            )
        # No extracted keys: either a true cross join or unclassified
        # conjuncts (rule engine disabled) applied as a residual filter.
        residual_conjuncts = node.residual + node.conjuncts
        joined: PhysicalOperator = CrossJoin(self.context, left, right)
        if residual_conjuncts:
            joined = pipeline(
                self.context, self.compiler, joined, residual_conjuncts
            )
        return joined

    def _lower_model_join(
        self, node: LogicalModelJoin
    ) -> PhysicalOperator:
        if self.modeljoin_factory is None:
            raise PlanError(
                "MODEL JOIN is not available: no ModelJoin operator factory "
                "is registered (import repro.core or use Database from "
                "repro, not repro.db)"
            )
        child = self.lower(node.child)
        operator = self.modeljoin_factory(
            context=self.context,
            child=child,
            metadata=node.metadata,
            model_table=node.model_table,
            input_columns=node.input_columns,
            output_prefix=f"{node.binding}.{node.output_prefix}",
            partition_index=self.partition_index,
            variant=(
                node.selection.chosen if node.selection is not None else None
            ),
        )
        scan = feeding_scan(child)
        if scan is not None:
            scan.vector_size = operator.batch_rows
        return operator

    def _lower_aggregate(
        self, node: LogicalAggregate
    ) -> PhysicalOperator:
        child_node = node.child
        predicates: list = []
        if isinstance(child_node, LogicalFilter):
            # Absorb the adjacent filter into the aggregate's input
            # kernel.  Selection preserves ordering, so choosing the
            # aggregation strategy against the grandchild's ordering is
            # equivalent to choosing it above the filter.
            child = self.lower(child_node.child)
            predicates = list(child_node.conjuncts)
        else:
            child = self.lower(child_node)

        group_exprs = list(node.group_exprs)
        group_names = list(node.group_names)
        strategy = "hash"
        prefix_length = 0
        if self.options.use_ordered_aggregation and all(
            isinstance(expression, ColumnRef)
            for expression in node.group_exprs
        ):
            keys = {
                expression.name.lower()
                for expression in node.group_exprs
            }
            prefix = {
                name.lower() for name in child.ordering[: len(keys)]
            }
            if prefix == keys:
                strategy = "ordered"
        if strategy == "hash" and getattr(
            self.options, "use_segmented_aggregation", False
        ):
            layout = self._segmented_layout(child, node)
            if layout is not None:
                order, prefix_length = layout
                group_exprs = [node.group_exprs[i] for i in order]
                group_names = [node.group_names[i] for i in order]
                strategy = "segmented"

        child, kernel = filtered_segment(
            self.context,
            self.compiler,
            child,
            predicates,
            input_outputs(group_exprs, group_names, node.aggregates),
            "aggregate-input",
        )
        if strategy == "ordered":
            return OrderedAggregate(
                self.context,
                child,
                group_exprs,
                group_names,
                node.aggregates,
                kernel=kernel,
            )
        if strategy == "segmented":
            return SegmentedAggregate(
                self.context,
                child,
                group_exprs,
                group_names,
                node.aggregates,
                prefix_length=prefix_length,
                kernel=kernel,
            )
        scan = feeding_scan(child)
        if scan is not None and not _calls_function(node):
            # Grouping is indifferent to batch boundaries: take whole
            # blocks (in whole scan vectors), unless a function — a UDF
            # the paper calls once per scan vector — evaluates the input.
            vector = self.context.vector_size
            scan.vector_size = max(vector, BLOCK_SIZE - BLOCK_SIZE % vector)
        return HashAggregate(
            self.context,
            child,
            group_exprs,
            group_names,
            node.aggregates,
            kernel=kernel,
        )

    def _segmented_layout(
        self, child: PhysicalOperator, node: LogicalAggregate
    ) -> tuple[list[int], int] | None:
        """Group-key reordering for SegmentedAggregate, when the input
        ordering covers a proper, non-empty prefix of the group keys
        (paper §4.4).  Returns (key order, prefix length) or None."""
        bare = {}
        for index, expression in enumerate(node.group_exprs):
            if isinstance(expression, ColumnRef):
                bare.setdefault(expression.name.lower(), index)
        prefix_indices: list[int] = []
        seen: set[int] = set()
        for name in child.ordering:
            index = bare.get(name.lower())
            if index is None or index in seen:
                break
            prefix_indices.append(index)
            seen.add(index)
        if not prefix_indices or len(prefix_indices) >= len(
            node.group_exprs
        ):
            return None
        order = prefix_indices + [
            index
            for index in range(len(node.group_exprs))
            if index not in seen
        ]
        return order, len(prefix_indices)

    def _lower_order_by(
        self, node: LogicalOrderBy, top: int | None = None
    ) -> PhysicalOperator:
        """*top*: a LIMIT above keeps only that many leading rows."""
        child = self.lower(node.child)
        keys = [ColumnRef(name) for name in node.keys]
        for key in keys:
            child.schema.position_of(key.name)  # validate
        # Skip the sort if the required order is already guaranteed.
        wanted = tuple(key.name.lower() for key in keys)
        have = tuple(name.lower() for name in child.ordering)
        if all(node.ascending) and have[: len(wanted)] == wanted:
            return child
        return SortOperator(self.context, child, keys, node.ascending, top)


def _calls_function(node: LogicalNode) -> bool:
    """Whether an expression of *node* or of any node below it calls a
    function."""
    found = False

    def visit(expression: Expression) -> Expression:
        nonlocal found
        found = found or isinstance(expression, FunctionCall)
        return rebuild(expression, visit)

    for below in walk(node):
        for value in vars(below).values():
            for item in value if isinstance(value, list) else (value,):
                if isinstance(item, AggregateSpec):
                    item = item.argument
                if isinstance(item, Expression):
                    visit(item)
    return found


# ----------------------------------------------------------------------
# pipeline segments: one kernel each (repro.db.compile)
# ----------------------------------------------------------------------
def segment_kernel(
    compiler: KernelCompiler,
    child: PhysicalOperator,
    predicates,
    outputs,
    label: str,
):
    """The one kernel of a segment consuming *child*'s output.

    When the child is a ModelJoin, the spec carries the prediction
    columns as *transient* and bakes the model table's identity into the
    source header, so a model republish or version bump misses the
    kernel cache exactly like it misses the ModelCache; a generated
    kernel then lets the ModelJoin emit arena views (epilogue fusion),
    since it copies what it passes through.
    """
    transient: frozenset = frozenset()
    header: tuple[str, ...] = ()
    if getattr(child, "supports_emit_views", False):
        table = child.model_table
        transient = frozenset(
            name.lower() for name in child.prediction_column_names
        )
        header = (
            f"# model-table: {table.name} uid={table.uid} "
            f"version={table.version}",
        )
    kernel = compiler.kernel(
        KernelSpec(
            schema=child.schema,
            predicates=tuple(predicates),
            outputs=tuple(outputs),
            transient=transient,
            header=header,
            label=label,
        )
    )
    if kernel.generated and transient:
        child.emit_views = True
    return kernel


def pipeline(
    context: ExecutionContext,
    compiler: KernelCompiler,
    child: PhysicalOperator,
    predicates,
    expressions=None,
    names=None,
) -> FusedPipeline:
    """*child* filtered by the *predicates* conjuncts and projected to
    *expressions* AS *names* (None: every child column passes through)."""
    if expressions is None:
        kernel = _filter_kernel(compiler, child, predicates)
    else:
        outputs = project_outputs(expressions, names, child.schema)
        child, kernel = filtered_segment(
            context,
            compiler,
            child,
            predicates,
            outputs,
            f"project({len(outputs)})",
        )
    return FusedPipeline(context, child, kernel)


def filtered_segment(
    context: ExecutionContext,
    compiler: KernelCompiler,
    child: PhysicalOperator,
    predicates,
    outputs,
    label: str,
):
    """``(input, kernel)`` of a segment computing *outputs* over the rows
    of *child* that pass the *predicates* conjuncts.

    One kernel does both; when it is interpreted but the filter alone
    has a generated form, the filter becomes its own generated pipeline
    — the *input* — and the kernel computes just the outputs over it.
    """
    if predicates:
        kernel = segment_kernel(
            compiler,
            child,
            predicates,
            outputs,
            f"filter({len(predicates)})+{label}",
        )
        if kernel.generated:
            return child, kernel
        filter_kernel = _filter_kernel(compiler, child, predicates)
        if not filter_kernel.generated:
            return child, kernel
        child = FusedPipeline(context, child, filter_kernel)
    return child, segment_kernel(compiler, child, (), outputs, label)


def _filter_kernel(compiler: KernelCompiler, child, predicates):
    """The kernel of a bare filter: every child column passes through."""
    outputs = [
        KernelOutput(name, ColumnRef(name)) for name in child.schema.names
    ]
    return segment_kernel(
        compiler, child, predicates, outputs, f"filter({len(predicates)})"
    )


def feeding_scan(operator: PhysicalOperator) -> TableScan | None:
    """The TableScan whose batches reach *operator* whole or filtered.

    Looks through renames and filter-only pipelines: each passes every
    row of a batch on or drops it, so the scan's batch length is the
    longest batch *operator* can receive.
    """
    while isinstance(operator, RenameOperator) or (
        isinstance(operator, FusedPipeline) and operator.filters_only
    ):
        operator = operator.child
    return operator if isinstance(operator, TableScan) else None


# ----------------------------------------------------------------------
# EXPLAIN rendering
# ----------------------------------------------------------------------
def render_explain(prepared, physical: PhysicalOperator) -> str:
    """The multi-section EXPLAIN: logical plan, fired rewrite rules,
    ModelJoin variant selection, physical plan."""
    sections = [
        "== Logical Plan ==",
        prepared.logical.render(),
        "",
        "== Rewrite Rules ==",
    ]
    if prepared.firings:
        sections.extend(
            f"{firing.rule}: {firing.detail}"
            for firing in prepared.firings
        )
    else:
        sections.append("(none fired)")
    for selection in prepared.selections:
        sections.append("")
        sections.append("== ModelJoin Variant Selection ==")
        sections.append(
            f"model {selection.model_name}: ~{selection.tuples} input "
            f"tuples, {selection.flops_per_tuple:.0f} flops/tuple"
        )
        for estimate in selection.ranked():
            marker = "  <- chosen" if (
                estimate.variant == selection.chosen
            ) else ""
            plan_note = "in-plan" if estimate.in_plan else "runner"
            sections.append(
                f"  {estimate.variant:<11} "
                f"{estimate.predicted_seconds * 1e3:10.3f} ms "
                f"({plan_note}){marker}"
            )
        if not selection.estimates:
            sections.append(f"  {selection.chosen}  <- chosen")
        sections.append(f"  reason: {selection.reason}")
    sections.append("")
    sections.append("== Physical Plan ==")
    sections.append(physical.explain())
    compiled = list(_compiled_sections(physical))
    if compiled:
        sections.append("")
        sections.append("== Compiled Code ==")
        sections.extend(compiled)
    return "\n".join(sections)


def _compiled_sections(operator: PhysicalOperator):
    """Generated kernel sources in the physical tree, top-down."""
    if operator.kernel is not None and operator.kernel.generated:
        yield f"-- {operator.describe()}"
        yield operator.kernel.listing.rstrip("\n")
    for child in operator.children():
        yield from _compiled_sections(child)


# ----------------------------------------------------------------------
# the partition exchange (see repro.db.plan.fragments, docs/SHARDING.md)
# ----------------------------------------------------------------------
class GatherExchange(PhysicalOperator):
    """Source feeding per-partition fragment results into the merge.

    The data movement happens before the operator runs (thread
    pipelines hand back their batches; the shard coordinator
    materializes each shard's output from its pipe); GatherExchange
    then streams those batches — tagged per source partition in
    ``rows_per_source`` — into the merge pipeline with the standard
    per-batch cancellation checkpoint, so a late CANCEL still aborts a
    large merge.
    """

    def __init__(self, context, schema, sources):
        super().__init__(context, schema)
        #: list of per-partition batch lists, index = partition / shard
        self.sources = sources
        self.rows_per_source = [
            sum(len(batch) for batch in batches) for batches in sources
        ]

    def describe(self) -> str:
        rows = ", ".join(
            f"p{index}={count}"
            for index, count in enumerate(self.rows_per_source)
        )
        return f"GatherExchange [{len(self.sources)} partitions] ({rows})"

    def _produce(self):
        for batches in self.sources:
            yield from batches


#: below this many rows per shard, intra-shard thread parallelism costs
#: more in pipeline setup than it recovers (measured on the smoke
#: workload; one vector per worker thread is the break-even shape)
MIN_ROWS_FOR_WORKER_PARALLEL = 8192

#: fixed per-shard dispatch overhead expressed in equivalent scan rows
#: (fragment pickle + pipe round trip + result unpickle)
SHARD_DISPATCH_OVERHEAD_ROWS = 4096


def choose_worker_parallelism(rows_per_shard: int, shard_workers: int) -> int:
    """Intra-shard pipeline count a fragment should request."""
    if shard_workers <= 1:
        return 1
    if rows_per_shard < MIN_ROWS_FOR_WORKER_PARALLEL:
        return 1
    return shard_workers


def render_fragment_tree(fragment, shard_count: int, shard_workers: int) -> str:
    """The fragment-tree prefix EXPLAIN prints for a sharded query.

    Renders the coordinator merge pipeline above a GatherExchange and
    the per-shard fragment below it.  Sharded rows already live on every
    shard, so a fragment always visits all of them; the row estimates
    say whether the per-shard dispatch overhead is amortized.
    """
    total_rows = fragment.estimated_rows
    per_shard = total_rows // max(shard_count, 1)
    lines = ["Coordinator"]
    indent = "  "
    if fragment.limit is not None:
        lines.append(f"{indent}Limit [{fragment.limit}]")
        indent += "  "
    if fragment.order_keys:
        keys = ", ".join(
            f"{key}{'' if ascending else ' DESC'}"
            for key, ascending in zip(fragment.order_keys, fragment.ascending)
        )
        top = "" if fragment.top is None else f"; top {fragment.top}"
        lines.append(f"{indent}Sort [{keys}{top}]")
        indent += "  "
    if fragment.distinct:
        lines.append(f"{indent}Distinct")
        indent += "  "
    if fragment.merge == "partial":
        specs = ", ".join(
            f"{spec.function}({spec.argument}) AS {spec.name}"
            for spec in fragment.merge_specs
        )
        lines.append(
            f"{indent}MergeAggregate [groups "
            f"{', '.join(fragment.group_names)}; {specs or 'none'}]"
        )
        indent += "  "
        if fragment.having is not None:
            lines.append(f"{indent}Filter [{fragment.having}] (HAVING)")
    else:
        lines.append(f"{indent}Concat ({fragment.reason})")
        indent += "  "
    lines.append(
        f"{indent}GatherExchange [shards {shard_count}, "
        f"~{total_rows} input rows, ~{per_shard}/shard; "
        f"dispatch overhead {SHARD_DISPATCH_OVERHEAD_ROWS} rows/shard "
        f"({'amortized' if per_shard > SHARD_DISPATCH_OVERHEAD_ROWS else 'dominant'})]"
    )
    parallel = choose_worker_parallelism(per_shard, shard_workers)
    lines.append(
        f"Fragment [runs on each of {shard_count} shards, "
        f"{parallel} pipeline(s)/shard]"
    )
    lines.append(f"  {_render_statement(fragment.statement)}")
    replicated = fragment.replicated_tables + tuple(
        f"model {name}" for name in fragment.model_names
    )
    lines.append(
        f"  Replicated [{', '.join(replicated) or 'none'}; synced to "
        "shards on demand, version-keyed]"
    )
    return "\n".join(lines)


def _render_statement(statement) -> str:
    items = ", ".join(
        f"{item.expression}"
        + (f" AS {item.alias}" if item.alias else "")
        for item in statement.select_items
    )
    parts = [f"SELECT {items}"]
    if statement.group_by:
        parts.append(
            "GROUP BY " + ", ".join(str(e) for e in statement.group_by)
        )
    if statement.where is not None:
        parts.append(f"WHERE {statement.where}")
    return " ".join(parts)
