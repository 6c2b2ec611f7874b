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
    has_generated_form,
    project_outputs,
)
from repro.db.expressions import ColumnRef
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
from repro.db.operators.aggregate import GroupJoin, input_outputs, key_sides
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


def select_variants(root: LogicalNode, selector):
    """Pick the execution variant for every ModelJoin in the plan.

    Mutates each :class:`LogicalModelJoin` node's ``selection`` and
    returns the list of selections.  *selector* is duck-typed (see
    ``repro.core.cost.selector.CostBasedVariantSelector``) or None,
    in which case the native CPU operator is used unconditionally.
    """
    selections: list[VariantSelection] = []
    for node in walk(root):
        if isinstance(node, LogicalModelJoin):
            node.selection = select_variant(
                node, node.child.estimated_rows, selector
            )
            selections.append(node.selection)
    return selections


def select_variant(
    node: LogicalModelJoin, estimated_rows: float, selector
) -> VariantSelection:
    """The variant decision of one ModelJoin whose input is estimated
    at *estimated_rows* tuples: the selector's cost-based one
    (memoized by the selector), else the VARIANT clause's or the
    default."""
    tuples = estimated_tuples(estimated_rows)
    if selector is not None and node.variant_override is None:
        return selector.select(node.metadata, tuples)
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
    else:
        chosen = "native-cpu"
        reason = "default (no cost selector installed)"
    return VariantSelection(
        model_name=node.metadata.model_name,
        tuples=tuples,
        flops_per_tuple=flops,
        estimates=estimates,
        chosen=chosen,
        reason=reason,
    )


def estimated_tuples(estimated_rows: float) -> int:
    """The tuple count a variant decision is made for."""
    return max(int(round(estimated_rows)), 1)


class Lowering:
    """Lowers a plan template's logical tree to a compiled plan.

    The tree's tables are identities and its statement literals
    slotted: the compiled plan holds no table and reads no statement
    value, and each statement runs an instance of it
    (:meth:`PhysicalOperator.instance`).
    *variants* maps each ModelJoin node (by id) to its chosen variant;
    *partition_index* is not None for a partition pipeline's plan.
    """

    def __init__(
        self,
        context: ExecutionContext,
        options,
        modeljoin_factory,
        compiler: KernelCompiler,
        partition_index: int | None = None,
        variants: dict | None = None,
    ):
        self.context = context
        self.options = options
        self.modeljoin_factory = modeljoin_factory
        #: answers each pipeline segment's one kernel request (generated
        #: or interpreted, see KernelCompiler.generate)
        self.compiler = compiler
        self.partition_index = partition_index
        self.variants = variants or {}

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
            if isinstance(node.child, LogicalModelJoin):
                return self._lower_model_join(node.child, node.conjuncts)
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
            predicates = list(child_node.conjuncts)
            child_node = child_node.child
        if isinstance(child_node, LogicalModelJoin):
            return self._lower_model_join(
                child_node, predicates, (node.expressions, node.names)
            )
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
            partition_index=scan_partition,
            columns=columns,
        )
        scan.template_index = node.template_index
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
        self, node: LogicalModelJoin, predicates=(), projection=None
    ) -> PhysicalOperator:
        """The ModelJoin, with the filter *predicates* and *projection*
        ``(expressions, names)`` above it fused into its kernel."""
        if self.modeljoin_factory is None:
            raise PlanError(
                "MODEL JOIN is not available: no ModelJoin operator factory "
                "is registered (import repro.core or use Database from "
                "repro, not repro.db)"
            )
        input_kernel = None
        if isinstance(node.child, LogicalFilter):
            # The filter below the join becomes its input predicates: a
            # selection per input batch, gathered by the join itself
            conjuncts = node.child.conjuncts
            child = self.lower(node.child.child)
            input_kernel = selection_kernel(self.compiler, child, conjuncts)
            if input_kernel is None:
                child = pipeline(
                    self.context, self.compiler, child, conjuncts
                )
        else:
            child = self.lower(node.child)
        return self.modeljoin_factory(
            context=self.context,
            child=child,
            metadata=node.metadata,
            model_table=node.model_table,
            compiler=self.compiler,
            input_columns=node.input_columns,
            output_prefix=f"{node.binding}.{node.output_prefix}",
            partition_index=self.partition_index,
            variant=self.variants.get(id(node)),
            predicates=tuple(predicates),
            projection=projection,
            input_kernel=input_kernel,
        )

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

        prefix = _streaming_prefix(child.ordering, node.group_exprs)
        keys, options = len(node.group_exprs), self.options
        streaming = len(prefix) == keys and options.use_ordered_aggregation
        segmented = (
            0 < len(prefix) < keys and options.use_segmented_aggregation
        )
        order = list(range(keys))
        if streaming or segmented:
            # The prefix keys lead, in the input's order.
            order = prefix + [i for i in order if i not in prefix]
        group_exprs = [node.group_exprs[i] for i in order]
        group_names = [node.group_names[i] for i in order]
        if (
            not (streaming or segmented)
            and type(child) is HashJoin
            and key_sides(child, group_exprs) is not None
        ):
            # The aggregate groups the join's index pairs (a groupjoin);
            # a GroupJoin child is a HashJoin whose rows are groups
            return GroupJoin(
                self.context,
                child,
                group_exprs,
                group_names,
                node.aggregates,
                predicates,
                self.compiler,
            )
        child, kernel = filtered_segment(
            self.context,
            self.compiler,
            child,
            predicates,
            input_outputs(group_exprs, group_names, node.aggregates),
            "aggregate-input",
        )
        if streaming:
            return OrderedAggregate(
                self.context,
                child,
                group_exprs,
                group_names,
                node.aggregates,
                kernel=kernel,
            )
        return HashAggregate(
            self.context,
            child,
            group_exprs,
            group_names,
            node.aggregates,
            kernel=kernel,
            prefix_length=len(prefix) if segmented else 0,
        )

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


def _streaming_prefix(ordering, group_exprs) -> list[int]:
    """Positions of the group keys that the input is sorted by (paper
    Section 4.4): the longest prefix of *ordering* made of bare-column
    group keys, in ordering order.  All of them → the order-based
    aggregate; some → the segment-buffering one; none → plain hash."""
    positions: dict[str, list[int]] = {}
    for index, expression in enumerate(group_exprs):
        if isinstance(expression, ColumnRef):
            positions.setdefault(expression.name.lower(), []).append(index)
    prefix: list[int] = []
    for name in ordering:
        indices = positions.pop(name.lower(), None)
        if indices is None:
            break
        prefix.extend(indices)
    return prefix


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
    """The one kernel of a segment consuming *child*'s output."""
    return compiler.kernel(
        KernelSpec(
            schema=child.schema,
            predicates=tuple(predicates),
            outputs=tuple(outputs),
            label=label,
        )
    )


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


def selection_kernel(compiler: KernelCompiler, child, predicates):
    """The selection kernel (``KernelSpec.selection``) of a filter on
    *child*'s rows — None when a conjunct calls a per-vector function,
    which the paper calls once per vector, or the filter has no
    generated form: such a filter stays a pipeline of its own."""
    spec = KernelSpec(
        schema=child.schema,
        predicates=tuple(predicates),
        label=f"select({len(predicates)})",
        selection=True,
    )
    if spec.calls_per_vector():
        return None
    kernel = compiler.kernel(spec)
    if kernel.generated or has_generated_form(spec):
        return kernel
    return None


def _filter_kernel(compiler: KernelCompiler, child, predicates):
    """The kernel of a bare filter: every child column passes through."""
    outputs = [
        KernelOutput(name, ColumnRef(name)) for name in child.schema.names
    ]
    return segment_kernel(
        compiler, child, predicates, outputs, f"filter({len(predicates)})"
    )


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
    """Generated kernel sources in the physical tree, top-down, with the
    parameter values of the statement the plan is bound to."""
    values = operator.bound.values
    generated = [
        kernel
        for kernel in (kernel.bind(values) for kernel in operator.kernels())
        if kernel.generated
    ]
    if generated:
        yield f"-- {operator.describe()}"
        yield from (kernel.listing.rstrip("\n") for kernel in generated)
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

    # what a compiled merge plan gathers: nothing until fed
    sources: list | tuple = ()
    rows_per_source: list | tuple = ()

    def __init__(self, context, schema, sources=None):
        super().__init__(context, schema)
        if sources is not None:
            self.feed(sources)

    def feed(self, sources) -> None:
        """Gather *sources*: per-partition batch lists, index =
        partition / shard."""
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
