"""Query planner façade: AST -> logical plan -> rules -> physical plan.

Planning is a three-stage pipeline (see :mod:`repro.db.plan`):

1. **bind** — :class:`~repro.db.plan.logical.LogicalBinder` resolves
   the parsed statement into a typed logical-operator tree whose column
   references are fully qualified and whose nodes carry output names
   and estimated cardinalities.
2. **rewrite** — :class:`~repro.db.plan.rules.RuleEngine` applies the
   ordered rewrite rules (constant folding, predicate pushdown through
   joins and ModelJoin, join-key extraction, SMA range derivation,
   projection pushdown); every firing is recorded for EXPLAIN.
3. **lower** — :mod:`repro.db.plan.physical` turns the optimized tree
   into physical operators, picking the ModelJoin execution variant
   with the calibrated cost model (once per statement, before
   per-partition lowering).

Execution prepares once and lowers once per partition pipeline.  A
SELECT that arrives as text (:class:`~repro.db.plan.cache.SelectText`)
goes through the engine's plan cache: a statement whose shape has a
valid template is served from it — no parse, bind, rewrite, codegen or
lowering — computing only what its values decide (pruning ranges, the
ModelJoin input estimates and variants) and cloning the template's
lowered prototype; any other one is planned as above and records the
template (:mod:`repro.db.plan.cache`).  How a statement splits over
partitions (:meth:`Planner.fragment`) and its merge pipeline
(:meth:`Planner.merge`) are template products too.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

from repro.db.catalog import Catalog
from repro.db.compile import KernelCompiler
from repro.db.compile.codegen import NonCompilableLiteral
from repro.db.operators import ExecutionContext, PhysicalOperator
from repro.db.plan.cache import (
    FragmentTemplate,
    PlanCache,
    PlanTemplate,
    Prototype,
    SelectText,
    prototype_key,
    record_template,
)
from repro.db.plan.fragments import (
    FragmentPlan,
    build_merge_plan,
    plan_fragments,
)
from repro.db.plan.logical import LogicalBinder, LogicalNode
from repro.db.plan.physical import (
    GatherExchange,
    Lowering,
    VariantSelection,
    select_variant,
    select_variants,
)
from repro.db.plan.rules import RuleEngine, RuleFiring
from repro.db.sql.ast import SelectStatement
from repro.db.tracing import NULL_TRACER, MetricsRegistry, Tracer

#: the MODEL JOIN operator factory registered by repro.core, called with
#: keywords ``context, child, metadata, model_table, compiler,
#: input_columns, output_prefix, partition_index, variant, predicates,
#: projection`` (``variant``: the optimizer's in-plan choice,
#: "native-cpu" / "native-gpu"; the last two: the fused epilogue)
ModelJoinFactory = Callable[..., PhysicalOperator]


@dataclass
class PlannerOptions:
    """Knobs controlling planning decisions (used by the ablations)."""

    #: use order-based aggregation when the input ordering allows it
    use_ordered_aggregation: bool = True
    #: use segmented (partially ordered) aggregation when the input is
    #: sorted by a proper prefix of the group keys — the paper §4.4
    #: pipelining optimization for the generated ModelJoin queries
    use_segmented_aggregation: bool = False
    #: extract SMA pruning ranges from pushed-down predicates
    use_block_pruning: bool = True
    #: run the logical rewrite rules (off = bind-then-lower verbatim,
    #: the baseline the optimizer benchmarks compare against)
    use_optimizer_rules: bool = True
    #: compile expressions and fuse filter→project→aggregate pipelines
    #: into generated kernels (off = fully interpreted execution, the
    #: bit-exactness baseline the compiled path is checked against)
    use_compiled_kernels: bool = True


@dataclass
class PreparedPlan:
    """A bound + optimized statement, ready to lower per partition."""

    statement: SelectStatement
    logical: LogicalNode
    firings: list[RuleFiring]
    selections: list[VariantSelection]

    #: planned cold, not served from a plan-cache template
    cached = False
    template = None
    #: a cold plan of a text: the template it recorded, the literal
    #: values; tables bound by identity (hits only)
    recorded = None
    values = ()
    tables = None

    def explain_logical(self) -> str:
        return self.logical.render()


class CachedPlan(PreparedPlan):
    """A SELECT served from its shape's plan template: a plan-cache hit.

    It holds what the values decide — each scan's pruning *ranges* and
    each ModelJoin's variant *selections* — plus the *tables* the
    template's identities bound and the literal *values*.  Lowering
    clones the template's prototype with them; the statement and the
    logical tree are built only when asked for (the fragment planner,
    a lowering with no prototype to clone).
    """

    cached = True

    def __init__(
        self,
        template: PlanTemplate,
        tables: dict,
        values: tuple,
        ranges: tuple,
        selections: list[VariantSelection],
    ):
        self.template = template
        self.tables = tables
        self.values = values
        self.ranges = ranges
        self.selections = selections

    @cached_property
    def statement(self) -> SelectStatement:
        return self.template.statement_for(self.values)

    @cached_property
    def _instance(self) -> tuple[LogicalNode, list[RuleFiring]]:
        return self.template.instantiate(
            self.tables, self.values, self.ranges, self.selections
        )

    @property
    def logical(self) -> LogicalNode:
        return self._instance[0]

    @property
    def firings(self) -> list[RuleFiring]:
        return self._instance[1]


class Planner:
    """Plans statements against a catalog."""

    def __init__(
        self,
        catalog: Catalog,
        options: PlannerOptions | None = None,
        modeljoin_factory: ModelJoinFactory | None = None,
        variant_selector=None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        kernel_cache=None,
        compile_breaker=None,
        plan_cache: PlanCache | None = None,
    ):
        self.catalog = catalog
        self.options = options or PlannerOptions()
        self.modeljoin_factory = modeljoin_factory
        #: duck-typed cost-based variant selector (installed through
        #: Database.set_variant_selector by repro.core.attach)
        self.variant_selector = variant_selector
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        #: CompiledKernelCache shared across plans (None = per-planner
        #: compilation without reuse) and the engine's one-shot breaker
        self.kernel_cache = kernel_cache
        self.compile_breaker = compile_breaker
        #: the engine's template cache (None: plan every text cold and
        #: record nothing, as the compile-fallback retry does)
        self.plan_cache = plan_cache

    def _compiles(self) -> bool:
        breaker = self.compile_breaker
        return self.options.use_compiled_kernels and not (
            breaker is not None and breaker.is_open
        )

    def kernel_compiler(self) -> KernelCompiler:
        """The compiler a plan asks for its pipeline kernels: generated
        ones unless compilation is off or the breaker is open."""
        return KernelCompiler(
            cache=self.kernel_cache,
            metrics=self.metrics,
            tracer=self.tracer,
            breaker=self.compile_breaker,
            generate=self._compiles(),
        )

    def _options_key(self) -> tuple:
        """The planner options a template is valid under: every field,
        and whether the compile breaker lets this plan compile."""
        return (*vars(self.options).values(), self._compiles())

    # ------------------------------------------------------------------
    # pipeline stages
    # ------------------------------------------------------------------
    def prepare(
        self, statement: SelectStatement | SelectText, counted: bool = True
    ) -> PreparedPlan:
        """Bind and optimize *statement* (partition-independent work).

        A :class:`SelectText` is served from its shape's plan template
        when one is valid; otherwise it is parsed and planned here, and
        the plan recorded as its shape's template.  An uncounted one (a
        query's per-partition statement) rides on the query's own
        ``plan_cache`` hit or miss.
        """
        text = cache = None
        if isinstance(statement, SelectText):
            text = statement
            cache = self.plan_cache if text.shape is not None else None
            if cache is not None:
                prepared = self._instantiate(text, counted)
                if prepared is not None:
                    return prepared
            statement = text.statement()
            if self.plan_cache is not None and counted:
                self.plan_cache.count_miss()
        with self.tracer.span("optimizer.bind", category="planner"):
            binder = LogicalBinder(
                self.catalog,
                has_modeljoin_factory=self.modeljoin_factory is not None,
            )
            logical = binder.bind(statement)
        with self.tracer.span("optimizer.rewrite", category="planner"):
            logical, firings = RuleEngine(self.options).run(logical)
        with self.tracer.span(
            "optimizer.select_variant", category="planner"
        ):
            selections = select_variants(
                logical, self.variant_selector, metrics=self.metrics
            )
        prepared = PreparedPlan(statement, logical, firings, selections)
        if cache is not None:
            template = record_template(
                text, statement, logical, self._options_key()
            )
            if template is not None:
                cache.put(template)
                prepared.recorded = template
                prepared.values = text.values()
        return prepared

    def serves(self, text: SelectText) -> bool:
        """Whether a template in the plan cache serves *text* (a
        fragment known by its key then needs no statement)."""
        template = self.plan_cache.get(text.shape)
        if template is None:
            return False
        template = self.plan_cache.analyzed(template)
        options = self._options_key()
        return template.bind(text, self.catalog, options) is not None

    def _instantiate(
        self, text: SelectText, counted: bool = True
    ) -> CachedPlan | None:
        """The plan of *text* from its shape's template, if one serves.

        A hit has no bind step: checking the identities the template
        bound against this planner's catalog and deriving each scan's
        pruning ranges and the ModelJoin input estimates from the
        literal values is the rewrite a hit does, so it runs under the
        rewrite span.  No tree is copied.
        """
        template = self.plan_cache.get(text.shape)
        if template is None:
            return None
        with self.tracer.span("optimizer.rewrite", category="planner"):
            template = self.plan_cache.analyzed(template)
            tables = template.bind(text, self.catalog, self._options_key())
            if tables is None:
                return None
            values = text.values()
            options = self.options
            if options.use_optimizer_rules and options.use_block_pruning:
                ranges = template.ranges(values)
            else:
                ranges = ([],) * len(template.scans)
            inputs = template.model_join_inputs(tables, ranges)
        with self.tracer.span(
            "optimizer.select_variant", category="planner"
        ):
            selections = [
                select_variant(
                    node, rows, self.variant_selector, metrics=self.metrics
                )
                for node, rows in zip(template.model_joins, inputs)
            ]
        if counted:
            self.plan_cache.count_hit()
        return CachedPlan(template, tables, values, ranges, selections)

    def fragment(self, prepared: PreparedPlan, pipelines: int) -> FragmentPlan:
        """How *prepared* splits over partitions (:func:`plan_fragments`;
        *pipelines* bounds a thread-parallel plan's partitions).

        A plan-cache product: the template keeps the fragment plan its
        first split worked out — on a cold plan of the shape, which works
        out the fixed slots for it — and later hits copy it with their
        values.  A plan that recorded no template is split for itself.
        """
        template = prepared.template
        if template is None:
            template = prepared.recorded
            if template is None:
                return plan_fragments(prepared, pipelines)
            template = self.plan_cache.analyzed(template)
        shared = template.fragments.get(pipelines)
        if shared is None:
            shared = FragmentTemplate.of(
                plan_fragments(prepared, pipelines), template
            )
            template.fragments[pipelines] = shared
        return shared.instantiate(prepared.values, prepared.tables)

    def merge(
        self,
        fragment: FragmentPlan,
        context: ExecutionContext,
        schema,
        sources: list,
    ) -> PhysicalOperator:
        """The merge pipeline over the per-partition results *sources*
        (:func:`build_merge_plan`).  A partial merge generates kernels,
        so a hit clones the merge prototype its fragment template keeps
        (the first merge builds and keeps it); any other merge generates
        nothing and is built, which costs no more than a clone."""
        compiler = self.kernel_compiler()
        shared = fragment.template if fragment.merge == "partial" else None
        if shared is not None and shared.merge is not None:
            try:
                plan = shared.merge.clone(
                    context, None, {}, fragment.values, (), compiler
                )
            except NonCompilableLiteral:
                pass  # built below, as a cold plan of the statement is
            else:
                gather = plan
                while not isinstance(gather, GatherExchange):
                    (gather,) = gather.children()
                gather.feed(sources)
                return plan
        gather = GatherExchange(context, schema, sources)
        plan = build_merge_plan(context, fragment, gather, compiler)
        if shared is not None and shared.merge is None and compiler.reusable:
            shared.merge = Prototype.capture(plan, None, {}, shared.free)
        return plan

    def lower(
        self,
        prepared: PreparedPlan,
        context: ExecutionContext,
        partition_index: int | None = None,
    ) -> PhysicalOperator:
        """Lower a prepared plan for one partition (or serially).

        A plan-cache hit clones its template's prototype for this kind
        of lowering; the first hit without one lowers the logical tree
        and keeps the result as the prototype.
        """
        with self.tracer.span("optimizer.lower", category="planner"):
            template = prepared.template
            if template is None:
                return self._lower(
                    prepared, context, partition_index, self.kernel_compiler()
                )
            key = prototype_key(
                partition_index, context.vector_size, prepared.selections
            )
            prototype = template.prototypes.get(key)
            if prototype is not None:
                try:
                    return prototype.clone(
                        context,
                        partition_index,
                        prepared.tables,
                        prepared.values,
                        prepared.ranges,
                        self.kernel_compiler(),
                    )
                except NonCompilableLiteral:
                    # a literal value with no compiled form: lower with
                    # codegen, as a cold plan of this statement does
                    return self._lower(
                        prepared,
                        context,
                        partition_index,
                        self.kernel_compiler(),
                    )
            compiler = self.kernel_compiler()
            plan = self._lower(prepared, context, partition_index, compiler)
            prepared.template = self.plan_cache.with_prototype(
                template,
                key,
                Prototype.capture(
                    plan, partition_index, prepared.tables, template.free
                )
                if compiler.reusable
                else None,
            )
            return plan

    def _lower(
        self, prepared, context, partition_index, compiler
    ) -> PhysicalOperator:
        lowering = Lowering(
            context,
            self.options,
            self.modeljoin_factory,
            compiler,
            partition_index=partition_index,
        )
        return lowering.lower(prepared.logical)
