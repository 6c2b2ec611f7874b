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
lowering compiles the statement's template once per kind of lowering
and runs an *instance* of the compiled plan bound to the statement's
context, literal values, tables and pruning ranges
(:meth:`~repro.db.operators.PhysicalOperator.instance`).  A SELECT that
arrives as text (:class:`~repro.db.plan.cache.SelectText`) goes through
the engine's plan cache: a statement whose shape has a valid template
is served from it — no parse, bind, rewrite, codegen or lowering —
computing only what its values decide (pruning ranges, the ModelJoin
input estimates and variants); any other one is planned as above and
records the template (:mod:`repro.db.plan.cache`).  How a statement
splits over partitions (:meth:`Planner.fragment`) and its merge
pipeline (:meth:`Planner.merge`) are template products too.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.db.catalog import Catalog
from repro.db.compile import KernelCompiler
from repro.db.operators import ExecutionContext, PhysicalOperator
from repro.db.plan.cache import (
    FragmentTemplate,
    PlanCache,
    PlanTemplate,
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
    """A bound + optimized statement, ready to lower per partition: its
    *template* compiles, and each lowering instances the compiled plan
    with the statement's literal *values* (None: its literals' own), the
    *tables* it bound (``identity -> table``) and its scans' pruning
    *ranges*."""

    statement: SelectStatement
    logical: LogicalNode
    firings: list[RuleFiring]
    selections: list[VariantSelection]
    template: PlanTemplate
    tables: dict
    ranges: tuple
    values: tuple | None = None
    #: served from a plan-cache template (a hit, whose statement and
    #: logical tree are the template's: literals slotted, tables
    #: identities — the fragment planner reads their shape only)
    cached: bool = False

    @property
    def recorded(self) -> bool:
        """Whether the plan cache holds the template."""
        return self.template.shape is not None

    def explain_logical(self) -> str:
        return self.logical.render()


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
            selections = select_variants(logical, self.variant_selector)
        template, tables, ranges = record_template(
            text if cache is not None else None,
            statement,
            logical,
            self._options_key(),
        )
        prepared = PreparedPlan(
            statement, logical, firings, selections, template, tables, ranges
        )
        if text is not None:
            prepared.values = text.values()
        if prepared.recorded:
            cache.put(template)
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
    ) -> PreparedPlan | None:
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
                select_variant(node, rows, self.variant_selector)
                for node, rows in zip(template.model_joins, inputs)
            ]
        if counted:
            self.plan_cache.count_hit()
        return PreparedPlan(
            template.statement,
            template.logical,
            [],
            selections,
            template,
            tables,
            ranges,
            values,
            cached=True,
        )

    def fragment(self, prepared: PreparedPlan, pipelines: int) -> FragmentPlan:
        """How *prepared* splits over partitions (:func:`plan_fragments`;
        *pipelines* bounds a thread-parallel plan's partitions).

        A plan-cache product: the template keeps the fragment plan its
        first split worked out — on a cold plan of the shape, which works
        out the fixed slots for it — and later hits take it with their
        values.  A plan whose template is not cached is split for itself.
        """
        if not prepared.recorded:
            return plan_fragments(prepared, pipelines)
        template = prepared.template
        if not prepared.cached:
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
        (:func:`build_merge_plan`): an instance of the compiled merge its
        fragment template keeps (the first merge compiles it)."""
        shared = fragment.template
        compiled = shared.merge if shared is not None else None
        if compiled is None:
            compiler = self.kernel_compiler()
            bare = ExecutionContext(vector_size=context.vector_size)
            compiled = build_merge_plan(
                bare, fragment, GatherExchange(bare, schema), compiler
            )
            if shared is not None and compiler.reusable:
                shared.merge = compiled
        plan = compiled.instance(context, fragment.values)
        gather = plan
        while not isinstance(gather, GatherExchange):
            (gather,) = gather.children()
        gather.feed(sources)
        return plan

    def lower(
        self,
        prepared: PreparedPlan,
        context: ExecutionContext,
        partition_index: int | None = None,
    ) -> PhysicalOperator:
        """Lower a prepared plan for one partition (or serially): an
        instance of its template's compiled plan for this kind of
        lowering, which the first lowering of that kind compiles."""
        with self.tracer.span("optimizer.lower", category="planner"):
            template = prepared.template
            key = prototype_key(
                partition_index, context.vector_size, prepared.selections
            )
            compiled = template.prototypes.get(key)
            if compiled is None:
                compiler = self.kernel_compiler()
                lowering = Lowering(
                    ExecutionContext(vector_size=context.vector_size),
                    self.options,
                    self.modeljoin_factory,
                    compiler,
                    partition_index=partition_index,
                    variants={
                        id(node): selection.chosen
                        for node, selection in zip(
                            template.model_joins, prepared.selections
                        )
                    },
                )
                compiled = lowering.lower(template.logical)
                if compiler.reusable:
                    template.prototypes[key] = compiled
            return compiled.instance(
                context,
                prepared.values,
                prepared.tables,
                prepared.ranges,
                partition_index,
            )
