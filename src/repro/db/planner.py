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
valid template is instantiated from it — no parse, no bind, no codegen
— and re-runs only the value-dependent steps (pruning ranges,
estimates, variant selection); any other one is planned as above and
records the template (:mod:`repro.db.plan.cache`).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.db.catalog import Catalog
from repro.db.compile import (
    KernelCompiler,
    KernelReplayError,
    ReplayCompiler,
)
from repro.db.operators import ExecutionContext, PhysicalOperator
from repro.db.plan.cache import (
    PlanCache,
    PlanTemplate,
    SelectText,
    record_template,
)
from repro.db.plan.logical import (
    LogicalBinder,
    LogicalNode,
    recompute_estimates,
)
from repro.db.plan.physical import (
    Lowering,
    VariantSelection,
    select_variants,
)
from repro.db.plan.rules import RuleEngine, RuleFiring, derive_ranges
from repro.db.sql.ast import SelectStatement
from repro.db.tracing import NULL_TRACER, MetricsRegistry, Tracer

#: the MODEL JOIN operator factory registered by repro.core, called with
#: keywords ``context, child, metadata, model_table, input_columns,
#: output_prefix, partition_index, variant`` (``variant``: the
#: optimizer's in-plan choice, "native-cpu" / "native-gpu")
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
    #: the plan-cache template a hit was instantiated from: lowering
    #: replays its kernels (the first lowering records them)
    template: PlanTemplate | None = None
    #: the statement's literal values by slot (template plans only)
    values: tuple = ()
    #: instantiated from a cached template: no parse, bind or rewrite
    cached: bool = False

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

    def _compiler(
        self, kind=KernelCompiler, **fields
    ) -> KernelCompiler | None:
        if not self._compiles():
            return None
        return kind(
            cache=self.kernel_cache,
            metrics=self.metrics,
            tracer=self.tracer,
            breaker=self.compile_breaker,
            **fields,
        )

    def _options_key(self) -> tuple:
        """The planner options a template is valid under: every field,
        and whether the compile breaker lets this plan compile."""
        return (*vars(self.options).values(), self._compiles())

    # ------------------------------------------------------------------
    # pipeline stages
    # ------------------------------------------------------------------
    def prepare(
        self, statement: SelectStatement | SelectText
    ) -> PreparedPlan:
        """Bind and optimize *statement* (partition-independent work).

        A :class:`SelectText` is served from its shape's plan template
        when one is valid; otherwise it is parsed and planned here, and
        the plan recorded as its shape's template.
        """
        text = None
        if isinstance(statement, SelectText):
            text = statement
            if self.plan_cache is not None:
                prepared = self._instantiate(text)
                if prepared is not None:
                    return prepared
                self.plan_cache.count_miss()
            statement = text.statement()
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
        if text is not None and self.plan_cache is not None:
            template = record_template(
                text, statement, logical, self._options_key()
            )
            if template is not None:
                self.plan_cache.put(template)
        return PreparedPlan(statement, logical, firings, selections)

    def _instantiate(self, text: SelectText) -> PreparedPlan | None:
        """The plan of *text* from its shape's template, if one serves.

        A hit has no bind step: instantiating the template — checking
        the identities it bound against this planner's catalog and
        substituting the statement's values — rewrites a plan bound
        before, so it runs under the rewrite span with the range
        derivation and estimates it redoes.
        """
        template = self.plan_cache.get(text.lexed.shape)
        if template is None:
            return None
        with self.tracer.span("optimizer.rewrite", category="planner"):
            template = self.plan_cache.analyzed(template)
            instance = template.instantiate(
                text, self.catalog, self._options_key()
            )
            if instance is None:
                return None
            statement, logical, values = instance
            firings: list[RuleFiring] = []
            if self.options.use_optimizer_rules and (
                self.options.use_block_pruning
            ):
                derive_ranges(logical, firings)
            recompute_estimates(logical)
        with self.tracer.span(
            "optimizer.select_variant", category="planner"
        ):
            selections = select_variants(
                logical, self.variant_selector, metrics=self.metrics
            )
        self.plan_cache.count_hit()
        return PreparedPlan(
            statement,
            logical,
            firings,
            selections,
            template=template,
            values=values,
            cached=True,
        )

    def lower(
        self,
        prepared: PreparedPlan,
        context: ExecutionContext,
        partition_index: int | None = None,
    ) -> PhysicalOperator:
        """Lower a prepared plan for one partition (or serially).

        A plan instantiated from a template takes its kernels from the
        recorded sources; the first one lowered for a template records
        them.
        """
        with self.tracer.span("optimizer.lower", category="planner"):
            template = prepared.template
            if template is not None and template.kernels is not None:
                replay = self._compiler(
                    ReplayCompiler,
                    replay=template.kernels,
                    values=prepared.values,
                )
                try:
                    return self._lower(
                        prepared, context, partition_index, replay
                    )
                except KernelReplayError:
                    # a literal value with no compiled form: lower with
                    # codegen, as a cold plan of this statement does
                    template = None
            if template is None:
                return self._lower(
                    prepared, context, partition_index, self._compiler()
                )
            compiler = self._compiler(records=[])
            plan = self._lower(prepared, context, partition_index, compiler)
            if compiler is not None:
                prepared.template = self.plan_cache.with_kernels(
                    template, compiler
                )
            return plan

    def _lower(
        self, prepared, context, partition_index, compiler
    ) -> PhysicalOperator:
        lowering = Lowering(
            context,
            self.options,
            self.modeljoin_factory,
            partition_index=partition_index,
            compiler=compiler,
        )
        return lowering.lower(prepared.logical)
