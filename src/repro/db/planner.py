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

Execution prepares once and lowers once per partition pipeline.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.db.catalog import Catalog
from repro.db.compile import KernelCompiler
from repro.db.operators import ExecutionContext, PhysicalOperator
from repro.db.plan.logical import LogicalBinder, LogicalNode
from repro.db.plan.physical import (
    Lowering,
    VariantSelection,
    select_variants,
)
from repro.db.plan.rules import RuleEngine, RuleFiring
from repro.db.sql.ast import SelectStatement
from repro.db.tracing import NULL_TRACER, MetricsRegistry, Tracer

#: signature of the MODEL JOIN operator factory registered by repro.core
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

    def _compiler(self) -> KernelCompiler | None:
        if not self.options.use_compiled_kernels:
            return None
        breaker = self.compile_breaker
        if breaker is not None and breaker.is_open:
            return None
        return KernelCompiler(
            cache=self.kernel_cache,
            metrics=self.metrics,
            tracer=self.tracer,
            breaker=breaker,
        )

    # ------------------------------------------------------------------
    # pipeline stages
    # ------------------------------------------------------------------
    def prepare(self, statement: SelectStatement) -> PreparedPlan:
        """Bind and optimize *statement* (partition-independent work)."""
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
        return PreparedPlan(statement, logical, firings, selections)

    def lower(
        self,
        prepared: PreparedPlan,
        context: ExecutionContext,
        partition_index: int | None = None,
    ) -> PhysicalOperator:
        """Lower a prepared plan for one partition (or serially)."""
        with self.tracer.span("optimizer.lower", category="planner"):
            lowering = Lowering(
                context,
                self.options,
                self.modeljoin_factory,
                partition_index=partition_index,
                compiler=self._compiler(),
            )
            return lowering.lower(prepared.logical)
