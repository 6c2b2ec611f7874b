"""Operator base class and execution context."""

from __future__ import annotations

import time
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.db.profiler import (
    MemoryAccountant,
    ProfileCounters,
    QueryProfile,
    Stopwatch,
)
from repro.db.resilience import CancellationToken
from repro.db.schema import Schema
from repro.db.tracing import NULL_TRACER, MetricsRegistry, Tracer
from repro.db.vector import VECTOR_SIZE, VectorBatch
from repro.errors import ExecutionError

if TYPE_CHECKING:
    from repro.db.catalog import Catalog
    from repro.db.introspect.collector import ResourceProfile


@dataclass
class QueryContext:
    """Per-statement state, built once where the statement enters.

    ``Database.execute`` / ``explain_analyze``, the serving layer (from
    an admitted query), the shard worker and the direct inference
    runners (:mod:`repro.core.modeljoin.runner`) each build exactly one
    for a client statement; the engine's query lifecycle
    (:meth:`repro.db.engine.Database.run_query`) and every
    :class:`ExecutionContext` it creates — one per attempt, nested
    queries included — carry that same object.
    """

    #: statement text as logged in ``system.queries``
    sql: str = ""
    #: catalog view the statement binds and reads against: the live
    #: catalog, or a pinned snapshot's for served reads
    catalog: Catalog | None = None
    #: cooperative deadline/cancellation token; checked per batch in
    #: operator ``next()`` loops, per morsel in the scan loop and per
    #: kernel on the device (None = the query has no deadline)
    cancellation: CancellationToken | None = None
    #: serving-session identity ("" = direct single-caller use)
    session_id: str = ""
    tenant: str = ""
    #: the caller asked for one pipeline per partition
    parallel: bool = False
    #: EXPLAIN ANALYZE: time every operator and keep the lowered plans
    analyze: bool = False
    #: resource profile behind the ``system.queries`` row, opened by
    #: the lifecycle — None when query-log collection is disabled
    collector: ResourceProfile | None = None
    #: profile of the latest execution attempt (a compile-fallback
    #: retry replaces it)
    profile: QueryProfile | None = None
    #: with *analyze*: the executed per-pipeline plans, and the
    #: post-merge ORDER BY/LIMIT plan of a parallel query
    plans: list = field(default_factory=list)
    coordinator: PhysicalOperator | None = None


@dataclass
class ExecutionContext:
    """Per-attempt execution state shared by all operators of a plan.

    One context exists per execution attempt of a query; in
    partition-parallel execution all partition pipelines share the same
    context so that the memory accountant sees the query-global peak
    (the model, for example, is a shared allocation, see paper
    Section 5.2).
    """

    vector_size: int = VECTOR_SIZE
    memory: MemoryAccountant = field(default_factory=MemoryAccountant)
    stopwatch: Stopwatch = field(default_factory=Stopwatch)
    counters: ProfileCounters = field(default_factory=ProfileCounters)
    #: number of partition pipelines executing this plan
    parallelism: int = 1
    #: arbitrary extension point (the ModelJoin stores its shared model
    #: build state here, keyed by operator id)
    shared_state: dict = field(default_factory=dict)
    #: span producer (a no-op NullTracer unless the engine enabled it)
    tracer: Tracer = NULL_TRACER
    #: engine-lifetime metrics registry, or None without an engine
    metrics: MetricsRegistry | None = None
    #: collect per-operator cumulative time and batch timing (set for
    #: EXPLAIN ANALYZE and whenever the tracer is enabled; off on the
    #: default hot path, which then pays only a row/batch increment)
    operator_timing: bool = False
    #: span id the partition pipelines parent under (cross-thread edge
    #: from the coordinator's query span to the workers)
    trace_parent: int | None = None
    #: the statement this attempt belongs to (token, identity, resource
    #: collector); a bare context gets an anonymous one
    query: QueryContext = field(default_factory=QueryContext)


def format_operator_seconds(seconds: float) -> str:
    """Compact duration rendering for EXPLAIN ANALYZE stat lines."""
    if seconds < 0.001:
        return f"{seconds * 1e6:.0f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds:.2f}s"


class PhysicalOperator:
    """Base class of all physical operators (Volcano iterator model)."""

    #: True for operators that transform each input batch independently
    #: of every other batch (scan/filter/project/rename/modeljoin).  A
    #: pipeline made only of such operators produces the bag-union of
    #: per-batch results, so its scans may pull morsels from a shared
    #: queue instead of being bound to one partition (morsel-driven
    #: scheduling).  Blocking or cross-batch operators (aggregation,
    #: sort, limit, joins over partitioned build sides) keep the
    #: default False.
    morsel_streaming = False

    #: the kernel evaluating this operator's expressions — a pipeline's
    #: or an aggregate's input, generated (``FusedKernel``, printed by
    #: EXPLAIN) or interpreted (``InterpretedKernel``); None for
    #: operators without one
    kernel = None

    def __init__(self, context: ExecutionContext, schema: Schema):
        self.context = context
        self.schema = schema
        self._opened = False
        #: rows this operator emitted (filled during execution;
        #: rendered by EXPLAIN ANALYZE)
        self.rows_emitted = 0
        #: batches this operator emitted
        self.batches_emitted = 0
        #: seconds spent producing this operator's batches, children
        #: included (cumulative time; only filled with operator_timing)
        self.cumulative_seconds = 0.0
        #: tracing state: this operator's span id and its parent span
        self._span_id: int | None = None
        self._trace_parent: int | None = None
        self._first_pull_us: float | None = None

    @property
    def ordering(self) -> tuple[str, ...]:
        """Column names the output is guaranteed to be sorted by.

        An empty tuple means no guaranteed order.  This property drives
        the planner's choice between hash and order-based aggregation
        (paper Section 4.4).
        """
        return ()

    def open(self) -> None:
        """Acquire resources. Subclasses must call ``super().open()``."""
        if self._opened:
            raise ExecutionError(f"{type(self).__name__} opened twice")
        tracer = self.context.tracer
        if tracer.enabled:
            self._span_id = tracer.allocate_id()
            if self._trace_parent is None:
                # Root operator of a pipeline: attach to the innermost
                # open span of this thread (pipeline or query span).
                self._trace_parent = tracer.current_span_id()
        self._opened = True

    def _adopt_child_span(self, child: "PhysicalOperator") -> None:
        """Parent *child*'s operator span under this operator's span."""
        if self._span_id is not None:
            child._trace_parent = self._span_id

    def next_batches(self) -> Iterator[VectorBatch]:
        """Yield output batches until exhausted (counts rows).

        A cooperative cancellation checkpoint runs once per batch: one
        ``is None`` test on the hot path, a deadline comparison only
        when the query actually carries a token.
        """
        cancellation = self.context.query.cancellation
        if not self.context.operator_timing:
            for batch in self._produce():
                if cancellation is not None:
                    cancellation.check()
                self.rows_emitted += len(batch)
                self.batches_emitted += 1
                yield batch
            return
        tracer = self.context.tracer
        if tracer.enabled and self._first_pull_us is None:
            self._first_pull_us = tracer.now_us()
        perf = time.perf_counter
        producer = self._produce()
        while True:
            started = perf()
            try:
                batch = next(producer)
            except StopIteration:
                self.cumulative_seconds += perf() - started
                return
            self.cumulative_seconds += perf() - started
            if cancellation is not None:
                cancellation.check()
            self.rows_emitted += len(batch)
            self.batches_emitted += 1
            yield batch

    def _produce(self) -> Iterator[VectorBatch]:
        """Operator-specific batch production."""
        raise NotImplementedError

    def close(self) -> None:
        """Release resources. Subclasses must call ``super().close()``."""
        tracer = self.context.tracer
        if (
            tracer.enabled
            and self._span_id is not None
            and self._first_pull_us is not None
        ):
            # One complete event per operator: wall interval from the
            # first pull to close, with the cumulative busy time and
            # row/batch counts as arguments.  Intervals nest properly
            # (a parent pulls its child from inside its own interval).
            tracer.record(
                name=type(self).__name__,
                category="operator",
                start_us=self._first_pull_us,
                duration_us=tracer.now_us() - self._first_pull_us,
                span_id=self._span_id,
                parent_id=self._trace_parent,
                args={
                    "rows": self.rows_emitted,
                    "batches": self.batches_emitted,
                    "busy_seconds": round(self.cumulative_seconds, 6),
                },
            )
            self._first_pull_us = None
        self._opened = False

    def batches(self) -> Iterator[VectorBatch]:
        """Full lifecycle: open, stream all batches, close."""
        self.open()
        try:
            yield from self.next_batches()
        finally:
            self.close()

    def merge_stats_from(self, other: "PhysicalOperator") -> None:
        """Fold *other*'s execution stats into this operator, tree-wise.

        Parallel EXPLAIN ANALYZE runs one structurally identical plan
        per partition pipeline; merging them pairwise turns the rendered
        tree into query-global per-operator stats instead of showing
        only one pipeline's share.
        """
        self.rows_emitted += other.rows_emitted
        self.batches_emitted += other.batches_emitted
        self.cumulative_seconds += other.cumulative_seconds
        for mine, theirs in zip(self.children(), other.children()):
            mine.merge_stats_from(theirs)

    def explain(self, indent: int = 0, stats: bool = False) -> str:
        """Human-readable plan tree (EXPLAIN / EXPLAIN ANALYZE output)."""
        line = " " * indent + self.describe()
        if stats:
            line += f"  [rows: {self.rows_emitted}]"
            line += f" [batches: {self.batches_emitted}]"
            if self.context.operator_timing:
                line += (
                    " [time: "
                    f"{format_operator_seconds(self.cumulative_seconds)}]"
                )
        children = "\n".join(
            child.explain(indent + 2, stats=stats)
            for child in self.children()
        )
        return line + ("\n" + children if children else "")

    def describe(self) -> str:
        return type(self).__name__

    def children(self) -> list["PhysicalOperator"]:
        return []


class UnaryOperator(PhysicalOperator):
    """An operator with exactly one input."""

    def __init__(
        self,
        context: ExecutionContext,
        schema: Schema,
        child: PhysicalOperator,
    ):
        super().__init__(context, schema)
        self.child = child

    def open(self) -> None:
        super().open()
        self._adopt_child_span(self.child)
        self.child.open()

    def close(self) -> None:
        self.child.close()
        super().close()

    def children(self) -> list[PhysicalOperator]:
        return [self.child]


class BinaryOperator(PhysicalOperator):
    """An operator with two inputs (joins)."""

    def __init__(
        self,
        context: ExecutionContext,
        schema: Schema,
        left: PhysicalOperator,
        right: PhysicalOperator,
    ):
        super().__init__(context, schema)
        self.left = left
        self.right = right

    def open(self) -> None:
        super().open()
        self._adopt_child_span(self.left)
        self._adopt_child_span(self.right)
        self.left.open()
        self.right.open()

    def close(self) -> None:
        self.left.close()
        self.right.close()
        super().close()

    def children(self) -> list[PhysicalOperator]:
        return [self.left, self.right]
