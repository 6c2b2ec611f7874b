"""The Database facade: parse, plan, execute.

This is the engine's public entry point.  It owns the catalog, applies
DDL/DML, and executes SELECT statements serially or split over
partitions.  How a SELECT splits is decided in one place,
:mod:`repro.db.plan.fragments`, for both transports under it: thread
pipelines over a local table's partitions (:mod:`repro.db.parallel`)
and shard processes (:mod:`repro.db.shard`).
"""

from __future__ import annotations

import dataclasses
import threading
import time
from functools import partial

import numpy as np

from repro.db.catalog import Catalog, ModelMetadata, is_system_table_name
from repro.db.compile import CompiledKernelCache
from repro.db.introspect import (
    ActiveQueryRegistry,
    QueryLog,
    ResourceProfile,
    SystemSchema,
    metrics_to_prometheus,
)
from repro.db.introspect.log import LOG_FILE_NAME
from repro.db.operators import ExecutionContext, QueryContext
from repro.db.operators.base import PhysicalOperator
from repro.db.parallel import WorkerPool, run_plans
from repro.db.plan.cache import PlanCache, SelectText
from repro.db.plan.fragments import build_merge_plan, plan_fragments
from repro.db.plan.physical import GatherExchange, render_explain
from repro.db.planner import ModelJoinFactory, Planner, PlannerOptions
from repro.db.profiler import QueryProfile
from repro.db.resilience import CancellationToken, CircuitBreaker
from repro.db.schema import Column, Schema
from repro.db.sql.ast import (
    AlterModel,
    CreateModel,
    CreateTable,
    DropTable,
    Explain,
    InsertSelect,
    InsertValues,
    SelectStatement,
    Statement,
)
from repro.db.sql.lexer import lex
from repro.db.sql.parser import parse_lexed, parse_statement
from repro.db.table import Table
from repro.db.tracing import MetricsRegistry, Tracer
from repro.db.types import SqlType, parse_type_name
from repro.db.udf import PythonUdf, register_udf
from repro.db.vector import VECTOR_SIZE, VectorBatch
from repro.errors import (
    CatalogError,
    CompiledKernelError,
    ExecutionError,
    PlanError,
    QueryTimeoutError,
    TypeMismatchError,
)


class Result:
    """The materialized result of a statement."""

    def __init__(
        self,
        schema: Schema,
        batches: list[VectorBatch],
        profile: QueryProfile,
    ):
        self.schema = schema
        self.batches = batches
        self.profile = profile
        self._rows: list[tuple] | None = None
        self._columns: dict[str, np.ndarray] = {}

    @classmethod
    def empty(cls, profile: QueryProfile | None = None) -> "Result":
        return cls(Schema(()), [], profile or QueryProfile())

    @property
    def row_count(self) -> int:
        return sum(len(batch) for batch in self.batches)

    @property
    def rows(self) -> list[tuple]:
        if self._rows is None:
            self._rows = [
                row for batch in self.batches for row in batch.to_rows()
            ]
        return self._rows

    def column(self, name: str) -> np.ndarray:
        """All values of one output column as a single array.

        The concatenation is cached per column, so repeated access
        (the bench harness reads the same column for every round) does
        not re-concatenate the batches every call.
        """
        key = self.schema.position_of(name)  # validates; canonical key
        cached = self._columns.get(name)
        if cached is not None:
            return cached
        if not self.batches:
            array = np.empty(0, dtype=self.schema.type_of(name).numpy_dtype)
        else:
            array = np.concatenate(
                [batch.column_at(key) for batch in self.batches]
            )
        self._columns[name] = array
        return array

    def to_dict(self) -> dict[str, np.ndarray]:
        return {name: self.column(name) for name in self.schema.names}

    def scalar(self):
        """The single value of a 1x1 result."""
        rows = self.rows
        if len(rows) != 1 or len(rows[0]) != 1:
            raise ExecutionError(
                f"scalar() requires a 1x1 result, got {len(rows)} rows"
            )
        return rows[0][0]


class Database:
    """An in-process database instance.

    Parameters mirror the paper's experimental setup: *parallelism* is
    the number of partition pipelines a parallel query uses (12 in the
    paper), *vector_size* the execution batch size (1024).
    """

    def __init__(
        self,
        parallelism: int = 1,
        vector_size: int = VECTOR_SIZE,
        planner_options: PlannerOptions | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        task_retries: int = 2,
        path: str | None = None,
        buffer_pool_bytes: int | None = None,
        slow_query_seconds: float | None = None,
        query_log_capacity: int = 256,
        collect_query_log: bool = True,
        shards: int = 0,
        shard_workers: int = 1,
    ):
        if parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        if task_retries < 0:
            raise ValueError("task_retries must be >= 0")
        if shards < 0:
            raise ValueError("shards must be >= 0 (0 = single-process)")
        if shards > 64:
            raise ValueError("shards must be <= 64")
        if shard_workers < 1:
            raise ValueError("shard_workers must be >= 1")
        self.catalog = Catalog()
        #: serializes catalog mutation against snapshot capture: writers
        #: (DDL/DML/checkpoint) hold it for the whole statement, readers
        #: hold it only for the instant :meth:`snapshot` copies the
        #: table list — so a snapshot never observes a half-applied
        #: write (reentrant, so a write statement can nest another)
        self.catalog_lock = threading.RLock()
        #: the serving front-end currently attached (if any); close()
        #: drains it first, and ``system.sessions`` reads through it
        self._server = None
        self.parallelism = parallelism
        self.vector_size = vector_size
        #: how many times a crashed partition pipeline is retried (on a
        #: rotated worker, with backoff) before the query fails
        self.task_retries = task_retries
        self.planner_options = planner_options or PlannerOptions()
        self._modeljoin_factory: ModelJoinFactory | None = None
        #: cost-based ModelJoin variant selector, installed by
        #: repro.core.attach (opaque at this layer; see
        #: repro.core.cost.selector)
        self.variant_selector = None
        self.last_profile: QueryProfile | None = None
        self._worker_pool: WorkerPool | None = None
        #: cross-query model build cache, installed by repro.core.attach
        #: (opaque at this layer; see repro.core.modeljoin.cache)
        self.model_cache = None
        #: engine-lifetime span producer; disabled (no-op) by default.
        #: Pass a shared enabled Tracer to trace several engines into
        #: one timeline (the bench sweeps do).
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        #: engine-lifetime metrics registry (latency percentiles, cache
        #: hit ratios, ... aggregated across queries)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: engine-lifetime cache of generated kernels, keyed by source
        #: text (the plan signature); shared across queries so repeated
        #: statements skip codegen entirely
        self.kernel_cache = CompiledKernelCache()
        #: engine-lifetime cache of plan templates, keyed by statement
        #: shape: a SELECT repeated with fresh literals skips parse,
        #: bind, rewrite and codegen (see repro.db.plan.cache)
        self.plan_cache = PlanCache(self.metrics)
        #: circuit breaker for the compiled path: after repeated
        #: compile/runtime kernel failures the planner lowers fully
        #: interpreted for the cool-down period
        self.compile_breaker = CircuitBreaker(
            failure_threshold=3, reset_seconds=30.0
        )
        #: persistent storage engine; None for an in-memory database.
        #: With *path* set, tables restore from disk on open and
        #: :meth:`checkpoint` / :meth:`close` persist the catalog
        #: atomically (see docs/STORAGE.md).
        self.storage = None
        #: optional hook installed by repro.core.attach that saves and
        #: restores the model cache alongside checkpoints (opaque at
        #: this layer; see repro.core.modeljoin.persistence)
        self.model_cache_persistence = None
        if path is not None:
            from repro.db.storage import StorageEngine

            self.storage = StorageEngine(
                path,
                buffer_pool_bytes=buffer_pool_bytes,
                metrics=self.metrics,
                tracer=self.tracer,
            )
            self.storage.open_into(self.catalog)
        #: queries at or above this latency are marked ``slow`` in the
        #: query log and counted by the ``query.slow`` metric (None =
        #: no slow-query marking)
        self.slow_query_seconds = slow_query_seconds
        #: False skips per-query profile collection and query logging
        #: entirely (the observe bench measures its overhead)
        self.collect_query_log = collect_query_log
        #: named circuit breakers, rendered by ``system.breakers``
        self.breakers = {"compile": self.compile_breaker}
        #: registry of queries currently executing — readable from any
        #: thread through ``system.active_queries``
        self.active_queries = ActiveQueryRegistry()
        #: ring buffer of finished queries (``system.queries``); for a
        #: persistent database the log is also appended to a JSONL
        #: file under the storage root and restored on reopen
        self.query_log = QueryLog(
            capacity=query_log_capacity,
            path=(
                self.storage.root / LOG_FILE_NAME
                if self.storage is not None
                else None
            ),
        )
        #: the ``system.*`` virtual-table provider (see
        #: :mod:`repro.db.introspect`)
        self.introspection = SystemSchema(self)
        self.catalog.attach_system_schema(self.introspection)
        #: configuration echoed as gauges so deployments can scrape
        #: the effective topology (docs/OBSERVABILITY.md)
        self.metrics.gauge("worker.pool_size").set(parallelism)
        self.metrics.gauge("shard.count").set(shards)
        #: multiprocess shard coordinator; None = single-process mode
        #: (the default — bit-identical to pre-sharding behavior).
        #: Started last so shard manifests can replace tables the local
        #: storage restore produced above (see docs/SHARDING.md).
        self.shard_workers = shard_workers
        self.sharding = None
        if shards:
            from repro.db.shard.coordinator import ShardCoordinator

            self.sharding = ShardCoordinator(
                self, shards, shard_workers=shard_workers, path=path
            )
            self.sharding.start()

    # ------------------------------------------------------------------
    # engine-lifetime resources
    # ------------------------------------------------------------------
    @property
    def worker_pool(self) -> WorkerPool:
        """The engine-lifetime execution thread pool (lazily started).

        Parallel queries reuse these threads, so pool startup cost is
        paid once per engine, not once per query.
        """
        if self._worker_pool is None:
            self._worker_pool = WorkerPool(self.parallelism)
        return self._worker_pool

    def checkpoint(self) -> dict:
        """Persist tables, models and the warm model cache to disk.

        Only valid for a database opened with ``path=``.  Data files
        are written first; the catalog manifest is swapped atomically
        last, so a crash mid-checkpoint leaves the previous consistent
        state (see docs/STORAGE.md).  Returns the committed manifest.
        """
        if self.storage is None:
            raise ExecutionError(
                "checkpoint() requires a database opened with path="
            )
        with self.catalog_lock:
            manifest = self.storage.checkpoint(self.catalog)
        if self.sharding is not None:
            # Shard-local slices checkpoint in their own processes;
            # the shard manifest (row routing, table versions) commits
            # alongside the coordinator manifest.
            self.sharding.checkpoint()
        if self.model_cache_persistence is not None:
            self.model_cache_persistence.save()
        return manifest

    def snapshot(self):
        """A pinned, immutable view of the current catalog (MVCC-lite).

        Captured under :attr:`catalog_lock`, so the snapshot is a
        consistent cut across all tables and partitions.  The caller
        must call ``release()`` (or use the snapshot as a context
        manager) so pinned checkpoint generations can be GC'd; the
        serving layer does this for every admitted read query.
        """
        from repro.db.snapshot import DatabaseSnapshot

        with self.catalog_lock:
            return DatabaseSnapshot(self)

    def attach_server(self, server) -> None:
        """Register the serving front-end (done by ``serve.Server``).

        Makes ``system.sessions`` / ``system.admission_queue`` render
        the server's state and lets :meth:`close` drain it first.
        """
        self._server = server

    def _drain_active_queries(self, drain_seconds: float) -> None:
        """Cancel every in-flight query and wait (bounded) for drain.

        Cancellation is cooperative: each query's token trips at its
        next morsel/operator checkpoint and the worker pool drains
        cleanly.  Queries without a token (plain single-caller use)
        are simply waited for.
        """
        for profile in self.active_queries.snapshot():
            if profile.cancellation is not None:
                profile.cancellation.cancel("database closing")
        deadline = time.perf_counter() + max(drain_seconds, 0.0)
        while self.active_queries.snapshot():
            if time.perf_counter() >= deadline:
                break
            time.sleep(0.005)

    def close(self, drain_seconds: float = 5.0) -> None:
        """Release engine-lifetime resources (worker threads, caches,
        open column files).

        Safe under load: an attached serving front-end is closed first
        (new admissions rejected, queued queries shed), then every
        in-flight query is cancelled cooperatively and waited for up to
        *drain_seconds* — only then does the final checkpoint run and
        the worker pool shut down.  A persistent database checkpoints
        before teardown, so plain ``close()`` / ``with
        Database(path=...)`` is durable by default.
        """
        server = self._server
        if server is not None:
            self._server = None
            server.close(drain_seconds=drain_seconds)
        self._drain_active_queries(drain_seconds)
        if self.storage is not None:
            self.checkpoint()
        if self.sharding is not None:
            # After the drain no sharded query holds the dispatch lock,
            # so shutdown broadcasts immediately; a wedged or dead
            # shard is terminated within the deadline (never a hang).
            self.sharding.close(drain_seconds=drain_seconds)
        if self._worker_pool is not None:
            self._worker_pool.shutdown()
            self._worker_pool = None
        if self.storage is not None:
            self.storage.close()
        if self.model_cache is not None:
            self.model_cache.clear()
        self.kernel_cache.clear()
        self.plan_cache.clear()
        self.query_log.close()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def enable_tracing(self) -> Tracer:
        """Start recording spans; returns the engine's tracer."""
        self.tracer.enabled = True
        return self.tracer

    def disable_tracing(self) -> None:
        self.tracer.enabled = False

    def export_trace(self, path: str) -> int:
        """Write the recorded spans as Chrome-trace/Perfetto JSON.

        Returns the number of exported trace events.  Open the file at
        https://ui.perfetto.dev or in ``chrome://tracing``.
        """
        return self.tracer.export(path)

    def export_metrics_text(self) -> str:
        """The metrics registry in Prometheus text exposition format.

        Counters and gauges export as single samples, histograms as
        summaries (quantiles + ``_sum``/``_count``); all names carry
        the ``repro_`` prefix.  See docs/OBSERVABILITY.md.
        """
        return metrics_to_prometheus(self.metrics.snapshot())

    # ------------------------------------------------------------------
    # the query lifecycle
    # ------------------------------------------------------------------
    def query_context(
        self,
        sql: str,
        parallel: bool = False,
        timeout_seconds: float | None = None,
        analyze: bool = False,
    ) -> QueryContext:
        """The :class:`QueryContext` of a direct (unserved) statement."""
        cancellation = None
        if timeout_seconds is not None:
            cancellation = CancellationToken.with_timeout(timeout_seconds)
        elif self.sharding is not None:
            # Sharded queries always carry a token so close() (and any
            # explicit cancel) can abandon a cross-process gather
            # instead of blocking on a slow or dead shard.
            cancellation = CancellationToken()
        return QueryContext(
            sql=sql.strip(),
            catalog=self.catalog,
            cancellation=cancellation,
            parallel=parallel,
            analyze=analyze,
        )

    def run_query(self, query: QueryContext, body) -> Result:
        """Run ``body(context, planner) -> Result`` as one logged query.

        The one lifecycle every statement kind shares: open the
        resource profile and register it as active, run an attempt
        (fresh :class:`ExecutionContext`/:class:`QueryProfile`, the
        ``query`` span, *body*), retry once interpreted if a generated
        kernel fails, then finalize the profile, land the
        ``system.queries`` row and deregister.  Nested queries (the
        source of a ``CREATE MODEL``, the SELECT of an ``INSERT``) run
        inside the parent's *body* on the parent's context, so a client
        statement is one row, one ``query.count`` and one token.
        """
        self._begin(query)
        try:
            try:
                result = self._attempt(query, body)
            except CompiledKernelError as error:
                # One-shot fallback: a generated kernel failed (at
                # compile exec time or at runtime).  Record the failure
                # on the compile breaker — repeated failures disable
                # compilation engine-wide for the cool-down — and
                # re-execute fully interpreted, under the same
                # cancellation token so the original deadline still
                # applies.  Timeouts never take this path:
                # QueryTimeoutError is not a CompiledKernelError.
                self.metrics.counter("compile.fallback").increment()
                self.compile_breaker.record_failure()
                self.tracer.instant(
                    "compile-fallback",
                    category="fallback",
                    args={
                        "error": type(error).__name__,
                        "detail": str(error),
                    },
                )
                if query.collector is not None:
                    query.collector.fallback = True
                result = self._attempt(query, body, use_compiled=False)
        except Exception as error:
            # Failed queries still land a log row, with the error's
            # taxonomy class (BindError, InjectedFaultError, ...).
            self._finish(query, error)
            raise
        except BaseException:
            # KeyboardInterrupt/SystemExit: don't log a row, but never
            # leave a ghost entry in the active-query registry.
            if query.collector is not None:
                self.active_queries.deregister(query.collector.query_id)
            raise
        self._finish(query)
        return result

    def log_unexecuted(
        self, query: QueryContext, error: BaseException
    ) -> None:
        """Land the ``system.queries`` row of a statement that died
        before execution (shed, expired or cancelled while queued):
        the lifecycle's two ends with no attempt in between."""
        self._begin(query)
        self._finish(query, error)

    def _begin(self, query: QueryContext) -> None:
        """Open the resource profile and register it as an active query
        (which also exposes the token, so close()/session teardown can
        cancel in-flight queries through the registry)."""
        if not self.collect_query_log:
            return
        query.collector = ResourceProfile(
            query_id=self.query_log.allocate_query_id(),
            sql=query.sql,
            session_id=query.session_id,
            tenant=query.tenant,
            cancellation=query.cancellation,
        )
        self.active_queries.register(query.collector)

    def _attempt(
        self,
        query: QueryContext,
        body,
        use_compiled: bool | None = None,
    ) -> Result:
        """One attempt of *query*: a fresh execution context wired to the
        engine's tracer and metrics (operator timing switches on with
        the tracer), ``query.profile`` viewing its resources, and *body*
        under the ``query`` span."""
        context = ExecutionContext(
            vector_size=self.vector_size,
            parallelism=self.parallelism if query.parallel else 1,
            tracer=self.tracer,
            metrics=self.metrics,
            operator_timing=self.tracer.enabled or query.analyze,
            query=query,
        )
        if query.collector is not None:
            # A fallback re-execution rebinds the collector to the new
            # attempt's counters: the logged resources are those of the
            # attempt that produced (or failed to produce) the result.
            query.collector.counters = context.counters
        profile = query.profile = QueryProfile(
            memory=context.memory,
            stopwatch=context.stopwatch,
            counters=context.counters,
        )
        args = {"parallel": context.parallelism > 1, "analyze": query.analyze}
        started = time.perf_counter()
        try:
            with self.tracer.span("query", category="query", args=args):
                context.trace_parent = self.tracer.current_span_id()
                result = body(
                    context, self._planner(use_compiled, query.catalog)
                )
        finally:
            profile.wall_seconds = time.perf_counter() - started
        profile.rows_returned = result.row_count
        return result

    def _finish(
        self, query: QueryContext, error: BaseException | None = None
    ) -> None:
        """Feed the engine metrics and append the query-log row.

        An executed statement counts in ``query.count`` / ``query.rows``
        / ``query.latency``, and memory-release underflows surface as
        the ``memory.release_underflow`` profile counter and metric.
        """
        rows_returned = 0
        profile = query.profile
        if profile is not None:  # the statement executed
            rows_returned = profile.rows_returned
            metrics = self.metrics
            underflows = profile.memory.underflows
            if underflows:
                profile.counters.increment(
                    "memory.release_underflow", underflows
                )
                metrics.counter("memory.release_underflow").increment(
                    underflows
                )
            metrics.histogram("query.latency").observe(profile.wall_seconds)
            metrics.counter("query.count").increment()
            metrics.counter("query.rows").increment(rows_returned)
            self.last_profile = profile
            if isinstance(error, QueryTimeoutError):
                metrics.counter("query.timeouts").increment()
        collector = query.collector
        if collector is None:
            return
        try:
            collector.finish(error=error, rows_returned=rows_returned)
            if (
                self.slow_query_seconds is not None
                and collector.latency_seconds >= self.slow_query_seconds
            ):
                collector.slow = True
                self.metrics.counter("query.slow").increment()
            self.query_log.record(collector.to_entry())
        finally:
            self.active_queries.deregister(collector.query_id)

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # catalog-level API
    # ------------------------------------------------------------------
    def create_table(
        self,
        name: str,
        schema: Schema,
        num_partitions: int | None = None,
        partition_key: str | None = None,
        sort_key: tuple[str, ...] = (),
        replace: bool = False,
    ) -> Table:
        """Create a table programmatically (bulk loaders use this).

        On a sharded database every *partitioned* table (one with a
        ``partition_key``) is hash-sharded across the worker processes;
        unpartitioned tables — model tables, dimension tables — stay
        coordinator-local and replicate to shards on demand (the
        ModelJoin broadcast; see docs/SHARDING.md).
        """
        if self.sharding is not None and partition_key is not None:
            return self.sharding.create_sharded_table(
                name,
                schema,
                partition_key=partition_key,
                sort_key=sort_key,
                replace=replace,
            )
        table = Table(
            name,
            schema,
            num_partitions=num_partitions or 1,
            partition_key=partition_key,
            sort_key=sort_key,
        )
        self.catalog.create_table(table, replace=replace)
        return table

    def table(self, name: str) -> Table:
        return self.catalog.table(name)

    def register_udf(self, udf: PythonUdf) -> PythonUdf:
        return register_udf(udf)

    def register_model(
        self, metadata: ModelMetadata, replace: bool = False
    ) -> None:
        """Register model-table semantics in the catalog (paper §5.5)."""
        self.catalog.register_model(metadata, replace=replace)

    def set_modeljoin_factory(self, factory: ModelJoinFactory) -> None:
        """Install the MODEL JOIN operator factory (done by repro.core)."""
        self._modeljoin_factory = factory

    def set_variant_selector(self, selector) -> None:
        """Install the cost-based ModelJoin variant selector (done by
        repro.core.attach); the planner consults it per query."""
        self.variant_selector = selector

    def _planner(
        self,
        use_compiled: bool | None = None,
        catalog: Catalog | None = None,
    ) -> Planner:
        options = self.planner_options
        if use_compiled is False and options.use_compiled_kernels:
            options = dataclasses.replace(
                options, use_compiled_kernels=False
            )
        return Planner(
            catalog if catalog is not None else self.catalog,
            options=options,
            modeljoin_factory=self._modeljoin_factory,
            variant_selector=self.variant_selector,
            tracer=self.tracer,
            metrics=self.metrics,
            kernel_cache=self.kernel_cache,
            compile_breaker=self.compile_breaker,
            # the interpreted retry after a kernel failure plans cold
            # and records nothing
            plan_cache=self.plan_cache if use_compiled is None else None,
        )

    # ------------------------------------------------------------------
    # statement execution
    # ------------------------------------------------------------------
    def execute(
        self,
        sql: str,
        parallel: bool = False,
        timeout_seconds: float | None = None,
    ) -> Result:
        """Parse and execute one SQL statement.

        ``parallel=True`` asks for a SELECT to run one pipeline per
        partition of its partitioned input; the fragment planner honours
        the request or declines it and runs the query serially (see
        :mod:`repro.db.plan.fragments`).

        ``timeout_seconds`` sets a per-query deadline: execution checks
        a cooperative cancellation token at every batch/morsel boundary
        and raises :class:`~repro.errors.QueryTimeoutError` once the
        deadline passes (the worker pool drains cleanly and stays
        usable).
        """
        return self.execute_statement(
            self.parse(sql),
            self.query_context(sql, parallel, timeout_seconds),
        )

    def parse(self, sql: str) -> Statement | SelectText:
        """Lex *sql* and parse it unless the plan cache knows its shape.

        Every SELECT comes back as a :class:`SelectText`: the planner
        serves it from its shape's template when one is valid for the
        query's catalog — never parsing it — and otherwise parses and
        plans it, recording the template.  Other statements come back
        parsed.
        """
        lexed = lex(sql)
        if lexed.shape in self.plan_cache:
            return SelectText(lexed)
        statement = parse_lexed(lexed)
        if isinstance(statement, SelectStatement):
            return SelectText(lexed, statement)
        return statement

    def execute_statement(
        self,
        statement: Statement | SelectText,
        query: QueryContext | None = None,
    ) -> Result:
        """Execute a statement from :meth:`parse` under *query*.

        The serving layer and the shard workers enter here with the
        :class:`QueryContext` they built (snapshot catalog, session
        token and identity); without one the statement runs as a
        direct query, logged under a synthetic marker.
        """
        if query is None:
            query = self.query_context(f"<{type(statement).__name__}>")
        select = isinstance(statement, (SelectStatement, SelectText))
        if not select:
            # Only a client SELECT fans out per partition: the nested
            # query of an INSERT or CREATE MODEL runs serial to keep
            # serial row order (a CREATE MODEL source must yield the
            # same rows in the same order to train the same weights).
            query.parallel = False
        if isinstance(statement, Explain):
            lines = self._explain_lines(statement.statement, query.catalog)
            schema = Schema((Column("plan", SqlType.VARCHAR),))
            batch = VectorBatch(schema, [np.array(lines, dtype=object)])
            return Result(schema, [batch], QueryProfile())
        if isinstance(statement, CreateTable):
            with self.catalog_lock:
                return self._execute_create_table(statement)
        if isinstance(statement, DropTable):
            with self.catalog_lock:
                if self.sharding is not None:
                    from repro.db.shard.tables import ShardedTable

                    existing = self.catalog.tables.get(
                        statement.table_name.lower()
                    )
                    if isinstance(existing, ShardedTable):
                        self.sharding.drop_table(statement.table_name)
                self.catalog.drop_table(
                    statement.table_name, if_exists=statement.if_exists
                )
            return Result.empty()
        if isinstance(statement, CreateModel):
            # NOT under the catalog lock: the executor locks briefly to
            # resolve the version and again to publish, but the training
            # loop itself runs unlocked so serving admissions and
            # snapshot captures proceed while a (re)train is in flight.
            from repro.db.train import execute_create_model

            return execute_create_model(self, statement, query)
        if isinstance(statement, AlterModel):
            from repro.db.train import execute_alter_model

            return execute_alter_model(self, statement, query)
        if isinstance(statement, InsertValues):
            with self.catalog_lock:
                return self._execute_insert_values(statement)
        if isinstance(statement, InsertSelect):
            with self.catalog_lock:
                return self.run_query(
                    query, partial(self._insert_select, statement)
                )
        if select:
            return self.run_query(query, partial(self.run_select, statement))
        raise PlanError(f"unsupported statement {type(statement).__name__}")

    def explain(self, sql: str) -> str:
        statement = parse_statement(sql)
        if isinstance(statement, Explain):
            statement = statement.statement
        return "\n".join(self._explain_lines(statement, self.catalog))

    def explain_analyze(
        self, sql: str, parallel: bool = False
    ) -> tuple[str, Result]:
        """Execute *sql* and return the plan annotated with per-operator
        stats (rows, batches, cumulative time), plus the result.

        When ``parallel=True`` splits the query over partitions, the
        per-partition operator stats are merged into a single rendered
        tree (query-global numbers, not one pipeline's share) below the
        merge pipeline.
        """
        statement = parse_statement(sql)
        if isinstance(statement, Explain):
            statement = statement.statement
        if not isinstance(statement, SelectStatement):
            raise PlanError("EXPLAIN ANALYZE supports only SELECT")
        query = self.query_context(sql, parallel, analyze=True)
        result = self.execute_statement(statement, query)
        merged = query.plans[0]
        for other in query.plans[1:]:
            merged.merge_stats_from(other)
        if len(query.plans) == 1:
            return merged.explain(stats=True), result
        lines = [
            f"Parallel: {len(query.plans)} pipelines "
            "(per-operator stats merged across pipelines)"
        ]
        if query.coordinator is not None:
            lines.append("coordinator (post-merge):")
            lines.append(query.coordinator.explain(indent=2, stats=True))
            lines.append("per-pipeline plan:")
        lines.append(merged.explain(indent=2, stats=True))
        return "\n".join(lines), result

    # ------------------------------------------------------------------
    # statement handlers
    # ------------------------------------------------------------------
    def _explain_lines(self, statement: Statement, catalog) -> list[str]:
        """EXPLAIN output for *statement*, planned against *catalog*."""
        if isinstance(statement, CreateModel):
            from repro.db.train import render_create_model_explain

            return render_create_model_explain(
                self, statement, self._explain_lines(statement.query, catalog)
            )
        if isinstance(statement, AlterModel):
            return [
                f"AlterModel(model={statement.model_name.lower()}, "
                f"set_version={statement.version})"
            ]
        if not isinstance(statement, SelectStatement):
            raise PlanError(
                "EXPLAIN supports SELECT, CREATE MODEL and ALTER MODEL"
            )
        planner = self._planner(catalog=catalog)
        prepared = planner.prepare(statement)
        context = ExecutionContext(vector_size=self.vector_size)
        text = render_explain(prepared, planner.lower(prepared, context))
        if self.sharding is not None:
            fragment = plan_fragments(prepared, 1)
            if fragment.sharded:
                text = self.sharding.explain_fragments(fragment) + "\n" + text
        return text.splitlines()

    def _execute_create_table(self, statement: CreateTable) -> Result:
        if statement.if_not_exists and self.catalog.has_table(
            statement.table_name
        ):
            return Result.empty()
        schema = Schema(
            tuple(
                Column(definition.name, parse_type_name(definition.type_name))
                for definition in statement.columns
            )
        )
        self.create_table(
            statement.table_name,
            schema,
            num_partitions=statement.num_partitions,
            partition_key=statement.partition_key,
            sort_key=statement.sort_key,
        )
        return Result.empty()

    @staticmethod
    def _check_writable(table_name: str) -> None:
        if is_system_table_name(table_name):
            raise CatalogError(
                f"cannot insert into {table_name!r}: "
                "the system schema is read-only"
            )

    def _execute_insert_values(self, statement: InsertValues) -> Result:
        self._check_writable(statement.table_name)
        table = self.catalog.table(statement.table_name)
        rows = self._reorder_rows(
            table.schema, statement.rows, statement.column_names
        )
        table.append_rows(rows)
        return Result.empty()

    @staticmethod
    def _reorder_rows(
        schema: Schema,
        rows: tuple[tuple[object, ...], ...],
        column_names: tuple[str, ...],
    ) -> list[tuple]:
        width = len(column_names) if column_names else len(schema)
        for row in rows:
            if len(row) != width:
                raise TypeMismatchError(
                    f"INSERT row has {len(row)} values, expected {width}"
                )
        if not column_names:
            return list(rows)
        if len(column_names) != len(schema):
            raise TypeMismatchError(
                "INSERT must provide values for all columns "
                f"({list(schema.names)})"
            )
        positions = [schema.position_of(name) for name in column_names]
        reordered = []
        for row in rows:
            target: list[object] = [None] * len(schema)
            for position, value in zip(positions, row):
                target[position] = value
            reordered.append(tuple(target))
        return reordered

    def _insert_select(
        self, statement: InsertSelect, context: ExecutionContext, planner
    ) -> Result:
        if statement.column_names:
            raise PlanError(
                "INSERT ... SELECT with a column list is not supported"
            )
        self._check_writable(statement.table_name)
        table = self.catalog.table(statement.table_name)
        result = self.run_select(statement.query, context, planner)
        if len(result.schema) != len(table.schema):
            raise TypeMismatchError(
                f"INSERT SELECT produces {len(result.schema)} columns, "
                f"table {table.name} has {len(table.schema)}"
            )
        for batch in result.batches:
            coerced = [
                array.astype(column.sql_type.numpy_dtype, copy=False)
                if array.dtype != np.dtype(object)
                else array
                for array, column in zip(batch.arrays, table.schema)
            ]
            table.append_batch(VectorBatch(table.schema, coerced))
        return Result.empty(result.profile)

    def run_select(
        self,
        statement: SelectStatement | SelectText,
        context: ExecutionContext,
        planner,
    ) -> Result:
        """Plan and run a SELECT on *context* (a lifecycle body; also
        how ``CREATE MODEL`` and ``INSERT`` run their nested query).

        A statement over sharded tables, or one asked to run parallel,
        goes to the fragment planner; a serial query on an unsharded
        database is lowered once without it.
        """
        query = context.query
        prepared = planner.prepare(statement)
        if query.collector is not None:
            query.collector.plan_cached = prepared.cached
            if prepared.selections:
                query.collector.modeljoin_variant = (
                    prepared.selections[0].chosen
                )
        fragment = None
        if self.sharding is not None or context.parallelism > 1:
            fragment = plan_fragments(prepared, context.parallelism)
        if fragment is None or (
            fragment.merge == "decline" and not fragment.sharded
        ):
            # The ModelJoin build barrier waits for context.parallelism
            # pipelines: one, here.
            context.parallelism = 1
            plan = planner.lower(prepared, context)
            if query.analyze:
                query.plans = [plan]
            return Result(plan.schema, list(plan.batches()), query.profile)
        if query.collector is not None:
            query.collector.parallel = fragment.partitions > 1
        if fragment.sharded:
            if query.analyze:
                raise PlanError(
                    "EXPLAIN ANALYZE does not cover sharded tables "
                    "(EXPLAIN shows the fragment tree)"
                )
            schema, batches = self.sharding.execute_fragments(
                fragment, context, planner.catalog, planner.kernel_compiler()
            )
            return Result(schema, batches, query.profile)
        if fragment.statement is not prepared.statement:
            prepared = planner.prepare(fragment.statement)
        # Every partition pipeline is lowered from this one prepared
        # plan (one variant decision for all of them).
        context.parallelism = fragment.partitions

        def lower(index: int) -> PhysicalOperator:
            return planner.lower(prepared, context, partition_index=index)

        plans = [lower(index) for index in range(fragment.partitions)]
        if query.analyze:
            query.plans = plans
        schema, per_partition = run_plans(
            plans,
            pool=self.worker_pool,
            morsel_driven=True,
            plan_builder=lower,
            retries=self.task_retries,
        )
        plan = build_merge_plan(
            context,
            fragment,
            GatherExchange(context, schema, per_partition),
            planner.kernel_compiler(),
        )
        if query.analyze:
            query.coordinator = plan
        return Result(plan.schema, list(plan.batches()), query.profile)
