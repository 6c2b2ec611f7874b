"""Partition-parallel query execution on a persistent worker pool.

Mirrors x100's intra-query parallelism (paper Sections 4.4 and 5.2):
each execution thread gets a *private plan instance*, while
unpartitioned tables (the model table) are scanned by every thread —
the replication the paper describes for distributed setups.  All
pipelines share one :class:`~repro.db.operators.base.ExecutionContext`,
so memory accounting reflects the query-global peak and barrier-style
shared state (the native ModelJoin's shared model build) is visible
across threads.

This module is the thread transport of the one partition
decomposition: :mod:`repro.db.plan.fragments` decides which statement
each partition runs and how the results merge (the same decision the
shard processes run under), and :func:`run_plans` runs the pipelines.
Two scheduling strategies exist:

* **Static partition binding** — pipeline *i* scans partition *i* of
  every partitioned base table.  This is the fallback for plans
  containing blocking operators.

* **Morsel-driven** — when every operator of every pipeline is
  *morsel-streaming* (scan/filter/project/rename/modeljoin) and exactly
  one partitioned table is scanned, the partitions are split into scan
  morsels on a shared queue and the pipelines steal work from it.
  Skewed partitions then no longer gate query latency: a worker that
  finishes its morsel takes the next one, whichever partition it came
  from.

The worker pool itself is *engine-lifetime*: :class:`WorkerPool` is
owned by the :class:`~repro.db.engine.Database` and reused across
queries, so thread startup cost disappears from per-query latency (the
serving scenario of repeated scoring queries).

**Failure containment** (see ``docs/ROBUSTNESS.md``): a crashed
pipeline no longer fails the whole query.  :func:`run_plans` collects a
:class:`TaskOutcome` per pipeline; when a *plan_builder* is given,
failed pipelines are retried up to *retries* times with exponential
backoff — each retry gets a **fresh plan instance** (operators are not
reopenable) dispatched to a **different worker** (the pool rotates task
assignment by attempt), and any morsels the crashed pipeline had taken
from the shared queue are requeued first, so no input rows are lost or
double-counted.  Failures that do propagate are chained
(``raise original from WorkerCrashError(...)``) so the original
exception type and worker traceback survive alongside the task
identity.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable
from dataclasses import dataclass

from repro.db import faults
from repro.db.operators.base import PhysicalOperator
from repro.db.resilience import backoff_seconds
from repro.db.schema import Schema
from repro.db.vector import VectorBatch
from repro.errors import (
    ExecutionError,
    QueryTimeoutError,
    WorkerCrashError,
)

PlanBuilder = Callable[[int], PhysicalOperator]

#: default number of rows per scan morsel (a few execution vectors)
MORSEL_ROWS = 4096

#: shared-state key flagging "a task of the current round crashed".
#: Set *before* the builder-abort sweep and checked by barrier-coupled
#: operators right before they wait: a builder registered before the
#: flag was set is caught by the sweep, one registered after sees the
#: flag — so no pipeline can wait on a barrier whose party count will
#: never be reached.
ROUND_ABORTED_KEY = "__round_aborted__"

_worker_slot = threading.local()


def current_worker_name() -> str:
    """Name of the pool worker running the caller (or 'main')."""
    return getattr(_worker_slot, "name", "main")


@dataclass
class TaskOutcome:
    """What happened to one dispatched task (success *or* failure)."""

    result: object = None
    error: BaseException | None = None
    #: name of the worker that ran the task ('' if never dispatched)
    worker: str = ""


class WorkerPool:
    """A persistent, named pool of query-execution threads.

    Unlike a per-query ``ThreadPoolExecutor``, the pool's threads live
    for the lifetime of the owning engine.  :meth:`run_tasks` schedules
    one task per worker and blocks until all complete — tasks of one
    parallel query may synchronize with each other (the ModelJoin build
    barrier), which is safe because every task is guaranteed its own
    thread.  A pool-level lock serializes parallel queries so two
    queries can never interleave on the same workers and deadlock.

    A crashing task is *contained*: its exception is captured into a
    :class:`TaskOutcome` and the pool's threads stay healthy — the
    worker loop itself never dies, so a failed query costs nothing but
    its own latency.
    """

    def __init__(self, size: int, name_prefix: str = "repro-worker"):
        if size < 1:
            raise ExecutionError("worker pool needs at least one thread")
        self.size = size
        self._query_lock = threading.Lock()
        self._task_ready = threading.Condition()
        self._tasks: list | None = None
        #: bumped per dispatch so a worker that loops around never
        #: re-executes the batch it just finished
        self._generation = 0
        self._done = threading.Semaphore(0)
        self._shutdown = False
        #: worker threads that failed to drain within the shutdown
        #: timeout (empty after a clean shutdown)
        self.undrained: list[str] = []
        self._threads = [
            threading.Thread(
                target=self._worker_loop,
                args=(index,),
                name=f"{name_prefix}-{index}",
                daemon=True,
            )
            for index in range(size)
        ]
        for thread in self._threads:
            thread.start()

    def _worker_loop(self, index: int) -> None:
        _worker_slot.name = f"worker-{index}"
        seen_generation = 0
        while True:
            with self._task_ready:
                while (
                    self._generation == seen_generation
                    and not self._shutdown
                ):
                    self._task_ready.wait()
                if self._shutdown:
                    return
                seen_generation = self._generation
                tasks = self._tasks
            entry = tasks[index] if index < len(tasks) else None
            if entry is not None:
                function, outcome, on_error = entry
                outcome.worker = _worker_slot.name
                try:
                    if faults.ACTIVE is not None:
                        faults.ACTIVE.fire("worker.task")
                    outcome.result = function()
                except BaseException as error:  # contained, see outcome
                    outcome.error = error
                    if on_error is not None:
                        try:
                            on_error(outcome)
                        except Exception:
                            pass
            self._done.release()

    def run_task_outcomes(
        self,
        functions: list[Callable[[], object]],
        worker_offset: int = 0,
        on_error: Callable[[TaskOutcome], None] | None = None,
    ) -> list[TaskOutcome]:
        """Run each function on its own worker; never raises task errors.

        Returns one :class:`TaskOutcome` per function, in order.  Tasks
        may be barrier-coupled, so every task runs to completion (or
        failure) before this returns — none is abandoned mid-flight.
        *worker_offset* rotates the task→worker assignment, so a retry
        round (offset = attempt number) lands each task on a different
        worker than the one it crashed on.  *on_error* runs on the
        crashing worker's thread the moment a task fails — the executor
        uses it to break shared build barriers so barrier-coupled
        sibling tasks fail fast instead of waiting for a party that
        will never arrive.
        """
        if len(functions) > self.size:
            raise ExecutionError(
                f"{len(functions)} tasks exceed the pool's "
                f"{self.size} workers"
            )
        if self._shutdown:
            raise ExecutionError("worker pool is shut down")
        outcomes = [TaskOutcome() for _ in functions]
        assignments: list = [None] * self.size
        for position, function in enumerate(functions):
            slot = (position + worker_offset) % self.size
            assignments[slot] = (function, outcomes[position], on_error)
        with self._query_lock:
            with self._task_ready:
                self._tasks = assignments
                self._generation += 1
                self._task_ready.notify_all()
            for _ in range(self.size):
                self._done.acquire()
        return outcomes

    def run_tasks(self, functions: list[Callable[[], object]]) -> list:
        """Run each function on its own worker; return results in order.

        Raises the first task error after all tasks finished.  The
        raised exception keeps its original type and worker traceback;
        a :class:`WorkerCrashError` naming the task and worker is
        chained on as its ``__cause__``.
        """
        outcomes = self.run_task_outcomes(functions)
        for index, outcome in enumerate(outcomes):
            if outcome.error is not None:
                raise outcome.error from WorkerCrashError(
                    f"task {index} of {len(functions)} crashed on "
                    f"{outcome.worker or 'an undispatched worker'}"
                )
        return [outcome.result for outcome in outcomes]

    def shutdown(self, drain_timeout: float = 5.0) -> bool:
        """Stop the worker threads; returns True when fully drained.

        Idempotent under concurrent callers: every call observes the
        same shutdown flag, joins whatever threads remain, and reports
        drain success.  The join is bounded by *drain_timeout* seconds
        **total** (not per thread); stragglers are recorded in
        :attr:`undrained` instead of blocking the caller forever.
        """
        with self._task_ready:
            self._shutdown = True
            self._task_ready.notify_all()
        deadline = time.perf_counter() + max(drain_timeout, 0.0)
        undrained: list[str] = []
        for thread in self._threads:
            remaining = deadline - time.perf_counter()
            thread.join(timeout=max(remaining, 0.0))
            if thread.is_alive():
                undrained.append(thread.name)
        self.undrained = undrained
        return not undrained


@dataclass
class Morsel:
    """One unit of stealable scan work: a row range of one block."""

    partition_index: int
    #: the block, and its index in the partition's block list (and so
    #: in the source's ``zone_maps`` of that partition)
    block: object
    block_index: int
    row_start: int
    row_stop: int


class MorselSource:
    """A thread-safe queue of scan morsels over one partitioned table.

    Built once per query by the coordinator; the pipelines' scans pull
    from it until it runs dry.  Work stealing is implicit: whichever
    worker asks next gets the next morsel, so partition skew spreads
    over all workers instead of gating on the largest partition.

    Morsels taken by a pipeline are tracked as *in flight* under that
    pipeline's owner id until the pipeline either :meth:`settle`\\ s
    (success: its output batches were collected) or :meth:`requeue`\\ s
    them (crash: the partial output was discarded, so the morsels go
    back on the queue for the retry to process exactly once).
    """

    def __init__(self, table, morsel_rows: int = MORSEL_ROWS):
        self.table = table
        self._lock = threading.Lock()
        #: zone maps of each partition's blocks, read with the blocks
        self.zone_maps: list = []
        self._morsels = self._split(table, morsel_rows)
        self._cursor = 0
        self.dispensed = 0
        self.requeued = 0
        self._inflight: dict[object, list[Morsel]] = {}

    def _split(self, table, morsel_rows: int) -> list[Morsel]:
        morsels: list[Morsel] = []
        for partition_index, partition in enumerate(table.partitions):
            blocks, zones = partition.zoned_blocks()
            self.zone_maps.append(zones)
            for block_index, block in enumerate(blocks):
                rows = block.length
                for start in range(0, rows, morsel_rows):
                    morsels.append(
                        Morsel(
                            partition_index,
                            block,
                            block_index,
                            start,
                            min(start + morsel_rows, rows),
                        )
                    )
        return morsels

    def __len__(self) -> int:
        return len(self._morsels)

    def next_morsel(self, owner: object | None = None) -> Morsel | None:
        with self._lock:
            if self._cursor >= len(self._morsels):
                return None
            morsel = self._morsels[self._cursor]
            self._cursor += 1
            self.dispensed += 1
            if owner is not None:
                self._inflight.setdefault(owner, []).append(morsel)
            return morsel

    def settle(self, owner: object) -> None:
        """Forget *owner*'s in-flight morsels (its output was kept)."""
        with self._lock:
            self._inflight.pop(owner, None)

    def requeue(self, owner: object) -> int:
        """Put *owner*'s in-flight morsels back on the queue.

        Called when the owning pipeline crashed and its partial output
        was discarded; returns how many morsels went back.
        """
        with self._lock:
            morsels = self._inflight.pop(owner, None)
            if not morsels:
                return 0
            self._morsels.extend(morsels)
            self.requeued += len(morsels)
            return len(morsels)


def _pipeline_operators(plan: PhysicalOperator) -> list[PhysicalOperator]:
    operators = [plan]
    for child in plan.children():
        operators.extend(_pipeline_operators(child))
    return operators


def attach_morsel_sources(
    plans: list[PhysicalOperator], morsel_rows: int = MORSEL_ROWS
) -> list[MorselSource]:
    """Switch eligible pipelines to morsel-driven scanning.

    Eligible when every operator of every pipeline is morsel-streaming
    and the pipelines scan exactly one partitioned base table (scans of
    unpartitioned tables are broadcast and stay as they are).  Returns
    the shared sources that were attached ([] means static partition
    binding stays in effect).
    """
    from repro.db.operators.scan import TableScan

    partitioned_scans: list[list[TableScan]] = []
    for plan in plans:
        operators = _pipeline_operators(plan)
        if not all(op.morsel_streaming for op in operators):
            return []
        mine = [
            op
            for op in operators
            if isinstance(op, TableScan) and op.table.num_partitions > 1
        ]
        if len(mine) != 1:
            return []
        partitioned_scans.append(mine)
    tables = {id(scans[0].table) for scans in partitioned_scans}
    if len(tables) != 1:
        return []
    source = MorselSource(
        partitioned_scans[0][0].table, morsel_rows=morsel_rows
    )
    for index, scans in enumerate(partitioned_scans):
        scans[0].morsel_source = source
        scans[0].morsel_owner = index
    partitioned_scans[0][0].context.query.profile.morsels_total = len(source)
    return [source]


def _rewire_morsel_source(
    plan: PhysicalOperator, source: MorselSource, owner: int
) -> None:
    """Point a freshly built retry plan at the query's shared queue."""
    from repro.db.operators.scan import TableScan

    for operator in _pipeline_operators(plan):
        if isinstance(operator, TableScan) and operator.table is source.table:
            operator.morsel_source = source
            operator.morsel_owner = owner


def _is_retryable(error: BaseException) -> bool:
    """Crashes are retryable; deadline misses and interrupts are not.

    Re-running a timed-out pipeline can only time out again later, and
    non-``Exception`` ``BaseException``\\ s (KeyboardInterrupt,
    SystemExit) must escape immediately.
    """
    return isinstance(error, Exception) and not isinstance(
        error, QueryTimeoutError
    )


def _raise_pipeline_failure(
    failed: dict[int, TaskOutcome], attempts: int
) -> None:
    """Chain and raise the surfaced error of a failed pipeline round."""
    fatal = [
        index
        for index in sorted(failed)
        if not _is_retryable(failed[index].error)
    ]
    index = fatal[0] if fatal else sorted(failed)[0]
    outcome = failed[index]
    raise outcome.error from WorkerCrashError(
        f"pipeline {index} failed on {outcome.worker or 'main'} "
        f"after {attempts} attempt(s)"
    )


def _abort_shared_builders(shared_state: dict) -> None:
    """Break every abortable barrier registered in a query's state.

    When a task crashes *before* reaching a shared build barrier (e.g.
    an injected ``worker.task`` fault), the cooperating pipelines would
    otherwise wait for a party that never arrives.  Decision payloads
    that expose ``abort()`` (the ModelJoin's shared
    :class:`~repro.core.modeljoin.builder.ModelBuilder`) are aborted so
    the waiters observe a retryable crash instead of deadlocking.
    """
    for value in list(shared_state.values()):
        items = value if isinstance(value, tuple) else (value,)
        for item in items:
            abort = getattr(item, "abort", None)
            if callable(abort):
                try:
                    abort()
                except Exception:
                    pass


def _run_round(
    pending: list[int],
    run_one: Callable[[int], object],
    attempt: int,
    pool: WorkerPool | None,
    on_error: Callable[[TaskOutcome], None] | None = None,
) -> list[TaskOutcome]:
    """Execute the pending pipelines once, capturing every outcome.

    *pool* may be None only for a single pipeline."""
    functions = [lambda index=index: run_one(index) for index in pending]
    if len(functions) > 1:
        return pool.run_task_outcomes(
            functions, worker_offset=attempt, on_error=on_error
        )
    # Serial (or single-pipeline retry) fast path on the caller's
    # thread — by definition a different "worker" than a crashed pool
    # task.
    outcome = TaskOutcome(worker=current_worker_name())
    try:
        outcome.result = functions[0]()
    except BaseException as error:
        outcome.error = error
    return [outcome]


def run_plans(
    plans: list[PhysicalOperator],
    pool: WorkerPool | None = None,
    plan_builder: PlanBuilder | None = None,
    retries: int = 0,
) -> tuple[Schema, list[list[VectorBatch]]]:
    """Execute already-built partition pipelines concurrently.

    Returns the output schema and each pipeline's result batches, in
    pipeline order (batch order within a pipeline is preserved).

    The caller keeps the plan instances, so their post-run operator
    stats remain inspectable (parallel EXPLAIN ANALYZE merges them).
    With a tracer enabled on the plans' context, every pipeline records
    a ``pipeline`` span on its worker thread, parented under the
    query's span via ``context.trace_parent``.

    With *plan_builder* and *retries* > 0, crashed pipelines are
    retried with exponential backoff: the crashed pipeline's in-flight
    morsels are requeued, a fresh plan instance is built for its index
    (and rewired to the shared morsel queue), and the round re-runs on
    rotated workers.  ``plans`` is updated in place with the retry
    instances so post-run stats stay inspectable.  Retry rounds bump
    the ``query.retries`` / ``worker.crashes`` counters and emit
    ``retry``-category marker spans.
    """
    if not plans:
        raise ValueError("need at least one plan")
    sources = attach_morsel_sources(plans)
    source = sources[0] if sources else None
    context = plans[0].context
    tracer = context.tracer
    attempt = 0

    def run_one(index: int) -> list[VectorBatch]:
        plan = plans[index]
        if not tracer.enabled:
            return list(plan.batches())
        args = {"pipeline": index, "worker": current_worker_name()}
        if attempt:
            args["retry"] = attempt
        with tracer.span(
            "pipeline",
            category="parallel",
            parent_id=context.trace_parent,
            args=args,
        ):
            return list(plan.batches())

    def on_task_error(_outcome: TaskOutcome) -> None:
        # Flag first, sweep second — see ROUND_ABORTED_KEY.
        context.shared_state[ROUND_ABORTED_KEY] = True
        _abort_shared_builders(context.shared_state)

    per_pipeline: list = [None] * len(plans)
    pending = list(range(len(plans)))
    while True:
        outcomes = _run_round(
            pending, run_one, attempt, pool, on_error=on_task_error
        )
        failed: dict[int, TaskOutcome] = {}
        for index, outcome in zip(pending, outcomes):
            if outcome.error is None:
                per_pipeline[index] = outcome.result
                if source is not None:
                    source.settle(index)
            else:
                failed[index] = outcome
        if not failed:
            break
        crashes = sum(
            1
            for outcome in failed.values()
            if not isinstance(outcome.error, QueryTimeoutError)
        )
        if crashes:
            context.counters.increment("worker.crashes", crashes)
        can_retry = (
            plan_builder is not None
            and attempt < retries
            and all(_is_retryable(o.error) for o in failed.values())
        )
        if not can_retry:
            _raise_pipeline_failure(failed, attempt + 1)
        attempt += 1
        context.counters.increment("query.retries", len(failed))
        if tracer.enabled:
            tracer.instant(
                "retry",
                category="retry",
                parent_id=context.trace_parent,
                args={
                    "attempt": attempt,
                    "pipelines": sorted(failed),
                    "errors": sorted(
                        {type(o.error).__name__ for o in failed.values()}
                    ),
                },
            )
        time.sleep(backoff_seconds(attempt))
        context.shared_state.pop(ROUND_ABORTED_KEY, None)
        for index in sorted(failed):
            if source is not None:
                source.requeue(index)
            fresh = plan_builder(index)
            if source is not None:
                _rewire_morsel_source(fresh, source, index)
            plans[index] = fresh
        pending = sorted(failed)
    return plans[0].schema, per_pipeline

