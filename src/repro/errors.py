"""Exception hierarchy shared across the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class DatabaseError(ReproError):
    """Base class for errors raised by the database engine substrate."""


class CatalogError(DatabaseError):
    """A catalog object (table, model, function) is missing or duplicated."""


class SqlSyntaxError(DatabaseError):
    """The SQL text could not be tokenized or parsed."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class BindError(DatabaseError):
    """A name in the query could not be resolved against the catalog."""


class PlanError(DatabaseError):
    """The planner could not produce a physical plan for the query."""


class ExecutionError(DatabaseError):
    """A runtime failure while executing a physical plan."""


class IntegerOverflowError(ExecutionError):
    """An INTEGER result left the int64 range (a group's ``SUM``)."""


class TypeMismatchError(DatabaseError):
    """An expression or insert used a value of an incompatible type."""


class QueryTimeoutError(ExecutionError):
    """A query exceeded its deadline (or was cancelled cooperatively).

    Raised from :meth:`repro.db.resilience.CancellationToken.check` at
    the cooperative checkpoints (morsel loop, operator ``next()`` loops,
    device kernels).  Deliberately *not* retried by the worker-pool
    retry layer: re-running a timed-out pipeline can only time out
    again, later.
    """


class QueryCancelledError(QueryTimeoutError):
    """A query was cancelled explicitly rather than by its deadline.

    Raised from :meth:`repro.db.resilience.CancellationToken.check`
    when the token was cancelled by a caller — a session closing, a
    disconnecting wire client, or the engine draining on ``close()``.
    Subclasses :class:`QueryTimeoutError` so every cooperative
    checkpoint, retry-exclusion rule and fallback guard treats
    cancellation exactly like a deadline miss; the query log still
    distinguishes the two (status ``cancelled`` vs ``timeout``).
    """


class QueryRejectedError(DatabaseError):
    """The serving layer shed this query at admission.

    Raised when the bounded admission queue is saturated and this query
    lost the shedding decision (lowest priority first, then closest to
    its deadline), when the server is closing, or when the
    ``serve.admit`` fault site fires under chaos testing.  Deliberately
    deterministic and *immediate*: a shed query never occupies a worker
    and never hangs its client.  Logged to ``system.queries`` with
    status ``rejected`` so shed load is distinguishable from failures.
    """


class SessionClosedError(DatabaseError):
    """An operation used a serving session that is already closed."""


class CompiledKernelError(ExecutionError):
    """A failure in the compiled-kernel execution path.

    The engine's one-shot fallback catches this type: the query is
    re-executed on the interpreted path (``use_compiled_kernels=False``)
    and the compile circuit breaker records the failure, so repeated
    compiler trouble disables compilation engine-wide for a cool-down.
    """


class KernelCompileError(CompiledKernelError):
    """Generating or ``exec``-ing a kernel's Python source failed."""


class KernelExecutionError(CompiledKernelError):
    """A compiled kernel raised while processing a batch.

    Chains the original error as ``__cause__``.  Cooperative
    cancellation (:class:`QueryTimeoutError`) is deliberately *not*
    wrapped — a timeout must abort the query, not demote it to the
    interpreted path.
    """


class WorkerCrashError(ExecutionError):
    """A pool worker's task crashed.

    Used in two roles: as the ``__cause__`` chained onto a propagated
    task error (so the raised exception keeps its original type and
    worker traceback while recording *which* task on *which* worker
    failed), and as the error pipelines blocked on a shared build
    barrier observe when a cooperating pipeline crashed and aborted
    the barrier.
    """


class ShardError(ExecutionError):
    """A sharded-execution failure at the coordinator.

    Raised when a statement cannot be distributed (two sharded tables
    without a repartition exchange, ``system.*`` scans mixed with
    sharded scans, aggregating subqueries) or when the shard layer is
    misconfigured.  Distinguished from :class:`ShardCrashError` so
    callers can tell "this query shape is unsupported" from "a shard
    process died".
    """


class ShardCrashError(ShardError):
    """A shard worker process died or became unreachable.

    Raised when a pipe to a shard hits EOF mid-request or the process
    sentinel fires while responses are outstanding.  The coordinator
    marks the shard dead; subsequent sharded queries fail fast with the
    same type instead of hanging on a closed pipe.
    """


class FallbackExhaustedError(ReproError):
    """Every approach in a resilient fallback chain failed."""


class CacheCorruptionError(ReproError):
    """A cached artifact failed its integrity (checksum) verification.

    The model cache quarantines corrupt entries transparently instead of
    raising, so this type surfaces only from callers that ask for strict
    verification.
    """


class InjectedFaultError(ReproError):
    """A fault deliberately raised by :mod:`repro.db.faults`.

    Carries the fault site so tests and retry layers can distinguish
    injected failures from organic ones.
    """

    def __init__(self, site: str, message: str | None = None):
        super().__init__(
            message or f"injected fault at site {site!r}"
        )
        self.site = site


class ModelError(ReproError):
    """Base class for errors raised by the neural-network substrate."""


class TrainingError(DatabaseError):
    """``CREATE MODEL`` / ``ALTER MODEL`` failed (bad hyperparameters,
    unusable training data, or an exhausted mid-epoch retry budget).

    A failed training run is atomic: no model table is left behind and
    no catalog entry is registered."""


class ModelGraphError(ModelError):
    """The model architecture is invalid or unsupported."""


class DeviceError(ReproError):
    """A device (host or simulated GPU) operation failed."""


class ModelJoinError(ReproError):
    """An error in one of the ModelJoin integration approaches."""


class UnsupportedModelError(ModelJoinError):
    """The given model uses features the chosen approach cannot handle."""
