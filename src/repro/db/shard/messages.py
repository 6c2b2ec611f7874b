"""Picklable wire messages between the coordinator and shard workers.

Every request travels as ``(request_id, message)`` over a duplex
:class:`multiprocessing.connection.Connection`; the worker echoes the
id back as ``(request_id, response)``.  Ids let the coordinator discard
stale responses after an abandoned gather (cancellation mid-query) so
the pipe re-synchronizes without restarting the process.

All payloads are plain dataclasses over picklable engine types:
schemas, AST statements, :class:`~repro.db.catalog.ModelMetadata` and
NumPy arrays all pickle natively (see ``tests/db/test_pickle_fragments``
for the property tests backing this).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.db.catalog import ModelMetadata
from repro.db.schema import Schema
from repro.db.sql.ast import SelectStatement
from repro.db.vector import VECTOR_SIZE


@dataclass(frozen=True)
class WorkerConfig:
    """Spawn-time configuration for one shard worker process."""

    shard_id: int
    shard_count: int
    #: worker-local thread parallelism (``shard_workers`` knob)
    parallelism: int = 1
    vector_size: int = VECTOR_SIZE
    task_retries: int = 2
    #: storage directory for this shard, None for in-memory shards
    path: str | None = None
    #: picklable planner knobs forwarded verbatim (PlannerOptions is a
    #: plain dataclass of bools)
    planner_options: object | None = None


@dataclass(frozen=True)
class CreateTableRequest:
    """Create the shard-local slice of a sharded table."""

    name: str
    #: (column name, SQL type name) pairs — Schema re-built worker-side
    columns: tuple[tuple[str, str], ...]
    partition_key: str | None = None
    #: worker-local partition count (enables intra-shard parallelism)
    num_partitions: int = 1
    sort_key: tuple[str, ...] = ()
    replace: bool = False


@dataclass(frozen=True)
class DropTableRequest:
    name: str
    if_exists: bool = False


@dataclass(frozen=True)
class AppendRequest:
    """Bulk-append routed rows to a shard-local table."""

    name: str
    column_names: tuple[str, ...]
    arrays: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class ReplicaLoadRequest:
    """Broadcast (or refresh) a full copy of a replicated table.

    The coordinator ships small unpartitioned tables — model tables,
    dimension tables — on demand before the first sharded query that
    reads them, keyed by the coordinator table's ``(uid, version)`` so
    an unchanged replica is never re-sent.
    """

    name: str
    columns: tuple[tuple[str, str], ...]
    column_names: tuple[str, ...]
    arrays: tuple[np.ndarray, ...]
    sort_key: tuple[str, ...] = ()


@dataclass(frozen=True)
class RegisterModelRequest:
    metadata: ModelMetadata
    replace: bool = True


@dataclass(frozen=True)
class ExecuteRequest:
    """Run one plan fragment on the shard's local data.

    The fragment is its plan-cache *key* and its literal *values* by
    slot (:class:`~repro.db.plan.cache.FragmentText`); the AST
    *statement* comes along the first time the coordinator sends the key
    to this shard (and always with a None key: a plan nothing caches).
    A shard that cannot serve a key without it answers
    :class:`UnknownFragmentResponse`.
    """

    key: str | None
    values: tuple
    statement: SelectStatement | None = None
    #: run partition-parallel inside the worker (the coordinator only
    #: sets this when the fragment is partition-compatible)
    parallel: bool = False
    #: remaining query deadline, forwarded from the coordinator token
    timeout_seconds: float | None = None


@dataclass(frozen=True)
class StatsRequest:
    """Snapshot worker-side catalog sizes and scan metrics."""


@dataclass(frozen=True)
class CheckpointRequest:
    """Persist the shard-local storage (no-op for in-memory shards)."""


@dataclass(frozen=True)
class ShutdownRequest:
    """Close the worker database (checkpointing) and exit the process."""


@dataclass(frozen=True)
class OkResponse:
    payload: object = None


@dataclass(frozen=True)
class ResultResponse:
    """A fragment's materialized result plus its profile counters."""

    schema: Schema
    #: one consolidated column array per schema column
    arrays: tuple[np.ndarray, ...]
    row_count: int
    #: the fragment's profile counters (scan.rows_read, morsels, ...)
    counters: dict = field(default_factory=dict)
    wall_seconds: float = 0.0


@dataclass(frozen=True)
class UnknownFragmentResponse:
    """An :class:`ExecuteRequest` without a statement whose key the
    shard's plan cache cannot serve (evicted, or its tables changed):
    the coordinator resends it with the AST."""

    key: str


@dataclass(frozen=True)
class ErrorResponse:
    """A worker-side failure, re-raised by type at the coordinator.

    ``error_class`` names a type in :mod:`repro.errors`; unknown names
    degrade to :class:`~repro.errors.ShardError` (same convention as the
    serving wire protocol).
    """

    error_class: str
    message: str


def raise_error(response: ErrorResponse) -> None:
    """Re-raise a worker error with its original taxonomy type."""
    import repro.errors as _errors

    error_type = getattr(_errors, response.error_class, _errors.ShardError)
    if not (
        isinstance(error_type, type)
        and issubclass(error_type, BaseException)
    ):
        error_type = _errors.ShardError
    raise error_type(response.message)
