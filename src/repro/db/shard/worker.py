"""Shard worker process: an attached engine behind a message pipe.

Each shard is a full single-process :class:`~repro.db.engine.Database`
(own catalog, own BufferPool, own worker threads, own storage
directory) created through :func:`repro.core.attach.connect`, so every
engine feature — compiled kernels, the model cache, the planner's
variant selection — works shard-locally without special cases.  The
worker answers requests from :mod:`repro.db.shard.messages` in a
strictly ordered loop; ordering per pipe is the consistency model
(a CREATE always precedes the APPENDs that follow it on the same pipe).
"""

from __future__ import annotations

from repro.db.plan.cache import FragmentText
from repro.db.schema import Column, Schema
from repro.db.shard.messages import (
    AppendRequest,
    CheckpointRequest,
    CreateTableRequest,
    DropTableRequest,
    ErrorResponse,
    ExecuteRequest,
    OkResponse,
    RegisterModelRequest,
    ReplicaLoadRequest,
    ResultResponse,
    ShutdownRequest,
    StatsRequest,
    UnknownFragmentResponse,
    WorkerConfig,
)
from repro.db.types import parse_type_name
from repro.db.vector import VectorBatch, concat_batches
from repro.errors import ReproError


def _schema_from_columns(columns) -> Schema:
    return Schema(
        tuple(
            Column(name, parse_type_name(type_name))
            for name, type_name in columns
        )
    )


class ShardWorker:
    """Request dispatch for one shard process (testable in-process)."""

    def __init__(self, config: WorkerConfig):
        from repro.core.attach import connect

        self.config = config
        self.database = connect(
            parallelism=max(config.parallelism, 1),
            vector_size=config.vector_size,
            planner_options=config.planner_options,
            task_retries=config.task_retries,
            path=config.path,
            query_log_capacity=64,
        )
        self.database.metrics.gauge("shard.id").set(config.shard_id)

    # ------------------------------------------------------------------
    # request handlers
    # ------------------------------------------------------------------
    def handle(self, message):
        handler = self._HANDLERS.get(type(message))
        if handler is None:
            return ErrorResponse(
                "ShardError", f"unknown request {type(message).__name__}"
            )
        try:
            return handler(self, message)
        except ReproError as error:
            return ErrorResponse(type(error).__name__, str(error))
        except Exception as error:  # engine bug — keep the worker alive
            return ErrorResponse(
                "ShardError", f"{type(error).__name__}: {error}"
            )

    def _create_table(self, message: CreateTableRequest):
        self.database.create_table(
            message.name,
            _schema_from_columns(message.columns),
            num_partitions=message.num_partitions,
            partition_key=message.partition_key,
            sort_key=message.sort_key,
            replace=message.replace,
        )
        return OkResponse()

    def _drop_table(self, message: DropTableRequest):
        with self.database.catalog_lock:
            self.database.catalog.drop_table(
                message.name, if_exists=message.if_exists
            )
        return OkResponse()

    def _append(self, message: AppendRequest):
        table = self.database.table(message.name)
        batch = VectorBatch.from_dict(
            table.schema, dict(zip(message.column_names, message.arrays))
        )
        table.append_batch(batch)
        return OkResponse(payload=len(batch))

    def _load_replica(self, message: ReplicaLoadRequest):
        # Full refresh: the replica's contents are authoritative at the
        # coordinator, so a version bump replaces the local copy.
        table = self.database.create_table(
            message.name,
            _schema_from_columns(message.columns),
            sort_key=message.sort_key,
            replace=True,
        )
        if message.arrays:
            table.append_batch(
                VectorBatch.from_dict(
                    table.schema,
                    dict(zip(message.column_names, message.arrays)),
                )
            )
        return OkResponse(payload=table.row_count)

    def _register_model(self, message: RegisterModelRequest):
        self.database.register_model(
            message.metadata, replace=message.replace
        )
        return OkResponse()

    def _execute(self, message: ExecuteRequest):
        """Run a fragment through the engine's plan cache: a key it
        holds a valid template of is served from it (no parse, bind or
        lowering), any other is planned from the AST and recorded.  A
        key without a valid template and without its AST is refused
        before the query lifecycle starts: a refusal is no query."""
        import time

        started = time.perf_counter()
        database = self.database
        text = FragmentText(message.key, message.values, message.statement)
        if message.statement is None and not database.serves(text):
            return UnknownFragmentResponse(message.key)
        result = database.execute_statement(
            text,
            database.query_context(
                "<fragment>",
                parallel=message.parallel,
                timeout_seconds=message.timeout_seconds,
            ),
        )
        if result.batches:
            merged = concat_batches(result.schema, result.batches)
            arrays = tuple(merged.arrays)
        else:
            arrays = ()
        return ResultResponse(
            schema=result.schema,
            arrays=arrays,
            row_count=result.row_count,
            counters=result.profile.counters.totals(),
            wall_seconds=time.perf_counter() - started,
        )

    def _stats(self, _message: StatsRequest):
        database = self.database
        flat: dict[str, float] = {}
        for name, rendered in database.metrics.snapshot().items():
            if rendered.get("type") in ("counter", "gauge"):
                flat[name] = rendered["value"]
        tables = {
            table.name: table.row_count
            for table in database.catalog.tables.values()
        }
        return OkResponse(
            payload={
                "metrics": flat,
                "tables": tables,
                "rows": sum(tables.values()),
            }
        )

    def _checkpoint(self, _message: CheckpointRequest):
        if self.database.storage is not None:
            self.database.checkpoint()
        return OkResponse()

    _HANDLERS = {
        CreateTableRequest: _create_table,
        DropTableRequest: _drop_table,
        AppendRequest: _append,
        ReplicaLoadRequest: _load_replica,
        RegisterModelRequest: _register_model,
        ExecuteRequest: _execute,
        StatsRequest: _stats,
        CheckpointRequest: _checkpoint,
    }


def shard_worker_main(connection, config: WorkerConfig) -> None:
    """Process entry point: serve requests until shutdown or pipe EOF."""
    worker = ShardWorker(config)
    closed = False
    try:
        while True:
            try:
                request_id, message = connection.recv()
            except (EOFError, OSError):
                # Coordinator died or closed the pipe: exit cleanly,
                # checkpointing persistent state.
                break
            if isinstance(message, ShutdownRequest):
                try:
                    worker.database.close(drain_seconds=1.0)
                finally:
                    closed = True
                    try:
                        connection.send((request_id, OkResponse()))
                    except (BrokenPipeError, OSError):
                        pass
                return
            response = worker.handle(message)
            try:
                connection.send((request_id, response))
            except (BrokenPipeError, OSError):
                break
    finally:
        if not closed:
            try:
                worker.database.close(drain_seconds=1.0)
            except Exception:
                pass
