"""The shard coordinator: spawn, route, gather, merge, drain.

Owned by a :class:`~repro.db.engine.Database` opened with ``shards=N``.
The coordinator spawns N worker *processes* (start method ``spawn`` —
safe next to the engine's threads), each running its own attached
engine over a private slice of every sharded table.  The coordinating
engine keeps acting as planner and merger:

- DDL/DML broadcast: CREATE/DROP mirror to every shard; appends to a
  sharded table hash-route per row (see
  :class:`~repro.db.shard.tables.ShardedTable`).
- Replicated tables (no partition key) stay coordinator-local and sync
  to shards lazily before the first fragment that reads them, keyed by
  ``(uid, version)`` — the ModelJoin's model-table broadcast, so every
  shard builds the model from its local copy and infers locally.
- SELECTs over sharded tables are fragment-planned
  (:mod:`repro.db.plan.fragments`, the decomposition thread-parallel
  queries use too), dispatched as a plan-cache key plus literal values
  — the fragment's AST goes to a shard once per key, and again when the
  shard answers that it cannot serve the key — gathered and merged by
  the coordinating engine (:meth:`repro.db.planner.Planner.merge`).

Failure semantics: a dead shard process surfaces as
:class:`~repro.errors.ShardCrashError` at the next pipe interaction
(``Connection`` EOF or the process sentinel firing mid-gather) — never
a hang.  The coordinator then stays up but degraded: later sharded
queries fail fast with the same type, and ``close(drain_seconds=)``
still drains, shuts down the survivors and reaps the corpse.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import signal
import threading
import time
from collections import OrderedDict
from multiprocessing import connection as mp_connection
from pathlib import Path

from repro.db.plan.cache import CAPACITY
from repro.db.plan.fragments import FragmentPlan
from repro.db.plan.physical import (
    choose_worker_parallelism,
    render_fragment_tree,
)
from repro.db.shard.messages import (
    AppendRequest,
    CheckpointRequest,
    CreateTableRequest,
    DropTableRequest,
    ErrorResponse,
    ExecuteRequest,
    RegisterModelRequest,
    ReplicaLoadRequest,
    ResultResponse,
    ShutdownRequest,
    StatsRequest,
    UnknownFragmentResponse,
    WorkerConfig,
    raise_error,
)
from repro.db.shard.tables import ShardedTable
from repro.db.vector import VectorBatch, concat_batches
from repro.errors import CatalogError, ShardCrashError, ShardError

MANIFEST_NAME = "shards.json"


class ShardHandle:
    """One worker process and its request pipe."""

    def __init__(self, shard_id: int, process, conn):
        self.shard_id = shard_id
        self.process = process
        self.conn = conn
        self.alive = True
        #: last stats payload, kept so system.shards can render a dead
        #: shard's final numbers
        self.last_stats: dict = {}

    def mark_dead(self) -> None:
        self.alive = False


class ShardCoordinator:
    """Shared-nothing shard fleet behind one coordinating engine."""

    def __init__(
        self,
        database,
        shard_count: int,
        shard_workers: int = 1,
        path: str | None = None,
    ):
        if shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        if shard_workers < 1:
            raise ValueError("shard_workers must be >= 1")
        self._database = database
        self.shard_count = shard_count
        self.shard_workers = shard_workers
        self.root = Path(path) / "shards" if path is not None else None
        self.handles: list[ShardHandle] = []
        #: serializes pipe traffic: one sharded statement (or broadcast)
        #: in flight at a time; intra-query parallelism comes from the
        #: shard processes themselves
        self._lock = threading.Lock()
        self._next_request_id = 0
        #: request ids abandoned mid-gather (cancellation/crash); their
        #: late responses are drained and discarded before the next send
        self._stale_ids: set[int] = set()
        #: per shard: replica/model versions already shipped
        self._replica_versions: list[dict] = [
            {} for _ in range(shard_count)
        ]
        self._model_versions: list[dict] = [{} for _ in range(shard_count)]
        #: per shard: fragment keys sent with their AST, least recent
        #: first (as many as a shard's plan cache keeps templates)
        self._fragment_keys: list[OrderedDict] = [
            OrderedDict() for _ in range(shard_count)
        ]
        self._closed = False
        self.queries_dispatched = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        manifest = self._load_manifest()
        context = multiprocessing.get_context("spawn")
        options = self._database.planner_options
        for shard_id in range(self.shard_count):
            shard_path = None
            if self.root is not None:
                shard_path = str(self.root / f"shard-{shard_id}")
            config = WorkerConfig(
                shard_id=shard_id,
                shard_count=self.shard_count,
                parallelism=self.shard_workers,
                vector_size=self._database.vector_size,
                task_retries=self._database.task_retries,
                path=shard_path,
                planner_options=options,
            )
            parent_conn, child_conn = context.Pipe(duplex=True)
            process = context.Process(
                target=_worker_entry,
                args=(child_conn, config),
                name=f"repro-shard-{shard_id}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            self.handles.append(
                ShardHandle(shard_id, process, parent_conn)
            )
        if manifest is not None:
            self._restore_from_manifest(manifest)

    def _load_manifest(self) -> dict | None:
        if self.root is None:
            return None
        path = self.root / MANIFEST_NAME
        if not path.exists():
            self.root.mkdir(parents=True, exist_ok=True)
            return None
        manifest = json.loads(path.read_text())
        if manifest.get("shard_count") != self.shard_count:
            raise CatalogError(
                f"database was sharded {manifest.get('shard_count')} "
                f"ways but was reopened with shards={self.shard_count}; "
                "shard counts must match (resharding is not supported)"
            )
        return manifest

    def _restore_from_manifest(self, manifest: dict) -> None:
        from repro.db.schema import Column, Schema
        from repro.db.table import ensure_uid_floor
        from repro.db.types import parse_type_name

        for entry in manifest.get("tables", []):
            schema = Schema(
                tuple(
                    Column(name, parse_type_name(type_name))
                    for name, type_name in entry["columns"]
                )
            )
            table = ShardedTable(
                entry["name"],
                schema,
                partition_key=entry["partition_key"],
                coordinator=self,
                sort_key=tuple(entry.get("sort_key", ())),
            )
            table.rows_per_shard = list(entry["rows_per_shard"])
            table.uid = entry["uid"]
            table.version = entry["version"]
            ensure_uid_floor(entry["uid"] + 1)
            # Replace the empty stub the coordinator's own storage
            # restored for this name (sharded rows live on the shards).
            self._database.catalog.create_table(table, replace=True)

    def save_manifest(self) -> None:
        if self.root is None:
            return
        tables = []
        for table in self._database.catalog.tables.values():
            if not isinstance(table, ShardedTable):
                continue
            tables.append(
                {
                    "name": table.name,
                    "columns": [
                        [column.name, column.sql_type.value]
                        for column in table.schema
                    ],
                    "partition_key": table.partition_key,
                    "sort_key": list(table.sort_key),
                    "rows_per_shard": list(table.rows_per_shard),
                    "uid": table.uid,
                    "version": table.version,
                }
            )
        manifest = {
            "shard_count": self.shard_count,
            "shard_workers": self.shard_workers,
            "tables": tables,
        }
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.root / MANIFEST_NAME
        temporary = path.with_suffix(".tmp")
        temporary.write_text(json.dumps(manifest, indent=2))
        os.replace(temporary, path)

    def checkpoint(self) -> None:
        """Checkpoint every *surviving* shard and save the manifest.

        Best-effort by design: a dead shard cannot be checkpointed (its
        own storage is still consistent as of its last checkpoint), and
        durability of the survivors must not hinge on it — so crashes
        are recorded, not raised, and the manifest is always saved.
        """
        with self._lock:
            self._drain_stale_locked()
            pending = {}
            for handle in self.handles:
                if not handle.alive:
                    continue
                try:
                    pending[handle.shard_id] = self._send_locked(
                        handle, CheckpointRequest()
                    )
                except ShardCrashError:
                    continue
            try:
                self._gather_locked(pending)
            except ShardCrashError:
                pass
        self.save_manifest()

    def close(self, drain_seconds: float = 5.0) -> None:
        """Shut the fleet down within (roughly) *drain_seconds*.

        Acquires the dispatch lock with a bounded wait (in-flight
        queries were already cancelled by the engine's drain), sends
        every live shard a shutdown — workers checkpoint and exit —
        then escalates terminate()/kill() on stragglers so close never
        hangs on a wedged shard.
        """
        if self._closed:
            return
        self._closed = True
        deadline = time.perf_counter() + max(drain_seconds, 0.1)
        locked = self._lock.acquire(timeout=max(drain_seconds, 0.1))
        try:
            for handle in self.handles:
                if not handle.alive or not handle.process.is_alive():
                    continue
                try:
                    handle.conn.send(
                        (self._allocate_id(), ShutdownRequest())
                    )
                except (BrokenPipeError, OSError):
                    handle.mark_dead()
            for handle in self.handles:
                # Keep draining the pipe while waiting: a worker can be
                # blocked mid-send on a large abandoned response (pipe
                # buffer full) and will only reach the shutdown request
                # once its response is consumed.
                while (
                    handle.process.is_alive()
                    and time.perf_counter() < deadline
                ):
                    try:
                        if handle.conn.poll(0.02):
                            handle.conn.recv()
                            continue
                    except (EOFError, OSError):
                        break
                    handle.process.join(timeout=0.02)
                handle.process.join(
                    timeout=max(deadline - time.perf_counter(), 0.05)
                )
                if handle.process.is_alive():
                    handle.process.terminate()
                    handle.process.join(timeout=1.0)
                if handle.process.is_alive():  # pragma: no cover
                    handle.process.kill()
                    handle.process.join(timeout=1.0)
                handle.mark_dead()
                try:
                    handle.conn.close()
                except OSError:  # pragma: no cover
                    pass
        finally:
            if locked:
                self._lock.release()

    def kill_shard(self, shard_id: int) -> None:
        """Chaos hook: SIGKILL one shard process (no cleanup)."""
        handle = self.handles[shard_id]
        if handle.process.pid is not None and handle.process.is_alive():
            os.kill(handle.process.pid, signal.SIGKILL)
            handle.process.join(timeout=5.0)

    # ------------------------------------------------------------------
    # request plumbing
    # ------------------------------------------------------------------
    def _allocate_id(self) -> int:
        self._next_request_id += 1
        return self._next_request_id

    def _live_handles(self) -> list[ShardHandle]:
        if self._closed:
            raise ShardError("the shard coordinator is closed")
        dead = [h.shard_id for h in self.handles if not h.alive]
        if dead:
            raise ShardCrashError(
                f"shard(s) {dead} are down; the coordinator is degraded "
                "(restart the database to recover)"
            )
        return self.handles

    def _drain_stale_locked(self) -> None:
        if not self._stale_ids:
            return
        for handle in self.handles:
            if not handle.alive:
                continue
            try:
                while handle.conn.poll(0):
                    request_id, _payload = handle.conn.recv()
                    self._stale_ids.discard(request_id)
            except (EOFError, OSError):
                handle.mark_dead()

    def _send_locked(self, handle: ShardHandle, message) -> int:
        request_id = self._allocate_id()
        try:
            handle.conn.send((request_id, message))
        except (BrokenPipeError, OSError) as error:
            handle.mark_dead()
            raise ShardCrashError(
                f"shard {handle.shard_id} is unreachable "
                f"({type(error).__name__}); its process likely died"
            ) from error
        return request_id

    def _gather_locked(
        self, pending: dict[int, int], cancellation=None
    ) -> dict[int, object]:
        """Collect one response per pending shard (id -> request id).

        Polls pipes *and* process sentinels so a SIGKILLed shard is
        detected even when it never wrote a byte; checks the
        cancellation token between polls so a cancelled coordinator
        abandons the gather (responses become stale) instead of
        blocking on slow shards.
        """
        results: dict[int, object] = {}
        errors: list[ErrorResponse] = []
        try:
            while pending:
                if cancellation is not None:
                    cancellation.check()
                watch = {}
                for shard_id in pending:
                    handle = self.handles[shard_id]
                    watch[handle.conn] = handle
                    watch[handle.process.sentinel] = handle
                ready = mp_connection.wait(list(watch), timeout=0.05)
                for waitable in ready:
                    handle = watch[waitable]
                    if handle.shard_id not in pending:
                        continue
                    if not handle.conn.poll(0):
                        if not handle.process.is_alive():
                            handle.mark_dead()
                            raise ShardCrashError(
                                f"shard {handle.shard_id} process died "
                                "mid-query (pid "
                                f"{handle.process.pid}, exit code "
                                f"{handle.process.exitcode})"
                            )
                        continue
                    try:
                        request_id, payload = handle.conn.recv()
                    except (EOFError, OSError) as error:
                        handle.mark_dead()
                        raise ShardCrashError(
                            f"shard {handle.shard_id} closed its pipe "
                            "mid-query; its process died"
                        ) from error
                    if request_id in self._stale_ids:
                        self._stale_ids.discard(request_id)
                        continue
                    if request_id != pending[handle.shard_id]:
                        raise ShardError(
                            f"shard {handle.shard_id} answered request "
                            f"{request_id}, expected "
                            f"{pending[handle.shard_id]} "
                            "(protocol desynchronized)"
                        )
                    del pending[handle.shard_id]
                    if isinstance(payload, ErrorResponse):
                        errors.append(payload)
                    else:
                        results[handle.shard_id] = payload
        except BaseException:
            # Cancellation, crash or protocol error: whatever is still
            # outstanding will arrive later — mark stale for the next
            # dispatch to drain.
            self._stale_ids.update(pending.values())
            raise
        if errors:
            raise_error(errors[0])
        return results

    def _broadcast_locked(self, message, cancellation=None) -> dict:
        pending = {
            handle.shard_id: self._send_locked(handle, message)
            for handle in self._live_handles()
        }
        return self._gather_locked(pending, cancellation)

    def broadcast(self, message) -> dict:
        with self._lock:
            self._drain_stale_locked()
            return self._broadcast_locked(message)

    # ------------------------------------------------------------------
    # DDL / DML mirroring
    # ------------------------------------------------------------------
    def create_sharded_table(
        self,
        name: str,
        schema,
        partition_key: str,
        sort_key: tuple[str, ...] = (),
        replace: bool = False,
    ) -> ShardedTable:
        """Create the coordinator stub and the shard-local slices."""
        columns = tuple(
            (column.name, column.sql_type.value) for column in schema
        )
        self.broadcast(
            CreateTableRequest(
                name=name,
                columns=columns,
                partition_key=partition_key,
                num_partitions=self.shard_workers,
                sort_key=sort_key,
                replace=replace,
            )
        )
        table = ShardedTable(
            name,
            schema,
            partition_key=partition_key,
            coordinator=self,
            sort_key=sort_key,
        )
        self._database.catalog.create_table(table, replace=replace)
        return table

    def drop_table(self, name: str, if_exists: bool = False) -> None:
        self.broadcast(DropTableRequest(name=name, if_exists=True))
        for versions in self._replica_versions:
            versions.pop(name.lower(), None)

    def append_to_shard(
        self, shard_id: int, name: str, batch: VectorBatch
    ) -> None:
        message = AppendRequest(
            name=name,
            column_names=tuple(batch.schema.names),
            arrays=tuple(batch.arrays),
        )
        with self._lock:
            self._drain_stale_locked()
            handle = self._live_handles()[shard_id]
            request_id = self._send_locked(handle, message)
            self._gather_locked({shard_id: request_id})

    # ------------------------------------------------------------------
    # replica / model sync (the ModelJoin broadcast)
    # ------------------------------------------------------------------
    def _sync_fragment_inputs_locked(
        self, fragment: FragmentPlan, catalog
    ) -> None:
        table_names = list(fragment.replicated_tables)
        model_requests: dict[str, object] = {}
        for model_name in fragment.model_names:
            metadata = catalog.models.get(model_name.lower())
            if metadata is None:
                continue  # binder will raise the canonical error
            table_names.append(metadata.table_name)
            for shard_id in range(self.shard_count):
                if (
                    self._model_versions[shard_id].get(model_name.lower())
                    != metadata
                ):
                    model_requests[model_name.lower()] = metadata
                    break
        for name in dict.fromkeys(table_names):
            key = name.lower()
            if key not in catalog.tables:
                continue
            table = catalog.tables[key]
            if isinstance(table, ShardedTable):
                continue
            stamp = (table.uid, table.version)
            stale = [
                shard_id
                for shard_id in range(self.shard_count)
                if self._replica_versions[shard_id].get(key) != stamp
            ]
            if not stale:
                continue
            batches = list(table.scan())
            if batches:
                merged = concat_batches(table.schema, batches)
                arrays = tuple(merged.arrays)
            else:
                arrays = ()
            message = ReplicaLoadRequest(
                name=table.name,
                columns=tuple(
                    (column.name, column.sql_type.value)
                    for column in table.schema
                ),
                column_names=tuple(table.schema.names),
                arrays=arrays,
                sort_key=table.sort_key,
            )
            pending = {}
            for shard_id in stale:
                handle = self.handles[shard_id]
                pending[shard_id] = self._send_locked(handle, message)
            self._gather_locked(pending)
            for shard_id in stale:
                self._replica_versions[shard_id][key] = stamp
            self._database.metrics.counter(
                "shard.replica_broadcasts"
            ).increment(len(stale))
        for key, metadata in model_requests.items():
            self._broadcast_locked(
                RegisterModelRequest(metadata=metadata, replace=True)
            )
            for shard_id in range(self.shard_count):
                self._model_versions[shard_id][key] = metadata

    # ------------------------------------------------------------------
    # query execution
    # ------------------------------------------------------------------
    def execute_fragments(self, fragment: FragmentPlan, context, catalog):
        """Dispatch the fragment and gather it; returns ``(schema,
        per-shard batch lists)`` for the merge."""
        _require_distributable(fragment)
        if catalog is not self._database.catalog:
            # a served read runs on a snapshot, which cannot pin the
            # shards' rows: refused until snapshots reach the shards
            raise ShardError(
                f"table {fragment.sharded_tables[0]!r} is sharded: a read "
                "on a snapshot (a served read) cannot see its shards"
            )
        cancellation = context.query.cancellation
        per_shard = fragment.estimated_rows // max(self.shard_count, 1)
        parallel = choose_worker_parallelism(per_shard, self.shard_workers) > 1
        timeout = None
        if cancellation is not None:
            timeout = cancellation.remaining_seconds()
        key = fragment.key
        by_key = ExecuteRequest(
            key,
            fragment.statement_values,
            parallel=parallel,
            timeout_seconds=timeout,
        )
        with_ast = dataclasses.replace(by_key, statement=fragment.statement)
        with self._lock:
            self._drain_stale_locked()
            self._sync_fragment_inputs_locked(fragment, catalog)
            pending = {
                handle.shard_id: self._send_locked(
                    handle,
                    by_key
                    if key in self._fragment_keys[handle.shard_id]
                    else with_ast,
                )
                for handle in self._live_handles()
            }
            responses = self._gather_locked(pending, cancellation)
            unknown = {
                shard_id: self._send_locked(self.handles[shard_id], with_ast)
                for shard_id, response in responses.items()
                if isinstance(response, UnknownFragmentResponse)
            }
            if unknown:
                responses.update(self._gather_locked(unknown, cancellation))
            if key is not None:
                for keys in self._fragment_keys:
                    keys[key] = True
                    keys.move_to_end(key)
                    if len(keys) > CAPACITY:
                        keys.popitem(last=False)
        self.queries_dispatched += 1
        self._database.metrics.counter("shard.queries").increment()
        sources: list[list[VectorBatch]] = []
        schema = None
        for shard_id in range(self.shard_count):
            response: ResultResponse = responses[shard_id]
            schema = response.schema
            if response.arrays:
                sources.append(
                    [VectorBatch(response.schema, list(response.arrays))]
                )
            else:
                sources.append([])
            for name, value in response.counters.items():
                context.counters.increment(name, value)
                context.counters.increment(f"{name}.shard-{shard_id}", value)
        return schema, sources

    def explain_fragments(self, fragment: FragmentPlan) -> str:
        _require_distributable(fragment)
        return render_fragment_tree(
            fragment, self.shard_count, self.shard_workers
        )

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def refresh_stats(self) -> None:
        """Pull fresh per-shard stats and mirror them into metrics."""
        live = [h for h in self.handles if h.alive and not self._closed]
        if not live:
            return
        try:
            with self._lock:
                self._drain_stale_locked()
                pending = {
                    handle.shard_id: self._send_locked(
                        handle, StatsRequest()
                    )
                    for handle in live
                    if handle.alive
                }
                responses = self._gather_locked(pending)
        except (ShardError, ShardCrashError):
            return  # dead shards keep their last snapshot
        metrics = self._database.metrics
        for shard_id, response in responses.items():
            payload: dict = response.payload
            self.handles[shard_id].last_stats = payload
            for name in (
                "scan.rows_read",
                "scan.bytes_read",
                "query.count",
            ):
                value = payload["metrics"].get(name)
                if value is not None:
                    metrics.gauge(f"shard.{shard_id}.{name}").set(value)

    def shard_rows(self) -> list[tuple]:
        """Rows for ``system.shards`` (one per shard, dead included)."""
        self.refresh_stats()
        rows = []
        for handle in self.handles:
            stats = handle.last_stats or {"metrics": {}, "rows": 0}
            metrics = stats.get("metrics", {})
            rows.append(
                (
                    handle.shard_id,
                    handle.process.pid or -1,
                    bool(handle.alive and handle.process.is_alive()),
                    int(stats.get("rows", 0)),
                    int(len(stats.get("tables", {}))),
                    int(metrics.get("query.count", 0)),
                    int(metrics.get("scan.rows_read", 0)),
                    int(metrics.get("scan.bytes_read", 0)),
                    int(metrics.get("morsels", 0)),
                )
            )
        return rows


def _require_distributable(fragment: FragmentPlan) -> None:
    """Rows that live on shards cannot run coordinator-local, so a
    declined fragment is an error, not a serial fallback."""
    if fragment.merge == "decline":
        raise ShardError(
            f"cannot distribute this query over shards: {fragment.reason}"
        )


def _worker_entry(connection, config: WorkerConfig) -> None:
    from repro.db.shard.worker import shard_worker_main

    shard_worker_main(connection, config)
