"""The read-only virtual ``system`` schema.

:class:`SystemSchema` is attached to the catalog by the engine; any
``system.*`` table reference — in FROM clauses, joins, EXPLAIN — is
resolved here into a fresh point-in-time snapshot built as a plain
in-memory :class:`~repro.db.table.Table`.  Because the snapshot is an
ordinary table, the standard binder / optimizer / TableScan path
applies unchanged: no special operators, no side channel.

Available tables (see docs/OBSERVABILITY.md for the column reference):
``system.metrics``, ``system.queries``, ``system.active_queries``,
``system.buffer_pool``, ``system.kernel_cache``, ``system.model_cache``,
``system.breakers``, ``system.storage_blocks``, ``system.tables``,
``system.columns``, ``system.models`` (one row per registered model
version — see docs/TRAINING.md), ``system.sessions``,
``system.admission_queue``
(those two render live serving-layer state when a
:class:`repro.db.serve.Server` is attached, and are empty otherwise)
and ``system.shards`` (one row per shard worker process when the
database was opened with ``shards=N``, empty otherwise).
"""

from __future__ import annotations

import math

from repro.db.profiler import ENTRY_FIELDS
from repro.db.schema import Column, Schema
from repro.db.table import Table
from repro.db.types import SqlType
from repro.errors import CatalogError

_QUERY_COLUMN_TYPES = {
    "query_id": SqlType.INTEGER,
    "sql": SqlType.VARCHAR,
    "status": SqlType.VARCHAR,
    "error_class": SqlType.VARCHAR,
    "started_at": SqlType.DOUBLE,
    "latency_seconds": SqlType.DOUBLE,
    "slow": SqlType.BOOLEAN,
    "rows_returned": SqlType.INTEGER,
    "rows_read": SqlType.INTEGER,
    "bytes_read": SqlType.INTEGER,
    "blocks_scanned": SqlType.INTEGER,
    "blocks_skipped": SqlType.INTEGER,
    "morsels": SqlType.INTEGER,
    "cache_hits": SqlType.INTEGER,
    "cache_misses": SqlType.INTEGER,
    "retries": SqlType.INTEGER,
    "parallel": SqlType.BOOLEAN,
    "compiled": SqlType.BOOLEAN,
    "fallback": SqlType.BOOLEAN,
    "modeljoin_variant": SqlType.VARCHAR,
    "session_id": SqlType.VARCHAR,
    "tenant": SqlType.VARCHAR,
    "plan_cached": SqlType.BOOLEAN,
}

_TYPE_DEFAULTS = {
    SqlType.INTEGER: 0,
    SqlType.FLOAT: 0.0,
    SqlType.DOUBLE: 0.0,
    SqlType.VARCHAR: "",
    SqlType.BOOLEAN: False,
}


def _schema(*columns: tuple[str, SqlType]) -> Schema:
    return Schema(tuple(Column(name, kind) for name, kind in columns))


def _ratio(hits: int, misses: int) -> float:
    total = hits + misses
    return hits / total if total else 0.0


def _zone_bound(value) -> float:
    """A footer min/max as DOUBLE; non-numeric columns carry NaN."""
    if value is None:
        return math.nan
    return float(value)


class SystemSchema:
    """Builds snapshot tables for ``system.*`` names."""

    PREFIX = "system."

    def __init__(self, database):
        self._database = database
        self._builders = {
            "metrics": self._metrics,
            "queries": self._queries,
            "active_queries": self._active_queries,
            "buffer_pool": self._buffer_pool,
            "kernel_cache": self._kernel_cache,
            "model_cache": self._model_cache,
            "breakers": self._breakers,
            "storage_blocks": self._storage_blocks,
            "tables": self._tables,
            "columns": self._columns,
            "models": self._models,
            "sessions": self._sessions,
            "admission_queue": self._admission_queue,
            "shards": self._shards,
        }

    # ------------------------------------------------------------------
    # catalog protocol
    # ------------------------------------------------------------------
    def table_names(self) -> tuple[str, ...]:
        return tuple(
            self.PREFIX + name for name in sorted(self._builders)
        )

    def _key(self, name: str) -> str:
        key = name.lower()
        if key.startswith(self.PREFIX):
            key = key[len(self.PREFIX):]
        return key

    def has_table(self, name: str) -> bool:
        return self._key(name) in self._builders

    def table(self, name: str) -> Table:
        builder = self._builders.get(self._key(name))
        if builder is None:
            raise CatalogError(
                f"system table {name!r} does not exist "
                f"(available: {', '.join(self.table_names())})"
            )
        schema, rows = builder()
        snapshot = Table(self.PREFIX + self._key(name), schema)
        if rows:
            snapshot.append_rows(rows)
        return snapshot

    # ------------------------------------------------------------------
    # providers
    # ------------------------------------------------------------------
    def _metrics(self):
        schema = _schema(
            ("name", SqlType.VARCHAR),
            ("kind", SqlType.VARCHAR),
            ("value", SqlType.DOUBLE),
        )
        rows = []
        for name, rendered in self._database.metrics.snapshot().items():
            kind = rendered.get("type", "gauge")
            if kind == "histogram":
                for key in (
                    "count", "mean", "min", "max", "p50", "p95", "p99"
                ):
                    rows.append(
                        (f"{name}.{key}", kind, float(rendered[key]))
                    )
            else:
                rows.append((name, kind, float(rendered["value"])))
        return schema, rows

    def _queries(self):
        schema = _schema(
            *(
                (name, _QUERY_COLUMN_TYPES[name])
                for name in ENTRY_FIELDS
            )
        )
        rows = []
        for entry in self._database.query_log.entries():
            rows.append(
                tuple(
                    entry.get(
                        name, _TYPE_DEFAULTS[_QUERY_COLUMN_TYPES[name]]
                    )
                    for name in ENTRY_FIELDS
                )
            )
        return schema, rows

    def _active_queries(self):
        schema = _schema(
            ("query_id", SqlType.INTEGER),
            ("sql", SqlType.VARCHAR),
            ("elapsed_seconds", SqlType.DOUBLE),
            ("morsels_completed", SqlType.INTEGER),
            ("morsels_total", SqlType.INTEGER),
            ("parallel", SqlType.BOOLEAN),
            ("session_id", SqlType.VARCHAR),
            ("tenant", SqlType.VARCHAR),
        )
        rows = [
            (
                profile.query_id,
                profile.sql,
                profile.elapsed_seconds,
                profile.morsels_completed(),
                profile.morsels_total,
                profile.parallel,
                profile.session_id,
                profile.tenant,
            )
            for profile in self._database.active_queries.snapshot()
        ]
        return schema, rows

    def _sessions(self):
        schema = _schema(
            ("session_id", SqlType.VARCHAR),
            ("tenant", SqlType.VARCHAR),
            ("priority", SqlType.INTEGER),
            ("state", SqlType.VARCHAR),
            ("submitted", SqlType.INTEGER),
            ("rejected", SqlType.INTEGER),
            ("completed", SqlType.INTEGER),
            ("active", SqlType.INTEGER),
            ("opened_seconds", SqlType.DOUBLE),
        )
        server = getattr(self._database, "_server", None)
        if server is None:
            return schema, []
        rows = [
            (
                entry["session_id"],
                entry["tenant"],
                entry["priority"],
                entry["state"],
                entry["submitted"],
                entry["rejected"],
                entry["completed"],
                entry["active"],
                entry["opened_seconds"],
            )
            for entry in server.sessions_snapshot()
        ]
        return schema, rows

    def _admission_queue(self):
        schema = _schema(
            ("position", SqlType.INTEGER),
            ("session_id", SqlType.VARCHAR),
            ("tenant", SqlType.VARCHAR),
            ("priority", SqlType.INTEGER),
            ("sql", SqlType.VARCHAR),
            ("queued_seconds", SqlType.DOUBLE),
            ("deadline_seconds", SqlType.DOUBLE),
        )
        server = getattr(self._database, "_server", None)
        if server is None:
            return schema, []
        rows = [
            (
                position,
                entry["session_id"],
                entry["tenant"],
                entry["priority"],
                entry["sql"],
                entry["queued_seconds"],
                (
                    entry["deadline_seconds"]
                    if entry["deadline_seconds"] is not None
                    else math.nan
                ),
            )
            for position, entry in enumerate(server.queue_snapshot())
        ]
        return schema, rows

    def _shards(self):
        schema = _schema(
            ("shard_id", SqlType.INTEGER),
            ("pid", SqlType.INTEGER),
            ("alive", SqlType.BOOLEAN),
            ("rows", SqlType.INTEGER),
            ("tables", SqlType.INTEGER),
            ("queries", SqlType.INTEGER),
            ("rows_read", SqlType.INTEGER),
            ("bytes_read", SqlType.INTEGER),
            ("morsels", SqlType.INTEGER),
        )
        coordinator = getattr(self._database, "sharding", None)
        if coordinator is None:
            return schema, []
        return schema, coordinator.shard_rows()

    def _buffer_pool(self):
        schema = _schema(
            ("capacity_bytes", SqlType.INTEGER),
            ("resident_bytes", SqlType.INTEGER),
            ("frames", SqlType.INTEGER),
            ("hits", SqlType.INTEGER),
            ("misses", SqlType.INTEGER),
            ("evictions", SqlType.INTEGER),
            ("wasted_loads", SqlType.INTEGER),
            ("hit_ratio", SqlType.DOUBLE),
        )
        storage = self._database.storage
        if storage is None:
            return schema, []
        pool = storage.buffer_pool
        stats = pool.statistics
        rows = [
            (
                pool.capacity_bytes,
                pool.resident_bytes,
                len(pool),
                stats.hits,
                stats.misses,
                stats.evictions,
                stats.wasted_loads,
                _ratio(stats.hits, stats.misses),
            )
        ]
        return schema, rows

    def _kernel_cache(self):
        schema = _schema(
            ("entries", SqlType.INTEGER),
            ("hits", SqlType.INTEGER),
            ("misses", SqlType.INTEGER),
            ("evictions", SqlType.INTEGER),
            ("hit_ratio", SqlType.DOUBLE),
        )
        snapshot = self._database.kernel_cache.snapshot()
        rows = [
            (
                snapshot["entries"],
                snapshot["hits"],
                snapshot["misses"],
                snapshot["evictions"],
                _ratio(snapshot["hits"], snapshot["misses"]),
            )
        ]
        return schema, rows

    def _model_cache(self):
        schema = _schema(
            ("entries", SqlType.INTEGER),
            ("resident_bytes", SqlType.INTEGER),
            ("replica_bytes", SqlType.INTEGER),
            ("hits", SqlType.INTEGER),
            ("misses", SqlType.INTEGER),
            ("evictions", SqlType.INTEGER),
            ("invalidations", SqlType.INTEGER),
            ("corruptions", SqlType.INTEGER),
            ("hit_ratio", SqlType.DOUBLE),
        )
        cache = self._database.model_cache
        if cache is None:
            return schema, []
        stats = cache.statistics()
        rows = [
            (
                stats["entries"],
                stats["resident_bytes"],
                stats["replica_bytes"],
                stats["hits"],
                stats["misses"],
                stats["evictions"],
                stats["invalidations"],
                stats["corruptions"],
                _ratio(stats["hits"], stats["misses"]),
            )
        ]
        return schema, rows

    def _breakers(self):
        schema = _schema(
            ("name", SqlType.VARCHAR),
            ("open", SqlType.BOOLEAN),
            ("consecutive_failures", SqlType.INTEGER),
            ("failure_threshold", SqlType.INTEGER),
            ("reset_seconds", SqlType.DOUBLE),
            ("trips", SqlType.INTEGER),
        )
        rows = [
            (
                name,
                breaker.is_open,
                breaker.consecutive_failures,
                breaker.failure_threshold,
                float(breaker.reset_seconds),
                breaker.trips,
            )
            for name, breaker in sorted(
                self._database.breakers.items()
            )
        ]
        return schema, rows

    def _storage_blocks(self):
        schema = _schema(
            ("table_name", SqlType.VARCHAR),
            ("partition", SqlType.INTEGER),
            ("block", SqlType.INTEGER),
            ("column_name", SqlType.VARCHAR),
            ("codec", SqlType.VARCHAR),
            ("rows", SqlType.INTEGER),
            ("raw_bytes", SqlType.INTEGER),
            ("nulls", SqlType.INTEGER),
            ("min_value", SqlType.DOUBLE),
            ("max_value", SqlType.DOUBLE),
        )
        rows = []
        catalog = self._database.catalog
        for key in sorted(catalog.tables):
            table = catalog.tables[key]
            for index, partition in enumerate(table.partitions):
                disk_meta = getattr(
                    partition, "disk_block_metadata", None
                )
                if disk_meta is not None:
                    offset = 0
                    for entry in disk_meta():
                        offset = max(offset, entry["block"] + 1)
                        rows.append(
                            (
                                table.name,
                                index,
                                entry["block"],
                                entry["column"],
                                entry["codec"],
                                entry["rows"],
                                entry["raw_nbytes"],
                                entry["nulls"],
                                _zone_bound(entry["min"]),
                                _zone_bound(entry["max"]),
                            )
                        )
                    overlay = partition.overlay_blocks()
                else:
                    offset = 0
                    overlay = partition.blocks()
                rows.extend(
                    self._memory_block_rows(
                        table.name, index, table.schema, overlay, offset
                    )
                )
        return schema, rows

    @staticmethod
    def _memory_block_rows(table_name, partition, schema, blocks, offset):
        rows = []
        for index, block in enumerate(blocks, start=offset):
            for position, column in enumerate(schema):
                stats = block.stats[position]
                array = block.arrays[position]
                nbytes = (
                    len(array) * 16
                    if array.dtype == object
                    else array.nbytes
                )
                rows.append(
                    (
                        table_name,
                        partition,
                        index,
                        column.name,
                        "memory",
                        block.length,
                        int(nbytes),
                        0,
                        stats.minimum if stats is not None else math.nan,
                        stats.maximum if stats is not None else math.nan,
                    )
                )
        return rows

    def _tables(self):
        schema = _schema(
            ("name", SqlType.VARCHAR),
            ("disk", SqlType.BOOLEAN),
            ("columns", SqlType.INTEGER),
            ("partitions", SqlType.INTEGER),
            ("rows", SqlType.INTEGER),
            ("nominal_bytes", SqlType.INTEGER),
            ("partition_key", SqlType.VARCHAR),
            ("sort_key", SqlType.VARCHAR),
            ("version", SqlType.INTEGER),
            ("uid", SqlType.INTEGER),
        )
        catalog = self._database.catalog
        rows = [
            (
                table.name,
                table.disk_resident,
                len(table.schema),
                table.num_partitions,
                table.row_count,
                table.nominal_bytes(),
                table.partition_key or "",
                ", ".join(table.sort_key),
                table.version,
                table.uid,
            )
            for key in sorted(catalog.tables)
            for table in (catalog.tables[key],)
        ]
        return schema, rows

    def _models(self):
        schema = _schema(
            ("name", SqlType.VARCHAR),
            ("version", SqlType.INTEGER),
            ("current", SqlType.BOOLEAN),
            ("table_name", SqlType.VARCHAR),
            ("created_at", SqlType.DOUBLE),
            ("epochs", SqlType.INTEGER),
            ("batch_size", SqlType.INTEGER),
            ("learning_rate", SqlType.DOUBLE),
            ("seed", SqlType.INTEGER),
            ("loss", SqlType.VARCHAR),
            ("final_loss", SqlType.DOUBLE),
            ("weight_checksum", SqlType.VARCHAR),
            ("source_fingerprint", SqlType.VARCHAR),
            ("arch", SqlType.VARCHAR),
        )
        catalog = self._database.catalog
        rows = []
        for name in sorted(catalog.model_versions):
            current = catalog.current_versions.get(name)
            for version in sorted(catalog.model_versions[name]):
                record = catalog.model_versions[name][version]
                rows.append(
                    (
                        name,
                        version,
                        version == current,
                        record.metadata.table_name,
                        record.created_at,
                        record.epochs,
                        record.batch_size,
                        record.learning_rate,
                        record.seed,
                        record.loss_name,
                        record.final_loss,
                        f"{record.weight_checksum:08x}",
                        record.source_fingerprint,
                        record.arch,
                    )
                )
        # Models registered directly (publish_model) without a trained
        # version history surface as version 0, always current.
        for name in sorted(catalog.models):
            if name in catalog.model_versions:
                continue
            metadata = catalog.models[name]
            rows.append(
                (
                    name,
                    0,
                    True,
                    metadata.table_name,
                    math.nan,
                    0,
                    0,
                    math.nan,
                    0,
                    "",
                    math.nan,
                    "",
                    "",
                    "",
                )
            )
        return schema, rows

    def _columns(self):
        schema = _schema(
            ("table_name", SqlType.VARCHAR),
            ("column_name", SqlType.VARCHAR),
            ("position", SqlType.INTEGER),
            ("type", SqlType.VARCHAR),
        )
        catalog = self._database.catalog
        rows = [
            (table.name, column.name, position, column.sql_type.value)
            for key in sorted(catalog.tables)
            for table in (catalog.tables[key],)
            for position, column in enumerate(table.schema)
        ]
        return schema, rows
