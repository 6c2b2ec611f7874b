"""Wiring: attach the paper's operators to a database instance."""

from __future__ import annotations

from repro.db.engine import Database
from repro.db.vector import VECTOR_SIZE


def attach(database: Database) -> Database:
    """Install the native ModelJoin operator factory on *database*.

    After attaching, ``SELECT * FROM t MODEL JOIN m`` works against
    models registered in the catalog (paper Sections 1 and 5.5).

    Also installs the engine-lifetime :class:`ModelCache`: finalized
    model builds are reused across queries, and the catalog's
    invalidation listeners keep the cache correct under DROP TABLE and
    model re-registration (INSERTs are handled by version-aware cache
    keys).  Returns the database for chaining.
    """
    from repro.core.cost.selector import CostBasedVariantSelector
    from repro.core.modeljoin.cache import ModelCache
    from repro.core.modeljoin.operator import ModelJoinOperator

    if database.variant_selector is None:
        # Cost-based ModelJoin variant selection: the planner ranks all
        # execution variants per query (EXPLAIN shows the ranking; the
        # resilience layer uses it as the fallback chain).
        database.set_variant_selector(CostBasedVariantSelector())
    if database.model_cache is None:
        cache = ModelCache()
        database.model_cache = cache
        database.catalog.add_invalidation_listener(cache.invalidate_table)
    if getattr(database.model_cache, "metrics", None) is None:
        # Integrity quarantines report through the engine's registry.
        database.model_cache.metrics = database.metrics
    if (
        database.storage is not None
        and database.model_cache_persistence is None
    ):
        # Persistent database: restore the warm model cache saved by
        # the last checkpoint (restored table uids/versions make the
        # persisted keys match), and register the save hook that
        # Database.checkpoint() calls after the catalog manifest.
        from repro.core.modeljoin.persistence import ModelCachePersistence

        persistence = ModelCachePersistence(
            database.model_cache, database.storage.models_dir
        )
        persistence.load()
        database.model_cache_persistence = persistence

    def factory(**kwargs):
        kwargs.setdefault("model_cache", database.model_cache)
        return ModelJoinOperator(**kwargs)

    database.set_modeljoin_factory(factory)
    return database


def connect(
    parallelism: int = 1,
    vector_size: int = VECTOR_SIZE,
    planner_options=None,
    tracer=None,
    metrics=None,
    task_retries: int = 2,
    path: str | None = None,
    buffer_pool_bytes: int | None = None,
    slow_query_seconds: float | None = None,
    query_log_capacity: int = 256,
    collect_query_log: bool = True,
    shards: int = 0,
    shard_workers: int = 1,
) -> Database:
    """Create a new database with the full repro feature set attached.

    *tracer* / *metrics* (see :mod:`repro.db.tracing`) let several
    engines share one span timeline and one metrics registry — the
    bench sweeps pass a shared tracer so every swept configuration
    lands in a single exported trace.  *task_retries* bounds how often
    a crashed partition pipeline is retried before the query fails
    (see :doc:`docs/ROBUSTNESS`).

    *path* opens a persistent database (see docs/STORAGE.md): tables,
    registered models and the warm model cache restore from the
    directory, and ``close()`` checkpoints back to it atomically.
    *buffer_pool_bytes* caps the disk scans' decoded-block cache.
    *planner_options* (a :class:`~repro.db.planner.PlannerOptions`)
    tunes planning — e.g. ``use_compiled_kernels=False`` for the
    interpreted baseline (docs/COMPILE.md).

    *slow_query_seconds* marks queries at or above that latency as
    slow in ``system.queries``; *query_log_capacity* sizes the
    in-memory query-log ring buffer; *collect_query_log=False*
    logs no statement and registers none as active (see
    docs/OBSERVABILITY.md).

    *shards* > 0 switches on multiprocess sharded execution: every
    partitioned table is hash-sharded across that many worker
    processes and queries over it are dispatched, gathered and merged
    by the coordinator; *shard_workers* sets each shard's thread
    parallelism.  ``shards=0`` (the default) is single-process mode,
    bit-identical to earlier releases.  See docs/SHARDING.md.
    """
    return attach(
        Database(
            parallelism=parallelism,
            vector_size=vector_size,
            planner_options=planner_options,
            tracer=tracer,
            metrics=metrics,
            task_retries=task_retries,
            path=path,
            buffer_pool_bytes=buffer_pool_bytes,
            slow_query_seconds=slow_query_seconds,
            query_log_capacity=query_log_capacity,
            collect_query_log=collect_query_log,
            shards=shards,
            shard_workers=shard_workers,
        )
    )
