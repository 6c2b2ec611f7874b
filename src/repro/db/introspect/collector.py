"""Per-query resource collection and the live active-query registry.

A :class:`ResourceProfile` is created by the engine's query lifecycle
when a statement starts and travels on the execution context
(``context.query.collector``) through the operators, the parallel
executor, the storage scans and the compiled-kernel path.  Each layer annotates it directly (the chosen
ModelJoin variant, the morsel total) or indirectly through the query's
thread-safe :class:`~repro.db.profiler.ProfileCounters`, which
:meth:`ResourceProfile.finish` folds into one complete row for
``system.queries``.

While the query runs its profile is registered in the
:class:`ActiveQueryRegistry`; because the underlying counters are
thread-safe, ``system.active_queries`` can snapshot live progress
(morsels completed/total, elapsed time) from any other thread.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.errors import (
    QueryCancelledError,
    QueryRejectedError,
    QueryTimeoutError,
)

#: profile-counter names folded into the finished row, as
#: ``(attribute, counter_name)`` pairs
_COUNTER_FIELDS = (
    ("rows_read", "scan.rows_read"),
    ("bytes_read", "scan.bytes_read"),
    ("blocks_scanned", "scan.blocks_scanned"),
    ("blocks_skipped", "scan.blocks_skipped"),
    ("morsels", "morsels"),
    ("cache_hits", "model-cache-hits"),
    ("cache_misses", "model-cache-misses"),
    ("retries", "query.retries"),
)

#: the attributes that make up a ``system.queries`` log row, in column
#: order (shared with the virtual-table provider and the JSONL format)
ENTRY_FIELDS = (
    "query_id",
    "sql",
    "status",
    "error_class",
    "started_at",
    "latency_seconds",
    "slow",
    "rows_returned",
    "rows_read",
    "bytes_read",
    "blocks_scanned",
    "blocks_skipped",
    "morsels",
    "cache_hits",
    "cache_misses",
    "retries",
    "parallel",
    "compiled",
    "fallback",
    "modeljoin_variant",
    # appended later so older JSONL rows (without them) still load:
    # the restore path reads entries with .get(name, default)
    "session_id",
    "tenant",
    "plan_cached",
)


def status_of(error: BaseException | None) -> str:
    """The ``system.queries`` status a statement outcome maps to."""
    if error is None:
        return "ok"
    if isinstance(error, QueryRejectedError):
        return "rejected"
    if isinstance(error, QueryCancelledError):
        # before QueryTimeoutError: cancelled is its subclass
        return "cancelled"
    if isinstance(error, QueryTimeoutError):
        return "timeout"
    return "error"


@dataclass
class ResourceProfile:
    """One query's resource usage, accumulated while it runs."""

    query_id: int
    sql: str
    #: wall-clock start (unix seconds; latency uses perf_counter)
    started_at: float = field(default_factory=time.time)
    parallel: bool = False
    status: str = "running"
    error_class: str = ""
    latency_seconds: float = 0.0
    slow: bool = False
    rows_returned: int = 0
    #: rows materialized out of surviving storage blocks (pre-filter)
    rows_read: int = 0
    #: nominal (decoded) bytes of the blocks those rows came from
    bytes_read: int = 0
    blocks_scanned: int = 0
    blocks_skipped: int = 0
    morsels: int = 0
    #: total morsels of the shared queue (0 = not morsel-driven); set
    #: by the parallel executor when it attaches the morsel source
    morsels_total: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    retries: int = 0
    #: at least one generated kernel executed for this query
    compiled: bool = False
    #: a generated kernel failed and the query re-ran interpreted
    fallback: bool = False
    #: the optimizer's chosen ModelJoin execution variant ("" = none)
    modeljoin_variant: str = ""
    #: the plan came from a cached template (no parse, bind or codegen)
    plan_cached: bool = False
    #: serving-session identity ("" = direct single-caller use); set by
    #: the engine from the serve layer's admission record
    session_id: str = ""
    tenant: str = ""
    #: the query's cooperative cancellation token (if any); lets
    #: ``Database.close()`` and session teardown cancel in-flight
    #: queries found through the active-query registry
    cancellation: object | None = field(
        default=None, repr=False, compare=False
    )
    #: live handle to the running query's thread-safe counters; bound
    #: by the engine once the execution context exists and read
    #: concurrently by ``system.active_queries`` (never serialized)
    counters: object | None = field(default=None, repr=False, compare=False)
    _started_perf: float = field(
        default_factory=time.perf_counter, repr=False, compare=False
    )

    @property
    def elapsed_seconds(self) -> float:
        """Wall time since the query started (live reads while running,
        frozen to the final latency once finished)."""
        if self.status != "running":
            return self.latency_seconds
        return time.perf_counter() - self._started_perf

    def morsels_completed(self) -> int:
        """Live morsel progress (0 until the scan loop starts)."""
        counters = self.counters
        if counters is None:
            return self.morsels
        return counters.get("morsels")

    def finish(
        self,
        error: BaseException | None = None,
        rows_returned: int = 0,
    ) -> None:
        """Freeze the profile into its final log-row state."""
        self.latency_seconds = time.perf_counter() - self._started_perf
        self.status = status_of(error)
        self.rows_returned = rows_returned
        if error is not None:
            self.error_class = type(error).__name__
        counters = self.counters
        if counters is not None:
            snapshot = counters.snapshot()
            for attribute, name in _COUNTER_FIELDS:
                value = snapshot.get(name, 0)
                if value:
                    setattr(self, attribute, int(value))
            if snapshot.get("compile.fused_pipelines", 0):
                self.compiled = True

    def to_entry(self) -> dict:
        """The finished profile as a plain JSON-serializable row."""
        return {name: getattr(self, name) for name in ENTRY_FIELDS}


class ActiveQueryRegistry:
    """Thread-safe registry of in-flight queries.

    The engine registers a query's :class:`ResourceProfile` before
    planning begins and deregisters it after the log row is recorded,
    so a scan of ``system.active_queries`` — including the observing
    query itself, which registers before it binds — sees every query
    currently holding the engine.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._queries: dict[int, ResourceProfile] = {}

    def register(self, profile: ResourceProfile) -> None:
        with self._lock:
            self._queries[profile.query_id] = profile

    def deregister(self, query_id: int) -> None:
        with self._lock:
            self._queries.pop(query_id, None)

    def snapshot(self) -> list[ResourceProfile]:
        """The in-flight profiles, oldest first."""
        with self._lock:
            return sorted(
                self._queries.values(), key=lambda p: p.query_id
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._queries)
