"""One statement's record: its resources, its counters, its log row.

The paper's Table 3 reports the *peak memory of the database engine*
during model inference.  A C++ engine measures RSS; in Python, process
RSS is dominated by the interpreter, so the engine instead accounts its
own logical allocations: hash-table builds, buffered aggregation state,
materialized intermediates, model weight matrices.  Operators register
allocations/releases with the :class:`MemoryAccountant` attached to the
execution context; the peak over a query is the reported number.

Each statement has one :class:`QueryProfile`: the engine's query
lifecycle stamps its identity when the statement starts, each execution
attempt gives it the attempt's memory accountant, :class:`Stopwatch`
and :class:`ProfileCounters`, and the finished record is the
``system.queries`` row (:meth:`QueryProfile.to_entry`).  The counters
are the only place an in-query event is counted: the lifecycle adds a
finished statement's totals to the engine's metrics registry once.
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

#: log-row columns read from the statement's counters
COUNTER_COLUMNS = {
    "rows_read": "scan.rows_read",
    "bytes_read": "scan.bytes_read",
    "blocks_scanned": "scan.blocks_scanned",
    "blocks_skipped": "scan.blocks_skipped",
    "morsels": "morsels",
    "cache_hits": "model-cache-hits",
    "cache_misses": "model-cache-misses",
    "retries": "query.retries",
    # a bool in the row: at least one generated kernel executed
    "compiled": "compile.fused_pipelines",
}


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


class MemoryAccountant:
    """Tracks logically allocated bytes and the high-water mark.

    Releasing more than was allocated (a double release, or a release
    against the wrong category) clamps the balance at zero instead of
    letting it go negative: a negative balance would silently deflate
    every later peak — the Table-3-style numbers — for the rest of the
    query.  Each clamp increments :attr:`underflows`, which the engine
    surfaces as the ``memory.release_underflow`` counter so accounting
    bugs are visible instead of corrupting the measurements.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.current_bytes = 0
        self.peak_bytes = 0
        self.by_category: dict[str, int] = {}
        #: releases that exceeded the tracked balance (clamped at zero)
        self.underflows = 0

    def allocate(self, nbytes: int, category: str = "other") -> None:
        if nbytes < 0:
            raise ValueError("cannot allocate a negative number of bytes")
        with self._lock:
            self.current_bytes += nbytes
            self.by_category[category] = (
                self.by_category.get(category, 0) + nbytes
            )
            if self.current_bytes > self.peak_bytes:
                self.peak_bytes = self.current_bytes

    def release(self, nbytes: int, category: str = "other") -> None:
        if nbytes < 0:
            raise ValueError("cannot release a negative number of bytes")
        with self._lock:
            underflow = False
            balance = self.by_category.get(category, 0) - nbytes
            if balance < 0:
                underflow = True
                balance = 0
            self.by_category[category] = balance
            total = self.current_bytes - nbytes
            if total < 0:
                underflow = True
                total = 0
            self.current_bytes = total
            if underflow:
                self.underflows += 1

    def reset(self) -> None:
        with self._lock:
            self.current_bytes = 0
            self.peak_bytes = 0
            self.by_category.clear()
            self.underflows = 0


@dataclass
class Stopwatch:
    """Accumulates named wall-clock phase timings.

    Partition pipelines share one stopwatch through the execution
    context, so the read-modify-write in :meth:`add` must be locked —
    unsynchronized pipelines would lose each other's time.
    """

    phases: dict[str, float] = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def measure(self, name: str):
        """Context manager adding the elapsed time to phase *name*."""
        return _Measurement(self, name)

    def add(self, name: str, seconds: float) -> None:
        with self._lock:
            self.phases[name] = self.phases.get(name, 0.0) + seconds


class ProfileCounters:
    """Thread-safe named event counters (cache hits, morsels, ...).

    Operators increment counters through the execution context; the
    query profile exposes the final values.  Counter names are free-form
    dotted strings — per-worker and per-shard breakdowns use
    ``name.worker-i`` / ``name.shard-i`` keys next to the aggregate
    ``name`` key.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: dict[str, int] = {}

    def increment(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + amount

    def get(self, name: str) -> int:
        with self._lock:
            return self._counts.get(name, 0)

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counts)

    def totals(self) -> dict[str, int]:
        """The aggregate counters, without their breakdown keys."""
        return {
            name: value
            for name, value in self.snapshot().items()
            if ".worker-" not in name and ".shard-" not in name
        }


class _Measurement:
    def __init__(self, stopwatch: Stopwatch, name: str):
        self._stopwatch = stopwatch
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_Measurement":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *_exc) -> None:
        self._stopwatch.add(self._name, time.perf_counter() - self._start)


@dataclass
class QueryProfile:
    """One statement: who ran it, what it used and how it ended.

    The lifecycle stamps the identity in ``Database._begin``; with
    query-log collection on, the record is also registered in
    ``system.active_queries`` while it runs and becomes a
    ``system.queries`` row when it finishes.  *memory*, *stopwatch* and
    *counters* are the latest execution attempt's: a compile-fallback
    retry starts them afresh (:meth:`discard_attempt`).
    """

    sql: str = ""
    #: ``system.queries`` id (-1: not registered, no row)
    query_id: int = -1
    #: serving-session identity ("" = direct single-caller use)
    session_id: str = ""
    tenant: str = ""
    #: the query's cooperative cancellation token (if any); lets
    #: ``Database.close()`` and session teardown cancel in-flight
    #: queries found through the active-query registry
    cancellation: object | None = field(default=None, repr=False)
    #: wall-clock start (unix seconds; latency uses perf_counter)
    started_at: float = 0.0
    memory: MemoryAccountant = field(default_factory=MemoryAccountant)
    stopwatch: Stopwatch = field(default_factory=Stopwatch)
    counters: ProfileCounters = field(default_factory=ProfileCounters)
    #: wall time of the latest attempt
    wall_seconds: float = 0.0
    rows_returned: int = 0
    parallel: bool = False
    #: a generated kernel failed and the query re-ran interpreted
    fallback: bool = False
    #: the optimizer's chosen ModelJoin execution variant ("" = none)
    modeljoin_variant: str = ""
    #: the plan came from a cached template (no parse, bind or codegen)
    plan_cached: bool = False
    #: total morsels of the shared queue (0 = not morsel-driven)
    morsels_total: int = 0
    slow: bool = False
    status: str = "running"
    error_class: str = ""
    #: start to finish, every attempt included
    latency_seconds: float = 0.0
    _started_perf: float = field(default=0.0, repr=False)

    @property
    def peak_memory_bytes(self) -> int:
        return self.memory.peak_bytes

    def start(self) -> None:
        self.started_at = time.time()
        self._started_perf = time.perf_counter()

    def discard_attempt(self) -> None:
        """Drop a failed attempt's resources before the next one."""
        self.memory = MemoryAccountant()
        self.stopwatch = Stopwatch()
        self.counters = ProfileCounters()

    @property
    def elapsed_seconds(self) -> float:
        """Wall time since the query started (live reads while running,
        frozen to the final latency once finished)."""
        if self.status != "running":
            return self.latency_seconds
        return time.perf_counter() - self._started_perf

    def morsels_completed(self) -> int:
        """Live morsel progress (0 until the scan loop starts)."""
        return self.counters.get("morsels")

    def finish(self, error: BaseException | None = None) -> None:
        """Freeze the outcome: status, error class and latency."""
        self.latency_seconds = time.perf_counter() - self._started_perf
        self.status = status_of(error)
        if error is not None:
            self.error_class = type(error).__name__

    def to_entry(self) -> dict:
        """The finished record as a plain JSON-serializable row."""
        counts = self.counters.snapshot()
        entry = {
            name: (
                int(counts.get(COUNTER_COLUMNS[name], 0))
                if name in COUNTER_COLUMNS
                else getattr(self, name)
            )
            for name in ENTRY_FIELDS
        }
        entry["compiled"] = entry["compiled"] > 0
        return entry
