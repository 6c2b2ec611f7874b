"""Engine-side resource accounting.

The paper's Table 3 reports the *peak memory of the database engine*
during model inference.  A C++ engine measures RSS; in Python, process
RSS is dominated by the interpreter, so the engine instead accounts its
own logical allocations: hash-table builds, buffered aggregation state,
materialized intermediates, model weight matrices.  Operators register
allocations/releases with the :class:`MemoryAccountant` attached to the
execution context; the peak over a query is the reported number.

A lightweight :class:`Stopwatch` is also provided for phase timing.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field


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

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self.by_category)


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

    def total(self) -> float:
        with self._lock:
            return sum(self.phases.values())


class ProfileCounters:
    """Thread-safe named event counters (cache hits, morsels, ...).

    Operators increment counters through the execution context; the
    query profile exposes the final values.  Counter names are free-form
    dotted strings — per-worker breakdowns use ``name.worker-i`` keys
    next to the aggregate ``name`` key.
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
    """Resource usage of one executed query."""

    wall_seconds: float = 0.0
    memory: MemoryAccountant = field(default_factory=MemoryAccountant)
    stopwatch: Stopwatch = field(default_factory=Stopwatch)
    counters: ProfileCounters = field(default_factory=ProfileCounters)
    rows_returned: int = 0

    @property
    def peak_memory_bytes(self) -> int:
        return self.memory.peak_bytes
