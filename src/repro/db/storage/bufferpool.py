"""LRU buffer pool for decoded column blocks.

Scans of disk-resident tables never hold a whole column in memory: each
(column file, block) pair is decoded on first touch and cached here as
a *frame*.  Frames are evicted least-recently-used once the byte cap is
exceeded; *pinned* frames (in use by an operator assembling a batch)
are never evicted.  Bytes are tracked by the engine's standard
:class:`~repro.db.profiler.MemoryAccountant` under the
``buffer-pool`` category, so the pool's resident footprint shows up in
memory snapshots exactly like the model cache's.

The pool is thread-safe.  Loads run outside the lock — two pipelines
missing the same frame may both decode it; the second result is
discarded, which wastes a decode but never blocks one worker's I/O on
another's.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.db.profiler import MemoryAccountant

#: default byte cap — small enough that the bench's 500k-row table
#: does not fit, so eviction is exercised by default on big scans
DEFAULT_CAPACITY_BYTES = 64 * 1024 * 1024

MEMORY_CATEGORY = "buffer-pool"


@dataclass
class _Frame:
    array: np.ndarray
    nbytes: int
    pins: int = 0


@dataclass
class PoolStatistics:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: loads discarded because another thread populated the frame first
    wasted_loads: int = 0

    def snapshot(self) -> dict[str, int]:
        return dict(vars(self))


def _frame_bytes(array: np.ndarray) -> int:
    if array.dtype == object:
        return len(array) * 16
    return array.nbytes


class BufferPool:
    """A byte-capped LRU cache of decoded blocks, with pin/unpin."""

    def __init__(
        self,
        capacity_bytes: int = DEFAULT_CAPACITY_BYTES,
        metrics=None,
    ):
        if capacity_bytes <= 0:
            raise ValueError("buffer pool capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self.memory = MemoryAccountant()
        self.metrics = metrics
        self.statistics = PoolStatistics()
        self._lock = threading.Lock()
        self._frames: OrderedDict[object, _Frame] = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._frames)

    @property
    def resident_bytes(self) -> int:
        return self.memory.current_bytes

    def get(self, key, loader, pin: bool = False) -> np.ndarray:
        """The frame for *key*, loading it via ``loader()`` on a miss.

        With ``pin=True`` the returned frame is pinned and the caller
        must :meth:`unpin` it; unpinned frames may be evicted as soon
        as the pool needs the bytes.
        """
        with self._lock:
            frame = self._frames.get(key)
            if frame is not None:
                self._frames.move_to_end(key)
                self.statistics.hits += 1
                if pin:
                    frame.pins += 1
                return frame.array
        array = loader()  # I/O + decode outside the lock
        with self._lock:
            frame = self._frames.get(key)
            if frame is not None:
                # Lost the race; keep the resident frame, drop ours.
                self.statistics.wasted_loads += 1
                self._frames.move_to_end(key)
                if pin:
                    frame.pins += 1
                return frame.array
            self.statistics.misses += 1
            frame = _Frame(array, _frame_bytes(array), pins=1 if pin else 0)
            self._frames[key] = frame
            self.memory.allocate(frame.nbytes, MEMORY_CATEGORY)
            self._evict_over_cap()
            return frame.array

    def pin(self, key) -> None:
        with self._lock:
            self._frames[key].pins += 1

    def unpin(self, key) -> None:
        with self._lock:
            frame = self._frames.get(key)
            if frame is not None and frame.pins > 0:
                frame.pins -= 1

    def _evict_over_cap(self) -> None:
        """Evict LRU unpinned frames until the cap holds (lock held).

        Walks from the LRU end and stops at the first frame that brings
        the pool under the cap.  If everything resident is pinned the
        pool overshoots rather than deadlocking — pins are short-lived
        (one batch assembly).
        """
        excess = self.memory.current_bytes - self.capacity_bytes
        if excess <= 0:
            return
        victims = []
        for key, frame in self._frames.items():
            if frame.pins == 0:
                victims.append(key)
                excess -= frame.nbytes
                if excess <= 0:
                    break
        for key in victims:
            frame = self._frames.pop(key)
            self.memory.release(frame.nbytes, MEMORY_CATEGORY)
            self.statistics.evictions += 1
            if self.metrics is not None:
                self.metrics.counter("bufferpool.evictions").increment()

    def invalidate_prefix(self, prefix: str) -> int:
        """Drop every frame whose key starts with *prefix*.

        Frame keys are ``(file path, block index)`` tuples; a table
        rewrite invalidates its old generation directory wholesale.
        Returns the number of frames dropped.
        """
        with self._lock:
            stale = [
                key
                for key in self._frames
                if isinstance(key, tuple) and str(key[0]).startswith(prefix)
            ]
            for key in stale:
                frame = self._frames.pop(key)
                self.memory.release(frame.nbytes, MEMORY_CATEGORY)
            return len(stale)

    def clear(self) -> None:
        with self._lock:
            self._frames.clear()
            self.memory.reset()
