"""The live active-query registry behind ``system.active_queries``.

The engine's query lifecycle registers a statement's
:class:`~repro.db.profiler.QueryProfile` before planning begins and
deregisters it after its ``system.queries`` row is recorded.  Because
the profile's counters are thread-safe, ``system.active_queries`` can
snapshot live progress (morsels completed/total, elapsed time) from any
other thread, and ``Database.close()`` reaches each in-flight query's
cancellation token through it.
"""

from __future__ import annotations

import threading

from repro.db.profiler import QueryProfile


class ActiveQueryRegistry:
    """Thread-safe registry of in-flight queries.

    A scan of ``system.active_queries`` — including the observing
    query itself, which registers before it binds — sees every query
    currently holding the engine.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._queries: dict[int, QueryProfile] = {}

    def register(self, profile: QueryProfile) -> None:
        with self._lock:
            self._queries[profile.query_id] = profile

    def deregister(self, query_id: int) -> None:
        with self._lock:
            self._queries.pop(query_id, None)

    def snapshot(self) -> list[QueryProfile]:
        """The in-flight profiles, oldest first."""
        with self._lock:
            return sorted(
                self._queries.values(), key=lambda p: p.query_id
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._queries)
