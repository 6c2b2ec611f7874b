"""Serving sessions: one client's handle on the shared database.

A :class:`Session` carries a client's identity (tenant, priority,
default deadline) and bookkeeping.  It never touches the engine
directly — every query goes through the server's admission step — and
closing it cancels the session's in-flight queries cooperatively, which
is exactly what happens when a wire client disconnects mid-query.

:meth:`Session.execute` blocks, so when admission grants it a free slot
(nothing queued) it runs the statement on the calling thread, with no
hand-off to a dispatcher.  :meth:`Session.submit` returns a future its
caller may never wait on, so it always queues for a dispatcher.
"""

from __future__ import annotations

import threading
import time

from repro.db.resilience import CancellationToken
from repro.db.serve.admission import AdmittedQuery
from repro.errors import SessionClosedError


class Session:
    """One client's session against a serving :class:`~.server.Server`."""

    def __init__(
        self,
        server,
        session_id: str,
        tenant: str = "default",
        priority: int = 0,
        default_timeout_seconds: float | None = None,
    ):
        self._server = server
        self.session_id = session_id
        self.tenant = tenant
        self.priority = priority
        self.default_timeout_seconds = default_timeout_seconds
        self.opened_at = time.time()
        self._lock = threading.Lock()
        self._closed = False
        self._inflight: set[AdmittedQuery] = set()
        self.submitted = 0
        self.rejected = 0
        self.completed = 0

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def active(self) -> int:
        """Queries currently queued or executing for this session."""
        with self._lock:
            return len(self._inflight)

    # ------------------------------------------------------------------
    # query submission
    # ------------------------------------------------------------------
    def submit(
        self,
        sql: str,
        timeout_seconds: float | None = None,
        parallel: bool = False,
    ) -> AdmittedQuery:
        """Queue *sql* for a dispatcher and return its future
        (non-blocking).

        Raises :class:`SessionClosedError` on a closed session and
        :class:`~repro.errors.QueryRejectedError` when this query is
        the shedding victim at admission.
        """
        entry = self._entry(sql, timeout_seconds, parallel)
        self._server._submit(entry)
        return entry

    def execute(
        self,
        sql: str,
        timeout_seconds: float | None = None,
        parallel: bool = False,
    ):
        """Admit *sql* and block for its result (or raise).

        With a slot free and nothing queued the statement runs on this
        thread; otherwise it queues as :meth:`submit` does and waits.
        """
        entry = self._entry(sql, timeout_seconds, parallel)
        server = self._server
        if server._submit(entry, inline=True):
            server._run(entry)
        return entry.wait()

    def _entry(
        self, sql: str, timeout_seconds: float | None, parallel: bool
    ) -> AdmittedQuery:
        seconds = (
            timeout_seconds
            if timeout_seconds is not None
            else self.default_timeout_seconds
        )
        token = (
            CancellationToken.with_timeout(seconds)
            if seconds is not None
            else CancellationToken()
        )
        entry = AdmittedQuery(
            sql=sql, session=self, token=token, parallel=parallel
        )
        with self._lock:
            if self._closed:
                raise SessionClosedError(
                    f"session {self.session_id!r} is closed"
                )
            self.submitted += 1
            self._inflight.add(entry)
        return entry

    def _query_done(self, entry: AdmittedQuery) -> None:
        """Terminal-state hook called from :class:`AdmittedQuery`."""
        with self._lock:
            self._inflight.discard(entry)
            if entry.status == "rejected":
                self.rejected += 1
            elif entry.status == "ok":
                self.completed += 1

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self, reason: str = "session closed") -> None:
        """Close the session, cancelling its in-flight queries.

        Cancellation is cooperative: a query currently executing stops
        at its next morsel/operator checkpoint with
        :class:`~repro.errors.QueryCancelledError`; a query still
        queued is failed by the dispatcher the moment it is taken.
        Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            inflight = list(self._inflight)
        for entry in inflight:
            entry.token.cancel(reason)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def stats(self) -> dict:
        """One ``system.sessions`` row."""
        return {
            "session_id": self.session_id,
            "tenant": self.tenant,
            "priority": self.priority,
            "state": "closed" if self._closed else "open",
            "submitted": self.submitted,
            "rejected": self.rejected,
            "completed": self.completed,
            "active": self.active,
            "opened_seconds": time.time() - self.opened_at,
        }
