"""The serving front-end: slots, dispatchers, snapshots, shutdown.

A :class:`Server` wraps one shared :class:`~repro.db.engine.Database`.
At most ``dispatchers`` statements execute at once, each holding one of
the admission queue's slots.  A blocking ``Session.execute`` that finds
a slot free and nothing queued runs its statement on the calling thread
(a wire connection's own thread); everything else queues, and a pool of
``dispatchers`` threads drains the queue as slots free:

* **Reads** (SELECT / EXPLAIN) execute against a pinned
  :class:`~repro.db.snapshot.DatabaseSnapshot`, released when the query
  finishes — concurrent writers and checkpoints cannot perturb an
  admitted reader, and there is zero cross-session result bleed.
* **Writes** (DDL/DML) execute under the engine's ``catalog_lock``
  (taken inside ``execute_statement``), so a write is atomic with
  respect to snapshot capture.  With ``checkpoint_on_write=True`` each
  write also publishes a fresh storage generation, the way a durable
  deployment would run.

Every admitted query carries its session's deadline on a PR3
:class:`~repro.db.resilience.CancellationToken`; queries that die
before reaching the engine — shed at admission, expired in the queue,
cancelled by a disconnecting client — still land a ``system.queries``
row with the matching status (``rejected`` / ``timeout`` /
``cancelled``), so the persistent query log tells shed load apart from
failures.

``Server.close`` is what ``Database.close`` calls first: it stops
admissions, sheds the queue, cancels in-flight queries cooperatively
and joins the dispatchers within a bounded drain timeout — closing a
database under load strands no client.
"""

from __future__ import annotations

import threading
import time

from repro.db.plan.cache import SelectText
from repro.db.serve.admission import AdmissionQueue, AdmittedQuery
from repro.db.serve.session import Session
from repro.db.sql.ast import Explain
from repro.errors import QueryCancelledError, QueryRejectedError


class Server:
    """A concurrent serving layer over one shared database."""

    def __init__(
        self,
        database,
        queue_capacity: int = 32,
        dispatchers: int = 4,
        default_timeout_seconds: float | None = None,
        checkpoint_on_write: bool = False,
    ):
        if dispatchers < 1:
            raise ValueError("dispatchers must be >= 1")
        self.database = database
        self.metrics = database.metrics
        self.default_timeout_seconds = default_timeout_seconds
        self.checkpoint_on_write = checkpoint_on_write
        self.queue = AdmissionQueue(queue_capacity, metrics=self.metrics)
        self.queue.slots = dispatchers
        self._lock = threading.Lock()
        self._sessions: dict[str, Session] = {}
        self._session_seq = 0
        self._closed = False
        database.attach_server(self)
        self._dispatchers = [
            threading.Thread(
                target=self._dispatch_loop,
                name=f"repro-serve-{index}",
                daemon=True,
            )
            for index in range(dispatchers)
        ]
        for thread in self._dispatchers:
            thread.start()

    # ------------------------------------------------------------------
    # sessions
    # ------------------------------------------------------------------
    def open_session(
        self,
        tenant: str = "default",
        priority: int = 0,
        timeout_seconds: float | None = None,
    ) -> Session:
        """Open a client session (raises once the server is closed)."""
        with self._lock:
            if self._closed:
                raise QueryRejectedError("server is closed")
            self._session_seq += 1
            session_id = f"s{self._session_seq:04d}"
            session = Session(
                self,
                session_id,
                tenant=tenant,
                priority=priority,
                default_timeout_seconds=(
                    timeout_seconds
                    if timeout_seconds is not None
                    else self.default_timeout_seconds
                ),
            )
            self._sessions[session_id] = session
        if self.metrics is not None:
            self.metrics.counter("server.sessions_opened").increment()
        return session

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def _submit(self, entry: AdmittedQuery, inline: bool = False) -> bool:
        """Admit *entry*; true when it holds a slot to run on the
        calling thread (only when *inline*), false when it queued."""
        granted = False
        try:
            if self._closed:
                raise QueryRejectedError("server is closed")
            if inline:
                granted, shed = self.queue.enter(entry)
            else:
                shed = self.queue.admit(entry)
        except QueryRejectedError as error:
            self._fail_unexecuted(entry, error)
            raise
        for victim in shed:
            self._fail_unexecuted(
                victim,
                QueryRejectedError(
                    "shed at admission to make room "
                    f"(priority {victim.priority}, queue capacity "
                    f"{self.queue.capacity})"
                ),
            )
        return granted

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while True:
            entry = self.queue.take()
            if entry is None:
                return
            self._run(entry)

    def _run(self, entry: AdmittedQuery) -> None:
        """Run *entry*, which holds a slot, and give the slot back."""
        try:
            self._run_admitted(entry)
        finally:
            self.queue.release(entry)

    def _run_admitted(self, entry: AdmittedQuery) -> None:
        session = entry.session
        # Pre-engine guards: a query whose session closed or whose
        # deadline passed while it waited in the queue must fail here,
        # explicitly, with a log row — never reach a worker, never
        # leave the client hanging.
        try:
            if session.closed:
                raise QueryCancelledError(
                    f"session {session.session_id!r} closed while "
                    "the query was queued"
                )
            entry.token.check()
            statement = self.database.parse(entry.sql)
        except Exception as error:
            self._fail_unexecuted(entry, error)
            return
        database = self.database
        try:
            if isinstance(statement, (SelectText, Explain)):
                with database.snapshot() as snapshot:
                    result = database.execute_statement(
                        statement, entry.query_context(snapshot.catalog)
                    )
            else:
                result = database.execute_statement(
                    statement, entry.query_context(database.catalog)
                )
                if (
                    self.checkpoint_on_write
                    and database.storage is not None
                ):
                    database.checkpoint()
        except Exception as error:
            entry.fail(error)
            return
        entry.finish(result)

    def _fail_unexecuted(
        self, entry: AdmittedQuery, error: BaseException
    ) -> None:
        """Fail a query that never reached the engine, with a log row.

        The engine logs every statement it executes; rejected, expired
        and cancelled-in-queue entries bypass it, so their
        ``system.queries`` rows (status ``rejected`` / ``timeout`` /
        ``cancelled``) are written here, through the same lifecycle.
        """
        entry.fail(error)  # first: a logging failure must not strand it
        self.database.log_unexecuted(entry.query_context(), error)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def sessions_snapshot(self) -> list[dict]:
        """``system.sessions`` rows, in session-open order."""
        with self._lock:
            sessions = list(self._sessions.values())
        return [session.stats() for session in sessions]

    def queue_snapshot(self) -> list[dict]:
        """``system.admission_queue`` rows, safest-from-shedding first."""
        return self.queue.snapshot()

    def stats(self) -> dict:
        with self._lock:
            sessions = len(self._sessions)
        return {
            "sessions": sessions,
            "queue_depth": len(self.queue),
            "queries_active": self.queue.running,
            "closed": self._closed,
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self, drain_seconds: float = 5.0) -> None:
        """Graceful shutdown: shed the queue, cancel, drain (bounded).

        New admissions are rejected immediately; queued entries fail
        with :class:`QueryRejectedError`; queries already executing —
        on dispatchers or on their callers' threads — are cancelled
        cooperatively, and up to *drain_seconds* is spent waiting for
        them to give their slots back and for the dispatchers to exit.
        Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            sessions = list(self._sessions.values())
        for entry in self.queue.close():
            self._fail_unexecuted(
                entry, QueryRejectedError("server closing")
            )
        for session in sessions:
            session.close(reason="server closing")
        deadline = time.perf_counter() + max(drain_seconds, 0.0)
        self.queue.drain(deadline - time.perf_counter())
        for thread in self._dispatchers:
            thread.join(max(deadline - time.perf_counter(), 0.0))

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
