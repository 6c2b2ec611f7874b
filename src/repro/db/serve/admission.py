"""The bounded admission queue: backpressure with deterministic shedding.

Every query a session submits becomes an :class:`AdmittedQuery` and
enters the server's single :class:`AdmissionQueue`.  The queue holds at
most *capacity* entries; pushing one more forces a **shed decision**,
resolved deterministically rather than by arrival luck:

* the victim is the entry with the **lowest priority**;
* among equals, the one **closest to its deadline** (it is the most
  likely to miss it anyway — shedding it wastes the least work);
* among still-equals, the newest (latest sequence number).

The victim — possibly the entry just pushed — fails immediately with
:class:`~repro.errors.QueryRejectedError`; a shed client is never left
hanging.  Dispatchers drain the queue with the mirrored preference
(fewest in-flight queries per tenant first, then highest priority, then
earliest deadline, then FIFO), so one chatty tenant cannot starve the
others even when every entry shares a priority.

The queue also owns the server's execution **slots**: at most
``slots`` statements hold one at a time, and the per-tenant in-flight
counts the take key reads are kept beside them, under the same lock.
:meth:`AdmissionQueue.enter` is the one admission step of a blocking
caller: when a slot is free and nothing is queued it grants the slot
and the caller runs the statement on its own thread; otherwise the
entry queues and a dispatcher takes it once a slot frees.  A queue
whose ``slots`` is ``None`` never makes :meth:`take` wait for one.

The ``serve.admit`` fault site fires on every admission attempt, so
chaos runs (``REPRO_FAULTS=serve.admit=prob:0.1,...``) exercise the
rejection path: an injected fault surfaces as the same immediate
``QueryRejectedError`` a deterministic shed produces.
"""

from __future__ import annotations

import math
import threading
import time

from repro.db import faults
from repro.db.operators import QueryContext
from repro.db.profiler import QueryProfile, status_of
from repro.db.resilience import CancellationToken
from repro.errors import InjectedFaultError, QueryRejectedError


class AdmittedQuery:
    """One query's journey through the serving layer.

    Doubles as the client-visible future: :meth:`wait` blocks until the
    statement finishes, fails, or is shed, then returns the
    :class:`~repro.db.engine.Result` or raises the recorded error.
    """

    def __init__(
        self,
        sql: str,
        session,
        token: CancellationToken,
        parallel: bool = False,
    ):
        self.sql = sql
        self.session = session
        self.tenant = session.tenant
        self.priority = session.priority
        self.token = token
        self.parallel = parallel
        #: assigned by the queue under its lock (admission order)
        self.seq = -1
        self.enqueued_at = time.perf_counter()
        self.status = "queued"
        self.result = None
        self.error: BaseException | None = None
        self._done = threading.Event()

    def query_context(self, catalog=None) -> QueryContext:
        """This query's per-statement record for the engine: the
        session's token and identity, reading *catalog*."""
        return QueryContext(
            sql=self.sql.strip(),
            catalog=catalog,
            cancellation=self.token,
            parallel=self.parallel,
            profile=QueryProfile(
                session_id=self.session.session_id, tenant=self.tenant
            ),
        )

    def remaining_seconds(self) -> float:
        """Seconds to the deadline (``inf`` when there is none)."""
        remaining = self.token.remaining_seconds()
        return math.inf if remaining is None else remaining

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def finish(self, result) -> None:
        self.result = result
        self.status = "ok"
        self.session._query_done(self)
        self._done.set()

    def fail(self, error: BaseException) -> None:
        self.error = error
        self.status = status_of(error)
        self.session._query_done(self)
        self._done.set()

    def wait(self, timeout: float | None = None):
        """Block for the outcome; returns the result or raises."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"query outcome not available within {timeout}s"
            )
        if self.error is not None:
            raise self.error
        return self.result


def _shed_key(entry: AdmittedQuery):
    # Lowest priority sheds first; then closest to deadline; then the
    # newest arrival (largest seq) — all total orders, so the decision
    # is deterministic for a given queue state.
    return (entry.priority, entry.remaining_seconds(), -entry.seq)


def _take_key(inflight: dict, entry: AdmittedQuery):
    # Tenant fairness dominates: a tenant with fewer queries currently
    # executing is served first, so one tenant cannot occupy every
    # dispatcher.  Then priority (higher first), urgency, FIFO.
    return (
        inflight.get(entry.tenant, 0),
        -entry.priority,
        entry.remaining_seconds(),
        entry.seq,
    )


class AdmissionQueue:
    """Bounded, priority- and deadline-aware admission queue."""

    def __init__(self, capacity: int, metrics=None):
        if capacity < 1:
            raise ValueError("admission queue capacity must be >= 1")
        self.capacity = capacity
        self.metrics = metrics
        #: statements that may hold a slot at once; ``None`` never
        #: limits :meth:`take` (the server sets its dispatcher count)
        self.slots: int | None = None
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        self._drained = threading.Condition(self._lock)
        self._entries: list[AdmittedQuery] = []
        self._seq = 0
        self._closed = False
        #: statements holding a slot, in total and per tenant
        self._running = 0
        self._inflight: dict[str, int] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def running(self) -> int:
        """Statements holding a slot (on a dispatcher or a caller)."""
        return self._running

    def _count(self, name: str, value: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).increment(value)

    def _set_depth_locked(self) -> None:
        if self.metrics is not None:
            self.metrics.gauge("server.queue_depth").set(
                len(self._entries)
            )

    def _slot_free_locked(self) -> bool:
        return self.slots is None or self._running < self.slots

    def _grant_locked(self, entry: AdmittedQuery) -> None:
        self._running += 1
        self._inflight[entry.tenant] = (
            self._inflight.get(entry.tenant, 0) + 1
        )
        if self.metrics is not None:
            self.metrics.gauge("server.queries_active").set(self._running)

    def _admitted(self, waited: float) -> None:
        self._count("server.queries_admitted")
        if self.metrics is not None:
            self.metrics.histogram("server.queue_wait").observe(waited)

    def admit(self, entry: AdmittedQuery) -> list[AdmittedQuery]:
        """Enqueue *entry*; returns the entries shed to make room.

        Raises :class:`QueryRejectedError` when *entry* itself is the
        shed victim, the queue is closed, or the ``serve.admit`` fault
        fires.  Shed victims in the returned list have **not** been
        failed yet — the server fails and logs them, so every rejection
        lands a ``system.queries`` row.
        """
        return self._admit(entry, inline=False)[1]

    def enter(
        self, entry: AdmittedQuery
    ) -> tuple[bool, list[AdmittedQuery]]:
        """Admit *entry* for a caller that blocks on its outcome.

        Returns ``(granted, shed)``.  *granted* is true when a slot was
        free and nothing was queued: *entry* now holds the slot, the
        caller runs it on its own thread and then gives the slot back
        with :meth:`release`.  Otherwise *entry* queued exactly as
        :meth:`admit` queues it (same rejections, same *shed*).
        """
        return self._admit(entry, inline=True)

    def _admit(self, entry: AdmittedQuery, inline: bool):
        if faults.ACTIVE is not None:
            try:
                faults.ACTIVE.fire("serve.admit")
            except InjectedFaultError as fault:
                self._count("server.queries_rejected")
                raise QueryRejectedError(
                    "admission rejected by injected fault"
                ) from fault
        shed: list[AdmittedQuery] = []
        with self._ready:
            if self._closed:
                self._count("server.queries_rejected")
                raise QueryRejectedError("server is closed")
            entry.seq = self._seq
            self._seq += 1
            granted = (
                inline and not self._entries and self._slot_free_locked()
            )
            if granted:
                self._grant_locked(entry)
            else:
                entry.enqueued_at = time.perf_counter()
                self._entries.append(entry)
                while len(self._entries) > self.capacity:
                    victim = min(self._entries, key=_shed_key)
                    self._entries.remove(victim)
                    shed.append(victim)
                if self._slot_free_locked():
                    self._ready.notify()
                self._set_depth_locked()
        self._count("server.queries_submitted")
        if self.metrics is not None:
            self.metrics.counter(
                f"server.tenant.{entry.tenant}.submitted"
            ).increment()
        if granted:
            self._admitted(0.0)
            return True, shed
        if shed:
            self._count("server.queries_rejected", len(shed))
        if entry in shed:
            raise QueryRejectedError(
                "admission queue is full "
                f"(capacity {self.capacity}); query shed "
                f"(priority {entry.priority}, "
                f"deadline in {entry.remaining_seconds():.3f}s)"
            )
        return False, shed

    def take(self, inflight: dict | None = None) -> AdmittedQuery | None:
        """Pop the best queued entry once a slot is free (blocking).

        The entry is granted the slot; the dispatcher gives it back with
        :meth:`release` when the statement ends.  The pick minimizes
        the tenant's executing-statement count first (see
        :func:`_take_key`), read from *inflight* when given (tenant →
        count), else from the queue's own slots.  Returns ``None`` once
        the queue is closed and drained.
        """
        with self._ready:
            while True:
                if self._entries and self._slot_free_locked():
                    counts = self._inflight if inflight is None else inflight
                    entry = min(
                        self._entries,
                        key=lambda e: _take_key(counts, e),
                    )
                    self._entries.remove(entry)
                    self._set_depth_locked()
                    self._grant_locked(entry)
                    break
                if self._closed:
                    return None
                self._ready.wait()
        self._admitted(time.perf_counter() - entry.enqueued_at)
        return entry

    def release(self, entry: AdmittedQuery) -> None:
        """Give back *entry*'s slot.

        Wakes one dispatcher only when an entry is queued for the slot,
        and a closing server's :meth:`drain` once no slot is held.
        """
        with self._ready:
            self._running -= 1
            left = self._inflight[entry.tenant] - 1
            if left:
                self._inflight[entry.tenant] = left
            else:
                del self._inflight[entry.tenant]
            if self.metrics is not None:
                self.metrics.gauge("server.queries_active").set(
                    self._running
                )
            if self._entries:
                self._ready.notify()
            elif self._closed and not self._running:
                self._drained.notify_all()

    def drain(self, timeout: float) -> bool:
        """Wait up to *timeout* seconds until no slot is held (on a
        closed queue, whose last :meth:`release` wakes the wait)."""
        deadline = time.perf_counter() + timeout
        with self._lock:
            while self._running:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    return False
                self._drained.wait(remaining)
        return True

    def close(self) -> list[AdmittedQuery]:
        """Stop admissions; returns the still-queued entries.

        The caller (the server) fails each returned entry with
        :class:`QueryRejectedError` and logs it — the queue never
        strands a waiting client.
        """
        with self._ready:
            self._closed = True
            pending = list(self._entries)
            self._entries.clear()
            self._set_depth_locked()
            self._ready.notify_all()
        if pending:
            self._count("server.queries_rejected", len(pending))
        return pending

    def snapshot(self) -> list[dict]:
        """Queued entries as plain rows (``system.admission_queue``)."""
        now = time.perf_counter()
        with self._lock:
            entries = list(self._entries)
        entries.sort(key=_shed_key, reverse=True)  # safest first
        return [
            {
                "session_id": entry.session.session_id,
                "tenant": entry.tenant,
                "priority": entry.priority,
                "sql": entry.sql,
                "queued_seconds": now - entry.enqueued_at,
                "deadline_seconds": entry.token.remaining_seconds(),
            }
            for entry in entries
        ]
