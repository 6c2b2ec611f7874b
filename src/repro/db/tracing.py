"""Query tracing and engine-lifetime metrics.

The paper's evaluation is a *timing breakdown*: Section 6 separates the
model build from the inference phase, Table 3 reports peak engine
memory.  Flat counters and total wall time cannot attribute where time
goes inside a parallel ModelJoin (build vs. BLAS inference vs. rebatch,
per worker, per morsel), so this module gives the engine the
observability layer serving-oriented systems treat as table stakes:

* :class:`Tracer` — a thread-safe producer of *hierarchical spans*
  (query → phase → operator → morsel / device kernel).  Each execution
  thread keeps a private span stack, so parenting is race-free under
  the WorkerPool; cross-thread edges (query → pipeline) are expressed
  through explicit parent ids.  A disabled tracer is a no-op: ``span``
  returns a shared null context manager and the hot paths additionally
  gate on :attr:`Tracer.enabled`, so tracing costs nothing when off
  (the perf ledger's ``trace.overhead_share`` measures it).

* :class:`MetricsRegistry` — engine-lifetime counters, gauges and
  histograms (``query.latency``, ``modeljoin.build_seconds``,
  ``morsel.queue_wait``) aggregating *across* queries.  A statement's
  own events are counted once, on its
  :class:`~repro.db.profiler.QueryProfile`; the query lifecycle adds
  them to the registry when the statement finishes.  Histograms report
  p50/p95/p99 over a bounded, deterministically down-sampled
  reservoir.

* Chrome-trace export — :meth:`Tracer.chrome_trace` renders the spans
  as ``traceEvents`` complete events (``ph``/``ts``/``dur``), loadable
  in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``, so a
  timeline of 12 parallel partition pipelines is actually inspectable.

Metric naming convention: lowercase dotted paths, ``subsystem.measure``
(``query.latency``, ``scan.rows_read``, ``memory.release_underflow``).
"""

from __future__ import annotations

import itertools
import json
import math
import threading
import time


class _NullSpan:
    """Shared, reusable no-op context manager for disabled tracers."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc) -> None:
        return None


#: the singleton handed out by disabled tracers (and device hot paths)
NULL_SPAN = _NullSpan()


class _ThreadLog:
    """Per-thread span storage: an event list plus the open-span stack.

    Owned by exactly one thread, so appends need no lock; the tracer
    only takes its lock to register a new thread's log and to drain.
    """

    __slots__ = ("thread_name", "events", "stack")

    def __init__(self, thread_name: str):
        self.thread_name = thread_name
        #: finished spans as tuples
        #: (span_id, parent_id, name, category, start_us, dur_us, args)
        self.events: list[tuple] = []
        #: ids of the spans currently open on this thread
        self.stack: list[int] = []


class _SpanHandle:
    """Context manager recording one span on enter/exit."""

    __slots__ = ("_tracer", "_log", "_name", "_category", "_args",
                 "span_id", "parent_id", "_start_us")

    def __init__(self, tracer, name, category, parent_id, args):
        self._tracer = tracer
        self._name = name
        self._category = category
        self._args = args
        self.parent_id = parent_id
        self.span_id = 0
        self._log = None
        self._start_us = 0.0

    def __enter__(self) -> "_SpanHandle":
        tracer = self._tracer
        log = tracer._thread_log()
        self._log = log
        self.span_id = next(tracer._ids)
        if self.parent_id is None and log.stack:
            self.parent_id = log.stack[-1]
        log.stack.append(self.span_id)
        self._start_us = tracer.now_us()
        return self

    def __exit__(self, *_exc) -> None:
        tracer = self._tracer
        end_us = tracer.now_us()
        log = self._log
        if log.stack and log.stack[-1] == self.span_id:
            log.stack.pop()
        tracer._append(
            log,
            (
                self.span_id,
                self.parent_id,
                self._name,
                self._category,
                self._start_us,
                end_us - self._start_us,
                self._args,
            ),
        )


class Tracer:
    """Thread-safe collector of hierarchical wall-clock spans.

    Usage::

        with tracer.span("query", category="query"):
            with tracer.span("modeljoin-build", category="phase"):
                ...

    Spans opened on the same thread nest through a thread-local stack;
    spans on worker threads attach to a coordinator span via
    ``parent_id`` (see :meth:`current_span_id`).  When :attr:`enabled`
    is False, :meth:`span` returns the shared :data:`NULL_SPAN` and
    nothing is recorded.
    """

    def __init__(self, enabled: bool = True, max_events: int = 1_000_000):
        self.enabled = enabled
        self.max_events = max_events
        #: events not recorded because max_events was reached
        self.dropped_events = 0
        self._ids = itertools.count(1)
        self._epoch = time.perf_counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._logs: list[_ThreadLog] = []
        self._event_count = 0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _thread_log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog(threading.current_thread().name)
            self._local.log = log
            with self._lock:
                self._logs.append(log)
        return log

    def _append(self, log: _ThreadLog, event: tuple) -> None:
        # The count is maintained without a lock: under the GIL a lost
        # update can only make the cap slightly approximate, never
        # corrupt the event lists themselves (each is single-writer).
        if self._event_count >= self.max_events:
            self.dropped_events += 1
            return
        log.events.append(event)
        self._event_count += 1

    def now_us(self) -> float:
        """Microseconds since this tracer's epoch (Chrome-trace ts)."""
        return (time.perf_counter() - self._epoch) * 1e6

    def allocate_id(self) -> int:
        """Reserve a span id (for spans recorded after the fact)."""
        return next(self._ids)

    def current_span_id(self) -> int | None:
        """Id of the innermost span open on the calling thread."""
        log = getattr(self._local, "log", None)
        if log is None or not log.stack:
            return None
        return log.stack[-1]

    def span(
        self,
        name: str,
        category: str = "engine",
        parent_id: int | None = None,
        args: dict | None = None,
    ):
        """Context manager for one span (no-op when disabled)."""
        if not self.enabled:
            return NULL_SPAN
        return _SpanHandle(self, name, category, parent_id, args)

    def record(
        self,
        name: str,
        category: str,
        start_us: float,
        duration_us: float,
        span_id: int | None = None,
        parent_id: int | None = None,
        args: dict | None = None,
    ) -> None:
        """Record a complete span after the fact (operator close path)."""
        if not self.enabled:
            return
        if span_id is None:
            span_id = next(self._ids)
        self._append(
            self._thread_log(),
            (span_id, parent_id, name, category, start_us, duration_us,
             args),
        )

    def instant(
        self,
        name: str,
        category: str = "engine",
        parent_id: int | None = None,
        args: dict | None = None,
    ) -> None:
        """Record a zero-duration marker event (retry/fallback points)."""
        if not self.enabled:
            return
        self.record(
            name,
            category,
            start_us=self.now_us(),
            duration_us=0.0,
            parent_id=parent_id,
            args=args,
        )

    # ------------------------------------------------------------------
    # inspection / export
    # ------------------------------------------------------------------
    def finished_spans(self) -> list[dict]:
        """All recorded spans as dicts, ordered by start time."""
        with self._lock:
            logs = list(self._logs)
        spans = []
        for log in logs:
            for (span_id, parent_id, name, category, start_us, dur_us,
                 args) in list(log.events):
                spans.append(
                    {
                        "id": span_id,
                        "parent_id": parent_id,
                        "name": name,
                        "category": category,
                        "start_us": start_us,
                        "duration_us": dur_us,
                        "thread": log.thread_name,
                        "args": args or {},
                    }
                )
        spans.sort(key=lambda span: span["start_us"])
        return spans

    def clear(self) -> None:
        """Drop all recorded spans (thread logs stay registered)."""
        with self._lock:
            for log in self._logs:
                log.events.clear()
            self._event_count = 0
            self.dropped_events = 0

    def chrome_trace(self) -> dict:
        """The spans as a Chrome-trace / Perfetto ``traceEvents`` dict.

        Every span becomes a complete event (``"ph": "X"``) with ``ts``
        and ``dur`` in microseconds; thread-name metadata events label
        the tracks.  Load the JSON at https://ui.perfetto.dev or in
        ``chrome://tracing``.
        """
        with self._lock:
            logs = list(self._logs)
        events: list[dict] = []
        tids: dict[str, int] = {}
        for log in logs:
            tid = tids.setdefault(log.thread_name, len(tids) + 1)
            for (span_id, parent_id, name, category, start_us, dur_us,
                 args) in list(log.events):
                rendered_args = {"span_id": span_id}
                if parent_id is not None:
                    rendered_args["parent_id"] = parent_id
                if args:
                    rendered_args.update(args)
                events.append(
                    {
                        "ph": "X",
                        "name": name,
                        "cat": category,
                        "ts": round(start_us, 3),
                        "dur": round(dur_us, 3),
                        "pid": 1,
                        "tid": tid,
                        "args": rendered_args,
                    }
                )
        for thread_name, tid in tids.items():
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": 1,
                    "tid": tid,
                    "args": {"name": thread_name},
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "producer": "repro.db.tracing",
                "dropped_events": self.dropped_events,
            },
        }

    def export(self, path: str) -> int:
        """Write the Chrome-trace JSON to *path*; returns #events."""
        trace = self.chrome_trace()
        with open(path, "w") as handle:
            json.dump(trace, handle)
            handle.write("\n")
        return len(trace["traceEvents"])


class NullTracer(Tracer):
    """A tracer that can never be enabled (context default)."""

    def __init__(self) -> None:
        super().__init__(enabled=False, max_events=0)

    @property
    def enabled(self) -> bool:  # type: ignore[override]
        return False

    @enabled.setter
    def enabled(self, _value: bool) -> None:
        # Silently stays disabled: the null tracer is a shared default
        # and must never start recording for one caller.
        return None


#: shared default for contexts created without an engine
NULL_TRACER = NullTracer()


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
class Counter:
    """A monotonically increasing engine-lifetime counter."""

    __slots__ = ("_lock", "value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0

    def increment(self, amount: int = 1) -> None:
        with self._lock:
            self.value += amount

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A last-value-wins measurement (e.g. ``server.queue_depth``)."""

    __slots__ = ("_lock", "value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Streaming histogram with deterministic reservoir percentiles.

    ``count``/``total``/``min``/``max`` are exact over every observed
    value.  Percentiles are computed over a bounded sample: once the
    reservoir reaches *max_samples*, it is halved by keeping every
    second value and the sampling stride doubles — deterministic (no
    RNG) and still spread over the whole observation history.
    """

    __slots__ = ("_lock", "_values", "_stride", "_seen", "max_samples",
                 "count", "total", "min", "max")

    def __init__(self, max_samples: int = 8192):
        if max_samples < 2:
            raise ValueError("histogram needs at least 2 samples")
        self._lock = threading.Lock()
        self._values: list[float] = []
        self._stride = 1
        self._seen = 0
        self.max_samples = max_samples
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            self._seen += 1
            if self._seen % self._stride == 0:
                self._values.append(value)
                if len(self._values) >= self.max_samples:
                    self._values = self._values[::2]
                    self._stride *= 2

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """The nearest-rank percentile *p* (0 < p <= 100)."""
        if not 0.0 < p <= 100.0:
            raise ValueError(f"percentile must be in (0, 100], got {p}")
        with self._lock:
            values = sorted(self._values)
        if not values:
            return 0.0
        rank = max(math.ceil(p / 100.0 * len(values)) - 1, 0)
        return values[rank]

    def snapshot(self) -> dict:
        return {
            "type": "histogram",
            "count": self.count,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
            "p99": self.percentile(99.0),
        }


class MetricsRegistry:
    """Engine-lifetime named metrics (counters, gauges, histograms).

    Owned by the :class:`~repro.db.engine.Database` and shared by every
    query's execution context, so values aggregate across queries —
    latency percentiles, each statement's folded counters — where a
    :class:`~repro.db.profiler.QueryProfile` holds one statement.
    Accessors get-or-create; asking for an existing name with a
    different metric type raises ``ValueError``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, kind):
        # one dict read finds an existing metric (atomic: no lock);
        # only creating one takes the lock
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.setdefault(name, kind())
        if not isinstance(metric, kind):
            raise ValueError(
                f"metric {name!r} is a "
                f"{type(metric).__name__.lower()}, not a "
                f"{kind.__name__.lower()}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._metrics

    def snapshot(self) -> dict[str, dict]:
        """All metrics as ``{name: {"type": ..., ...}}``, sorted."""
        with self._lock:
            metrics = dict(self._metrics)
        return {
            name: metrics[name].snapshot() for name in sorted(metrics)
        }

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()


def flatten_metrics(snapshot: dict[str, dict]) -> dict[str, float]:
    """A metrics snapshot as flat ``name.field -> number`` pairs.

    Counters and gauges flatten to their value under the bare name;
    histograms expand to ``name.count``, ``name.mean``, ``name.p50``,
    ``name.p95``, ``name.p99``.  Used by the bench CSV writer.
    """
    flat: dict[str, float] = {}
    for name, rendered in snapshot.items():
        if rendered.get("type") == "histogram":
            for key in ("count", "mean", "p50", "p95", "p99"):
                flat[f"{name}.{key}"] = rendered[key]
        else:
            flat[name] = rendered["value"]
    return flat
