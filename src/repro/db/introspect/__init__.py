"""SQL-queryable engine introspection (the ``system`` schema).

The engine's operational state — metrics, the query log, live query
progress, caches, breakers, storage block layout, the catalog itself —
is exposed as a read-only virtual ``system`` schema.  Each
``system.*`` name resolves through the regular catalog into a fresh
point-in-time snapshot built as a plain in-memory table, so the whole
standard SQL surface applies: joins against user tables, filters,
aggregates, ORDER BY, and EXPLAIN (see docs/OBSERVABILITY.md).

Modules:

- :mod:`~repro.db.introspect.collector` — the
  :class:`ActiveQueryRegistry` behind ``system.active_queries``, which
  holds each running statement's
  :class:`~repro.db.profiler.QueryProfile`.
- :mod:`~repro.db.introspect.log` — the :class:`QueryLog` ring buffer
  with crash-safe JSONL persistence (``system.queries``).
- :mod:`~repro.db.introspect.tables` — the :class:`SystemSchema`
  virtual-table providers.
- :mod:`~repro.db.introspect.prometheus` — Prometheus text exposition
  for ``Database.export_metrics_text()``.
"""

from repro.db.introspect.collector import ActiveQueryRegistry
from repro.db.introspect.log import QueryLog
from repro.db.introspect.prometheus import (
    metrics_to_prometheus,
    parse_prometheus_text,
)
from repro.db.introspect.tables import SystemSchema

__all__ = [
    "ActiveQueryRegistry",
    "QueryLog",
    "SystemSchema",
    "metrics_to_prometheus",
    "parse_prometheus_text",
]
