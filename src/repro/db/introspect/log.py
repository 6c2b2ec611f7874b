"""The persistent ring-buffer query log behind ``system.queries``.

In memory the log is a bounded deque of plain row dicts (see
``profiler.ENTRY_FIELDS``).  For a persistent database every recorded
row is additionally appended to ``query_log.jsonl`` at the storage root
and flushed immediately — one write per finished query, no checkpoint
required — so the history survives a crash-kill and
``repro.connect(path=...)`` restores the newest *capacity* rows on
reopen.  A torn trailing line (the row being written when the process
died) is skipped during the reload instead of poisoning the log.  When
the file holds more lines than that, the reload compacts it to the
restored rows (temp file, fsync, rename), so a reopen reads at most
*capacity* rows however many queries ran before; query ids continue
from the highest id the file held.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from pathlib import Path

LOG_FILE_NAME = "query_log.jsonl"


def _line(entry: dict) -> str:
    return json.dumps(entry, sort_keys=True) + "\n"


class QueryLog:
    """Bounded query history with optional append-only persistence."""

    def __init__(
        self, capacity: int = 256, path: str | Path | None = None
    ):
        if capacity < 1:
            raise ValueError("query log capacity must be >= 1")
        self.capacity = capacity
        self.path = Path(path) if path is not None else None
        #: guards the ring and the file; held across record()'s write
        #: and flush
        self._lock = threading.Lock()
        #: guards only the id counter, so a query start never waits
        #: behind another query's disk write
        self._id_lock = threading.Lock()
        self._entries: deque[dict] = deque(maxlen=capacity)
        self._handle = None
        self._next_query_id = 0
        if self.path is not None:
            self._load()
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")

    def _load(self) -> None:
        if not self.path.exists():
            return
        rows: list[dict] = []
        lines = 0
        with open(self.path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                lines += 1
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError:
                    # Torn tail write of a killed process; drop the row.
                    continue
                if isinstance(entry, dict):
                    rows.append(entry)
        self._entries.extend(rows[-self.capacity:])
        if rows:
            self._next_query_id = (
                max(int(entry.get("query_id", -1)) for entry in rows) + 1
            )
        if lines > len(self._entries):
            # Compact: keep only the rows the ring retains (dropping a
            # torn line too), so reopening never re-reads old history.
            # (Storage is imported here: only persistent engines log to
            # a file, and they have loaded it already.)
            from repro.db.storage.checkpoint import atomic_write_text

            atomic_write_text(
                self.path,
                "".join(_line(entry) for entry in self._entries),
            )

    def allocate_query_id(self) -> int:
        """The next query id (monotonic across restarts)."""
        with self._id_lock:
            query_id = self._next_query_id
            self._next_query_id += 1
            return query_id

    def record(self, entry: dict) -> None:
        """Append one finished-query row (and flush it to disk)."""
        with self._lock:
            self._entries.append(entry)
            if self._handle is not None:
                self._handle.write(_line(entry))
                self._handle.flush()

    def entries(self) -> list[dict]:
        """The retained rows, oldest first."""
        with self._lock:
            return list(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
