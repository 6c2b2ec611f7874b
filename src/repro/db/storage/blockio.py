"""Column files: the on-disk unit of the block storage format.

Each column of each partition lives in its own file::

    +----------------+--------------- ... ---------------+-----------+
    | magic "RPROC1\\n\\0" |  block payloads (codec-encoded)  |  footer   |
    +----------------+--------------- ... ---------------+-----------+
                                                         | footer JSON |
                                                         | u64 length  |
                                                         | magic (8 B) |
                                                         +-------------+

Block payloads are written back to back in block order, each encoded by
one of the :mod:`repro.db.storage.codecs`.  The footer is a UTF-8 JSON
document describing every block — byte offset and length, row count,
codec and its parameters, the zone map (min/max of numeric columns) and
the null (NaN) count — followed by its own length and a trailing magic,
so a reader finds it with one seek from the end of the file.  All
integers are little-endian; plain payloads are NumPy-compatible (a
plain block can be mapped with ``np.frombuffer`` directly).

Readers are thread-safe (partition pipelines of one query share them)
and retry transient read failures — including the ``io.block_read``
injected fault — with bounded backoff, so a flaky disk degrades scans
into retries instead of query errors.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import time
from pathlib import Path

import numpy as np

from repro.db import faults
from repro.db.column import zone_map_bounds
from repro.db.resilience import backoff_seconds
from repro.db.storage import codecs
from repro.db.types import SqlType
from repro.errors import ExecutionError, InjectedFaultError

MAGIC = b"RPROC1\n\0"
_TAIL = struct.Struct("<Q8s")

#: how many times a failed block read is retried before the error
#: propagates (transient-fault model: each retry re-draws the dice)
READ_RETRIES = 8


class ColumnFileWriter:
    """Streams the blocks of one column into a column file."""

    def __init__(self, path: str | Path, sql_type: SqlType):
        self.path = Path(path)
        self.sql_type = sql_type
        self.entries: list[dict] = []
        self._handle = open(self.path, "wb")
        self._handle.write(MAGIC)
        self._offset = len(MAGIC)
        self._closed = False

    def append_block(self, array: np.ndarray) -> dict:
        """Encode and append one block; returns its footer entry."""
        encoded = codecs.encode(array, self.sql_type)
        self._handle.write(encoded.payload)
        entry = {
            "offset": self._offset,
            "nbytes": len(encoded.payload),
            "rows": int(len(array)),
            "codec": encoded.codec,
            "params": encoded.params,
            "raw_nbytes": int(
                array.nbytes
                if array.dtype != object
                else len(array) * self.sql_type.byte_width
            ),
        }
        entry.update(_zone_map(array, self.sql_type))
        self._offset += len(encoded.payload)
        self.entries.append(entry)
        return entry

    def close(self) -> None:
        """Write the footer and durably finish the file."""
        if self._closed:
            return
        footer = json.dumps(
            {
                "dtype": self.sql_type.numpy_dtype.newbyteorder("<").str
                if self.sql_type is not SqlType.VARCHAR
                else "object",
                "sql_type": self.sql_type.value,
                "blocks": self.entries,
            },
            separators=(",", ":"),
        ).encode("utf-8")
        self._handle.write(footer)
        self._handle.write(_TAIL.pack(len(footer), MAGIC))
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._handle.close()
        self._closed = True

    def __enter__(self) -> "ColumnFileWriter":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def _zone_map(array: np.ndarray, sql_type: SqlType) -> dict:
    """Per-block SMA statistics recorded in the footer.

    The bounds follow :func:`repro.db.column.zone_map_bounds`, so a
    reopened block prunes exactly as it did in memory; integers are
    stored exactly, and ``nulls`` counts NaNs.
    """
    nulls = int(np.isnan(array).sum()) if array.dtype.kind == "f" else 0
    bounds = zone_map_bounds(array, sql_type)
    if bounds is None:
        return {"min": None, "max": None, "nulls": nulls}
    exact = int if sql_type is SqlType.INTEGER else float
    return {"min": exact(bounds[0]), "max": exact(bounds[1]), "nulls": nulls}


class ColumnFileReader:
    """Reads blocks of one column file; footer loaded once at open.

    ``read_block`` is the only method that touches block payloads, so
    the footer (offsets + zone maps) is available without any data I/O
    — that is what makes persisted zone-map pruning free.
    """

    def __init__(
        self,
        path: str | Path,
        sql_type: SqlType,
        metrics=None,
        tracer=None,
    ):
        self.path = Path(path)
        self.sql_type = sql_type
        self.metrics = metrics
        self.tracer = tracer
        self._lock = threading.Lock()
        self._handle = None
        self.blocks = self._load_footer()
        # Counter handles resolved once: reads are per-block hot path.
        self._blocks_read = (
            metrics.counter("storage.blocks_read") if metrics else None
        )
        self._bytes_decompressed = (
            metrics.counter("storage.bytes_decompressed")
            if metrics
            else None
        )

    def _load_footer(self) -> list[dict]:
        with open(self.path, "rb") as handle:
            head = handle.read(len(MAGIC))
            if head != MAGIC:
                raise ExecutionError(
                    f"{self.path}: not a column file (bad magic)"
                )
            handle.seek(-_TAIL.size, os.SEEK_END)
            length, tail_magic = _TAIL.unpack(handle.read(_TAIL.size))
            if tail_magic != MAGIC:
                raise ExecutionError(
                    f"{self.path}: truncated column file (bad tail)"
                )
            handle.seek(-(_TAIL.size + length), os.SEEK_END)
            footer = json.loads(handle.read(length).decode("utf-8"))
        if footer["sql_type"] != self.sql_type.value:
            raise ExecutionError(
                f"{self.path}: file stores {footer['sql_type']}, "
                f"schema says {self.sql_type.value}"
            )
        return footer["blocks"]

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def read_block(self, index: int) -> np.ndarray:
        """Decode block *index*, retrying transient read failures."""
        entry = self.blocks[index]
        attempt = 0
        while True:
            try:
                return self._read_once(entry)
            except (InjectedFaultError, OSError):
                attempt += 1
                if attempt > READ_RETRIES:
                    raise
                if self.metrics is not None:
                    self.metrics.counter("storage.read_retries").increment()
                time.sleep(backoff_seconds(attempt, base=0.0005, cap=0.01))

    def _read_once(self, entry: dict) -> np.ndarray:
        if faults.ACTIVE is not None:
            faults.ACTIVE.fire("io.block_read")
        with self._lock:
            if self._handle is None:
                self._handle = open(self.path, "rb")
            self._handle.seek(entry["offset"])
            payload = self._handle.read(entry["nbytes"])
        if len(payload) != entry["nbytes"]:
            raise OSError(
                f"{self.path}: short read at offset {entry['offset']}"
            )
        if self.tracer is not None and self.tracer.enabled:
            with self.tracer.span(
                "storage.block_read",
                category="storage",
                args={
                    "file": self.path.name,
                    "rows": entry["rows"],
                    "codec": entry["codec"],
                },
            ):
                array = self._decode(entry, payload)
        else:
            array = self._decode(entry, payload)
        if self._blocks_read is not None:
            self._blocks_read.increment()
            self._bytes_decompressed.increment(entry["raw_nbytes"])
        return array

    def _decode(self, entry: dict, payload: bytes) -> np.ndarray:
        return codecs.decode(
            entry["codec"],
            payload,
            entry["params"],
            self.sql_type,
            entry["rows"],
        )

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
