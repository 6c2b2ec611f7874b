"""Cross-query cache of finalized ModelJoin builds.

The paper's headline result amortizes the model build over a query's
many inference vectors; a *serving* workload (the same scoring query
arriving over and over) additionally wants the build amortized over
queries.  "Serving Deep Learning Model in Relational Databases"
(PAPERS.md) identifies exactly this model/state caching across
invocations as the gap between one-shot benchmarks and a serving-grade
stack.

The cache maps a :class:`CacheKey` to the finalized
:class:`~repro.core.modeljoin.builder.BuiltModel`.  The key carries
everything the build depends on:

* the model table's identity (``uid``) and data ``version`` — an
  INSERT bumps the version, so stale builds simply stop matching;
* the registered model name (re-registration under the same name is
  additionally invalidated eagerly through the catalog's invalidation
  listeners, as is DROP TABLE);
* the device name.

A build holds weights only, so nothing in it depends on how a query
batches its rows: the vector size and the bias replication are the
scoring pipeline's business (its
:class:`~repro.device.arena.BufferArena`).  On the host, the bias
replicas of ``y := Ax + y`` depend only on the build and the batch
length, so each entry keeps them beside its build, read-only and
grown to the longest batch scored (:meth:`ModelCache.bias_replica`):
a warm point statement fills none.  A simulated GPU fills its own per
statement, a device kernel its modeled time counts.

Entries are LRU-evicted once the configured byte cap is exceeded;
bytes are tracked by a :class:`~repro.db.profiler.MemoryAccountant`
under the ``model-cache`` category (builds) and the
``model-cache-replicas`` category (bias replicas), so the resident
footprint is observable like every other engine allocation and the cap
bounds both.
"""

from __future__ import annotations

import threading
import zlib
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.core.modeljoin.builder import BuiltModel
from repro.db import faults
from repro.db.profiler import MemoryAccountant
from repro.db.table import Table

#: default cap on resident cached model bytes (weights and biases)
DEFAULT_CAPACITY_BYTES = 256 * 1024 * 1024

MEMORY_CATEGORY = "model-cache"

#: the accountant category of the bias replicas entries keep
REPLICA_CATEGORY = "model-cache-replicas"


def weight_arrays(built: BuiltModel) -> tuple[np.ndarray, ...]:
    """Every weight array of a finalized build, in checksum order:
    layers in order, then each layer's array fields in declaration
    order."""
    # getattr: unit tests cache stub objects without layers (checksum 0
    # is stable for those, which is all integrity checking needs).
    return tuple(
        value
        for layer in getattr(built, "layers", ())
        for value in vars(layer).values()
        if isinstance(value, np.ndarray)
    )


def model_checksum(arrays: tuple[np.ndarray, ...]) -> int:
    """CRC32 over the :func:`weight_arrays` of a finalized build.

    Cheap relative to a rebuild (one linear pass over the bytes) and
    order-stable.  Used to detect in-memory corruption of cached
    models — the "models as validatable data" idea of SQL4NN applied to
    the serving cache.  The cache keeps each entry's arrays beside its
    checksum, so a hit reads the bytes without walking the layers.
    """
    crc = 0
    for array in arrays:
        if not array.flags.c_contiguous:
            array = np.ascontiguousarray(array)
        crc = zlib.crc32(array, crc)
    return crc


@dataclass(frozen=True)
class CacheKey:
    """Everything a finalized build depends on."""

    model_table: str
    table_uid: int
    table_version: int
    model_name: str
    device: str

    @classmethod
    def for_build(
        cls, model_table: Table, model_name: str, device_name: str
    ) -> "CacheKey":
        return cls(
            model_table=model_table.name.lower(),
            table_uid=model_table.uid,
            table_version=model_table.version,
            model_name=model_name.lower(),
            device=device_name,
        )


class ModelCache:
    """Engine-lifetime LRU cache of finalized model builds.

    Thread-safe: partition pipelines of concurrent queries may look up
    and insert under contention.  The cache owns its own accountant
    because its contents outlive any single query's context.
    """

    def __init__(self, capacity_bytes: int = DEFAULT_CAPACITY_BYTES):
        if capacity_bytes < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity_bytes = capacity_bytes
        self.memory = MemoryAccountant()
        self._lock = threading.Lock()
        self._entries: OrderedDict[CacheKey, BuiltModel] = OrderedDict()
        #: per entry, its checksum and the weight arrays it covers
        self._checksums: dict[CacheKey, tuple[int, tuple]] = {}
        #: per entry, its build and the host bias replicas kept for it
        self._replicas: dict[
            CacheKey, tuple[BuiltModel, dict[str, np.ndarray]]
        ] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.corruptions = 0
        #: optional engine-lifetime MetricsRegistry (set by attach());
        #: quarantines then bump the ``cache.corruption`` counter
        self.metrics = None

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def resident_bytes(self) -> int:
        """Bytes of the cached builds (their replicas not included)."""
        return self.memory.by_category.get(MEMORY_CATEGORY, 0)

    @property
    def replica_bytes(self) -> int:
        """Bytes of the bias replicas the entries keep."""
        return self.memory.by_category.get(REPLICA_CATEGORY, 0)

    def get(self, key: CacheKey) -> BuiltModel | None:
        """The cached build for *key*, or None (counts hit/miss).

        Every hit is integrity-verified against the checksum stored at
        :meth:`put`; a mismatch *quarantines* the entry — it is evicted,
        counted (``corruptions`` statistic and the engine's
        ``cache.corruption`` metric) and reported as a miss, so the
        caller transparently rebuilds instead of serving corrupt
        weights.
        """
        with self._lock:
            built = self._entries.get(key)
            if built is None:
                self.misses += 1
                return None
            if faults.ACTIVE is not None and faults.ACTIVE.corrupts(
                "cache.load"
            ):
                _flip_bits(built)
            expected, arrays = self._checksums[key]
            if model_checksum(arrays) != expected:
                self._drop(key)
                self.corruptions += 1
                self.misses += 1
                if self.metrics is not None:
                    self.metrics.counter("cache.corruption").increment()
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return built

    def put(self, key: CacheKey, built: BuiltModel) -> None:
        """Insert a finalized build, evicting LRU entries over the cap.

        A build larger than the whole cap is not retained at all.  The
        entry's integrity checksum is computed here, once, so every
        later :meth:`get` can verify it.  Eviction counts the replicas
        too: an evicted entry's go with it.
        """
        nbytes = built.nominal_bytes()
        if nbytes > self.capacity_bytes:
            return
        with self._lock:
            if key in self._entries:
                return
            self._entries[key] = built
            arrays = weight_arrays(built)
            self._checksums[key] = (model_checksum(arrays), arrays)
            self.memory.allocate(nbytes, MEMORY_CATEGORY)
            # least recently used first; never what was just added
            for victim in list(self._entries)[:-1]:
                if self.memory.current_bytes <= self.capacity_bytes:
                    break
                self._drop(victim)
                self.evictions += 1

    def bias_replica(
        self,
        key: CacheKey,
        built: BuiltModel,
        tag: str,
        bias: np.ndarray,
        rows: int,
    ) -> np.ndarray | None:
        """*bias* repeated *rows* times, kept read-only beside *key*'s
        entry for every statement scoring *built* on the host.

        A replica grows to the longest batch asked for and its bytes
        count toward the cap.  Returns None — the caller replicates into
        its own arena — when the entry no longer holds *built*
        (evicted, invalidated, quarantined or never kept) or a longer
        replica would not fit under the cap.  Repeats read the replica
        without the lock; it is never written after it is made.
        """
        held = self._replicas.get(key)
        if held is not None and held[0] is built:
            replica = held[1].get(tag)
            if replica is not None and replica.shape[0] >= rows:
                return replica[:rows]
        with self._lock:
            if self._entries.get(key) is not built:
                return None
            replicas = self._replicas.setdefault(key, (built, {}))[1]
            replica = replicas.get(tag)
            if replica is not None and replica.shape[0] >= rows:
                return replica[:rows]
            grown = rows * bias.nbytes - (
                0 if replica is None else replica.nbytes
            )
            if self.memory.current_bytes + grown > self.capacity_bytes:
                return None
            replica = np.repeat(bias[np.newaxis, :], rows, axis=0)
            replica.flags.writeable = False
            replicas[tag] = replica
            self.memory.allocate(grown, REPLICA_CATEGORY)
            return replica

    def _drop(self, key: CacheKey) -> None:
        """Remove *key*'s entry, its checksum and its replicas, and
        release their bytes (the lock held)."""
        built = self._entries.pop(key)
        self._checksums.pop(key, None)
        self.memory.release(built.nominal_bytes(), MEMORY_CATEGORY)
        held = self._replicas.pop(key, None)
        if held is not None:
            self.memory.release(
                sum(replica.nbytes for replica in held[1].values()),
                REPLICA_CATEGORY,
            )

    def entries(self) -> list[tuple[CacheKey, BuiltModel]]:
        """Snapshot of (key, build) pairs, LRU first.

        Used by the storage layer's checkpoint to persist host-resident
        builds (see repro.core.modeljoin.persistence); iteration order
        preserves recency so a capped reload warms the hottest entries
        last (i.e. most-recently-used wins LRU eviction again).
        """
        with self._lock:
            return list(self._entries.items())

    def invalidate_table(self, table_name: str) -> int:
        """Drop every entry built from *table_name* (DROP/re-register).

        Returns the number of entries removed.  Version-keyed lookups
        would already miss; eager removal releases the bytes.
        """
        name = table_name.lower()
        with self._lock:
            stale = [
                key for key in self._entries if key.model_table == name
            ]
            for key in stale:
                self._drop(key)
            self.invalidations += len(stale)
            return len(stale)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._checksums.clear()
            self._replicas.clear()
            self.memory.reset()

    def statistics(self) -> dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "resident_bytes": self.resident_bytes,
                "replica_bytes": self.replica_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "corruptions": self.corruptions,
            }


def _flip_bits(built: BuiltModel) -> None:
    """Corrupt a cached build in place (the ``cache.load`` fault).

    Flips the bits of the first weight value found — enough for the
    checksum to catch, small enough to model a single-event upset.
    """
    for layer in getattr(built, "layers", ()):
        for value in vars(layer).values():
            if isinstance(value, np.ndarray) and value.size:
                flat = value.view(np.uint32).reshape(-1)
                flat[0] ^= 0xFFFFFFFF
                return
