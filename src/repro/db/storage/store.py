"""Disk-resident tables and the storage engine that owns them.

A :class:`DiskPartition` duck-types the in-memory
:class:`~repro.db.table.Partition`: it yields :class:`DiskBlock`
objects from ``blocks()`` exactly where a memory partition yields
:class:`~repro.db.column.Block`.  A disk block knows its row count and
zone maps from the column-file footers alone — pruning a block costs
zero I/O — and fetches individual columns through the shared
:class:`~repro.db.storage.bufferpool.BufferPool` only when a scan
actually materializes them.  Appends to a disk table land in a
per-partition in-memory *overlay* (a plain block builder) that the next
checkpoint merges into a fresh on-disk generation.

The :class:`StorageEngine` maps a directory to a catalog: ``open_into``
restores tables and model registrations from the manifest, and
``checkpoint`` writes dirty tables into new generation directories
before atomically swapping the manifest (see
:mod:`repro.db.storage.checkpoint` for the crash-safety argument).
"""

from __future__ import annotations

import shutil
import threading
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from repro.db.catalog import (
    Catalog,
    LayerMetadata,
    ModelMetadata,
    ModelVersionRecord,
)
from repro.db.column import BLOCK_SIZE, BlockBuilder, MinMax, ZoneMaps
from repro.db.schema import Column, Schema
from repro.db.storage.blockio import ColumnFileReader, ColumnFileWriter
from repro.db.storage.bufferpool import (
    DEFAULT_CAPACITY_BYTES,
    BufferPool,
)
from repro.db.storage.checkpoint import (
    FORMAT_VERSION,
    load_manifest,
    save_manifest,
)
from repro.db.table import Table, ensure_uid_floor
from repro.db.types import SqlType
from repro.db.vector import VectorBatch
from repro.errors import ExecutionError

TABLES_DIR = "tables"
MODELS_DIR = "models"


def _column_file_name(position: int, name: str) -> str:
    return f"c{position}_{name.lower()}.col"


def _model_entry(metadata: ModelMetadata) -> dict:
    """A ModelMetadata as a JSON-friendly manifest entry."""
    return {
        "model_name": metadata.model_name,
        "table_name": metadata.table_name,
        "input_width": metadata.input_width,
        "layers": [
            {
                "layer_type": layer.layer_type,
                "units": layer.units,
                "activation": layer.activation,
                "time_steps": layer.time_steps,
            }
            for layer in metadata.layers
        ],
    }


def _metadata_from_entry(entry: dict) -> ModelMetadata:
    return ModelMetadata(
        model_name=entry["model_name"],
        table_name=entry["table_name"],
        input_width=int(entry["input_width"]),
        layers=tuple(
            LayerMetadata(
                layer_type=layer["layer_type"],
                units=int(layer["units"]),
                activation=layer["activation"],
                time_steps=int(layer.get("time_steps", 1)),
            )
            for layer in entry["layers"]
        ),
    )


class DiskBlock:
    """One row-block of a disk partition (duck-types ``Block``).

    Carries only footer-derived metadata; column arrays are fetched
    lazily, per column, through the buffer pool.
    """

    __slots__ = ("partition", "index", "length", "stats")

    #: lets scans distinguish file-backed blocks without imports
    is_disk = True

    def __init__(
        self,
        partition: "DiskPartition",
        index: int,
        length: int,
        stats: list[MinMax | None],
    ):
        self.partition = partition
        self.index = index
        self.length = length
        self.stats = stats

    def column_array(self, position: int) -> np.ndarray:
        return self.partition.column_array(self.index, position)

    def read_columns(
        self, positions: list[int], on_open=None
    ) -> list[np.ndarray]:
        """Fetch several columns of this block, pinned as a set.

        Every frame stays pinned until the whole set is assembled, so
        a concurrent scan cannot evict column 0 while column 5 is
        still being decoded.  *on_open* (if given) is called with each
        column file's key — scans use it to count distinct files
        actually opened (the ``scan.columns_fetched`` accounting).
        """
        return self.partition.read_block_columns(
            self.index, positions, on_open=on_open
        )

    def to_batch(self, schema: Schema) -> VectorBatch:
        return VectorBatch(
            schema, self.read_columns(list(range(len(schema))))
        )

    def nominal_bytes(self) -> int:
        return self.partition.block_nominal_bytes(self.index)


class DiskPartition:
    """One partition of a disk-resident table.

    Sealed data lives in column files under *directory*; fresh appends
    accumulate in an in-memory overlay builder and are merged to disk
    at the next checkpoint.  Footers (offsets + zone maps) are loaded
    once, lazily; block payloads only ever move through the pool.
    """

    def __init__(
        self,
        schema: Schema,
        directory: str | Path,
        pool: BufferPool,
        metrics=None,
        tracer=None,
        block_size: int = BLOCK_SIZE,
    ):
        self.schema = schema
        self.directory = Path(directory)
        self.pool = pool
        self.metrics = metrics
        self.tracer = tracer
        self.block_size = block_size
        self._overlay = BlockBuilder(schema, block_size)
        self._readers: list[ColumnFileReader] | None = None
        self._disk_blocks: list[DiskBlock] | None = None
        self._disk_rows = 0
        #: zone maps of the disk blocks (from the footers), and the last
        #: (overlay zone maps, disk + overlay zone maps) pair read
        self._disk_zones: ZoneMaps | None = None
        self._zoned: tuple[ZoneMaps, ZoneMaps] | None = None

    # -- footer metadata ------------------------------------------------
    def _ensure_meta(self) -> None:
        if self._readers is not None:
            return
        readers = [
            ColumnFileReader(
                self.directory
                / _column_file_name(position, column.name),
                column.sql_type,
                metrics=self.metrics,
                tracer=self.tracer,
            )
            for position, column in enumerate(self.schema)
        ]
        counts = {reader.num_blocks for reader in readers}
        if len(counts) > 1:
            raise ExecutionError(
                f"{self.directory}: column files disagree on block "
                f"count ({sorted(counts)})"
            )
        blocks: list[DiskBlock] = []
        rows_total = 0
        for index in range(counts.pop() if counts else 0):
            stats: list[MinMax | None] = []
            rows = None
            for reader, column in zip(readers, self.schema):
                entry = reader.blocks[index]
                if rows is None:
                    rows = entry["rows"]
                elif rows != entry["rows"]:
                    raise ExecutionError(
                        f"{self.directory}: ragged block {index}"
                    )
                if (
                    column.sql_type.is_numeric
                    and entry["min"] is not None
                ):
                    stats.append(
                        MinMax(float(entry["min"]), float(entry["max"]))
                    )
                else:
                    stats.append(None)
            blocks.append(DiskBlock(self, index, int(rows or 0), stats))
            rows_total += int(rows or 0)
        self._readers = readers
        self._disk_blocks = blocks
        self._disk_rows = rows_total
        self._disk_zones = ZoneMaps.of(blocks, len(self.schema))

    # -- Partition protocol ---------------------------------------------
    @property
    def row_count(self) -> int:
        self._ensure_meta()
        return self._disk_rows + self._overlay.row_count

    def append(self, batch: VectorBatch) -> None:
        self._overlay.append(batch)

    def last_values(self, positions: list[int]) -> list | None:
        """The last row's values at *positions*; None when empty."""
        values = self._overlay.last_values(positions)
        if values is not None:
            return values
        self._ensure_meta()
        if not self._disk_blocks:
            return None
        last = len(self._disk_blocks) - 1
        return [
            array[-1] for array in self.read_block_columns(last, positions)
        ]

    def blocks(self) -> list:
        return self.zoned_blocks()[0]

    def zoned_blocks(self) -> tuple[list, ZoneMaps]:
        """The disk blocks, then the overlay's, with their zone maps."""
        self._ensure_meta()
        overlay, overlay_zones = self._overlay.zoned_blocks()
        zoned = self._zoned
        if zoned is None or zoned[0] is not overlay_zones:
            zoned = overlay_zones, self._disk_zones + overlay_zones
            self._zoned = zoned
        return list(self._disk_blocks) + overlay, zoned[1]

    def nominal_bytes(self) -> int:
        self._ensure_meta()
        disk = sum(
            entry["raw_nbytes"]
            for reader in self._readers
            for entry in reader.blocks
        )
        return disk + self._overlay.nominal_bytes()

    def disk_block_metadata(self) -> list[dict]:
        """Footer metadata of every sealed block × column, no payload I/O.

        Feeds ``system.storage_blocks``: one dict per (block, column)
        with the persisted codec, row count, encoded size and zone-map
        bounds.  Overlay (unsealed) blocks are not included — see
        :meth:`overlay_blocks`.
        """
        self._ensure_meta()
        rows: list[dict] = []
        for position, (reader, column) in enumerate(
            zip(self._readers, self.schema)
        ):
            for index, entry in enumerate(reader.blocks):
                rows.append(
                    {
                        "block": index,
                        "column": column.name,
                        "position": position,
                        "codec": entry["codec"],
                        "rows": entry["rows"],
                        "raw_nbytes": entry["raw_nbytes"],
                        "nulls": entry.get("nulls", 0),
                        "min": entry["min"],
                        "max": entry["max"],
                    }
                )
        return rows

    def checkpoint_blocks(self) -> list:
        """The blocks a checkpoint writes: :meth:`blocks`, except that a
        short last disk block is re-blocked together with the overlay,
        so only the partition's final block is short."""
        blocks = self.blocks()
        disk = self._disk_blocks
        if (
            not disk
            or len(blocks) == len(disk)
            or disk[-1].length >= self.block_size
        ):
            return blocks
        merged = BlockBuilder(self.schema, self.block_size)
        for block in blocks[len(disk) - 1:]:
            merged.append(block.to_batch(self.schema))
        return blocks[: len(disk) - 1] + merged.all_blocks()

    def overlay_blocks(self) -> list:
        """In-memory blocks appended since the last checkpoint."""
        return self._overlay.all_blocks()

    # -- block data access ----------------------------------------------
    def _frame_key(self, index: int, position: int) -> tuple:
        return (str(self.directory), position, index)

    def file_key(self, position: int) -> tuple:
        """Identity of one column file (for file-open accounting)."""
        return (str(self.directory), position)

    def column_array(self, block_index: int, position: int) -> np.ndarray:
        self._ensure_meta()
        reader = self._readers[position]
        return self.pool.get(
            self._frame_key(block_index, position),
            lambda: reader.read_block(block_index),
        )

    def read_block_columns(
        self, block_index: int, positions: list[int], on_open=None
    ) -> list[np.ndarray]:
        self._ensure_meta()
        keys = [
            self._frame_key(block_index, position) for position in positions
        ]
        arrays: list[np.ndarray] = []
        pinned: list[tuple] = []
        try:
            for key, position in zip(keys, positions):
                if on_open is not None:
                    on_open(self.file_key(position))
                reader = self._readers[position]
                arrays.append(
                    self.pool.get(
                        key,
                        lambda r=reader: r.read_block(block_index),
                        pin=True,
                    )
                )
                pinned.append(key)
        finally:
            for key in pinned:
                self.pool.unpin(key)
        return arrays

    def block_nominal_bytes(self, block_index: int) -> int:
        self._ensure_meta()
        return sum(
            reader.blocks[block_index]["raw_nbytes"]
            for reader in self._readers
        )

    def close(self) -> None:
        if self._readers is not None:
            for reader in self._readers:
                reader.close()


class DiskTable(Table):
    """A table whose partitions read from column files."""

    disk_resident = True


def write_partition(
    directory: str | Path, schema: Schema, blocks: list
) -> int:
    """Write *blocks* (memory or disk) as column files; returns rows."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    writers = [
        ColumnFileWriter(
            directory / _column_file_name(position, column.name),
            column.sql_type,
        )
        for position, column in enumerate(schema)
    ]
    rows = 0
    try:
        for block in blocks:
            rows += block.length
            for position, writer in enumerate(writers):
                writer.append_block(block.column_array(position))
    finally:
        for writer in writers:
            writer.close()
    return rows


class GenerationPin:
    """One snapshot's refcount claim on a set of generation dirs."""

    __slots__ = ("dirs",)

    def __init__(self, dirs: tuple[Path, ...]):
        self.dirs = dirs


class StorageEngine:
    """Maps a directory to the durable state of one database."""

    def __init__(
        self,
        root: str | Path,
        buffer_pool_bytes: int | None = None,
        metrics=None,
        tracer=None,
    ):
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        #: resolved once, here: every generation key is a pure join
        #: under it, so pinning and GC compare paths without syscalls
        self.root = root.resolve()
        (self.root / TABLES_DIR).mkdir(exist_ok=True)
        (self.root / MODELS_DIR).mkdir(exist_ok=True)
        self.metrics = metrics
        self.tracer = tracer
        self.buffer_pool = BufferPool(
            capacity_bytes=(
                buffer_pool_bytes
                if buffer_pool_bytes is not None
                else DEFAULT_CAPACITY_BYTES
            ),
            metrics=metrics,
        )
        self._generation = 0
        #: manifest entries currently backed by on-disk data, by
        #: lower-cased table name (used to skip rewriting clean tables)
        self._persisted: dict[str, dict] = {}
        #: keys (``root / data_dir``) of the generation dirs the
        #: committed manifest references, recorded when it is published
        self._published: tuple[Path, ...] = ()
        #: snapshot pinning (MVCC-lite, see repro.db.snapshot): a
        #: refcount per pinned generation directory, plus the retired
        #: generations (superseded by a later checkpoint while pinned)
        #: whose readers must be closed and files deleted once the
        #: last pin drops
        self._pin_lock = threading.Lock()
        self._pin_counts: dict[Path, int] = {}
        self._retired: dict[Path, list] = {}
        #: partitions of generations the manifest references (their
        #: column-file readers are closed at retirement or close())
        self._live: set[DiskPartition] = set()

    def _publish(self, entries: list[dict]) -> None:
        """Record the committed manifest's table entries and their keys."""
        self._persisted = {
            entry["name"].lower(): dict(entry) for entry in entries
        }
        self._published = tuple(
            self.root / entry["data_dir"] for entry in entries
        )

    @property
    def models_dir(self) -> Path:
        return self.root / MODELS_DIR

    # ------------------------------------------------------------------
    # open
    # ------------------------------------------------------------------
    def open_into(self, catalog: Catalog) -> int:
        """Restore tables and model registrations; returns table count."""
        manifest = load_manifest(self.root)
        if manifest is None:
            return 0
        with self._span("storage.open"):
            self._generation = int(manifest.get("generation", 0))
            highest_uid = -1
            for entry in manifest["tables"]:
                table = self._load_table(entry)
                catalog.create_table(table)
                highest_uid = max(highest_uid, table.uid)
            self._publish(manifest["tables"])
            ensure_uid_floor(highest_uid + 1)
            for model in manifest.get("models", []):
                catalog.register_model(_metadata_from_entry(model))
            for entry in manifest.get("model_versions", []):
                catalog.register_model_version(
                    ModelVersionRecord(
                        model_name=entry["model_name"],
                        version=int(entry["version"]),
                        metadata=_metadata_from_entry(entry["metadata"]),
                        created_at=float(entry["created_at"]),
                        epochs=int(entry["epochs"]),
                        batch_size=int(entry["batch_size"]),
                        learning_rate=float(entry["learning_rate"]),
                        seed=int(entry["seed"]),
                        loss_name=entry["loss_name"],
                        final_loss=float(entry["final_loss"]),
                        weight_checksum=int(entry["weight_checksum"]),
                        source_fingerprint=entry["source_fingerprint"],
                        arch=entry["arch"],
                    ),
                    make_current=False,
                )
            # The current bindings were restored through "models"
            # above; record the version numbers they correspond to.
            for name, version in manifest.get(
                "current_versions", {}
            ).items():
                catalog.current_versions[name] = int(version)
        return len(manifest["tables"])

    def _load_table(self, entry: dict) -> DiskTable:
        schema = Schema(
            tuple(
                Column(name, SqlType(type_name))
                for name, type_name in entry["schema"]
            )
        )
        table = DiskTable(
            entry["name"],
            schema,
            num_partitions=int(entry["num_partitions"]),
            partition_key=entry.get("partition_key"),
            sort_key=tuple(entry.get("sort_key", ())),
        )
        table.uid = int(entry["uid"])
        table.version = int(entry["version"])
        table.partitions = self._open_partitions(
            schema, self.root / entry["data_dir"], table.num_partitions
        )
        return table

    def _open_partitions(
        self, schema: Schema, data_dir: Path, count: int
    ) -> list[DiskPartition]:
        partitions = [
            DiskPartition(
                schema,
                data_dir / f"p{index}",
                self.buffer_pool,
                metrics=self.metrics,
                tracer=self.tracer,
            )
            for index in range(count)
        ]
        for partition in partitions:
            # Load the column-file footers at publish, so neither the
            # first query nor a snapshot capture pays metadata I/O.
            partition._ensure_meta()
        with self._pin_lock:
            self._live.update(partitions)
        return partitions

    # ------------------------------------------------------------------
    # snapshot pinning (MVCC-lite)
    # ------------------------------------------------------------------
    def pin_generations(self) -> GenerationPin:
        """Pin the current generation dir of every persisted table.

        While pinned, a generation directory survives any number of
        later checkpoints: its readers stay open, its buffer-pool
        frames stay resident, and its files stay on disk.  Call
        :meth:`unpin_generations` with the returned pin to release.
        Only refcounts move: the keys were recorded at publish, so a
        pin makes no filesystem call.
        """
        with self._pin_lock:
            dirs = self._published
            for directory in dirs:
                self._pin_counts[directory] = (
                    self._pin_counts.get(directory, 0) + 1
                )
        if self.metrics is not None:
            self.metrics.counter("storage.generations_pinned").increment(
                len(dirs)
            )
        return GenerationPin(dirs)

    def unpin_generations(self, pin: GenerationPin) -> int:
        """Drop one pin; garbage-collect newly unpinned retirees.

        Returns the number of generation directories collected.
        """
        collectable: list[tuple[Path, list]] = []
        with self._pin_lock:
            for directory in pin.dirs:
                count = self._pin_counts.get(directory, 0) - 1
                if count > 0:
                    self._pin_counts[directory] = count
                    continue
                self._pin_counts.pop(directory, None)
                if directory in self._retired:
                    collectable.append(
                        (directory, self._retired.pop(directory))
                    )
        for directory, partitions in collectable:
            self._gc_generation(directory, partitions)
        return len(collectable)

    def pinned_generations(self) -> int:
        """Number of generation directories currently pinned."""
        with self._pin_lock:
            return len(self._pin_counts)

    def retired_generations(self) -> int:
        """Pinned generations superseded and awaiting GC at unpin."""
        with self._pin_lock:
            return len(self._retired)

    def _gc_generation(self, directory: Path, partitions: list) -> None:
        """Close a retired generation's readers and delete its files."""
        for partition in partitions:
            self.buffer_pool.invalidate_prefix(str(partition.directory))
            partition.close()
        shutil.rmtree(directory, ignore_errors=True)
        parent = directory.parent
        try:
            if parent.is_dir() and not any(parent.iterdir()):
                parent.rmdir()
        except OSError:
            pass
        if self.metrics is not None:
            self.metrics.counter("storage.generations_gced").increment()

    def _retire_partitions(self, partitions: list) -> None:
        """Hand a superseded generation's partitions to GC.

        Unpinned generations are detached immediately (readers closed,
        pool frames dropped — file deletion follows in the stale-dir
        sweep); pinned ones are parked in ``_retired`` until their last
        pin drops, so in-flight snapshot scans keep a valid view.
        """
        groups: dict[Path, list] = {}
        for partition in partitions:
            directory = partition.directory.parent
            groups.setdefault(directory, []).append(partition)
        detach_now: list[list] = []
        with self._pin_lock:
            self._live.difference_update(partitions)
            for directory, group in groups.items():
                if self._pin_counts.get(directory):
                    self._retired.setdefault(directory, []).extend(group)
                else:
                    detach_now.append(group)
        for group in detach_now:
            for partition in group:
                self.buffer_pool.invalidate_prefix(
                    str(partition.directory)
                )
                partition.close()

    # ------------------------------------------------------------------
    # checkpoint
    # ------------------------------------------------------------------
    def checkpoint(self, catalog: Catalog) -> dict:
        """Persist the catalog; returns the committed manifest."""
        with self._span("storage.checkpoint"):
            tables = [
                self._persist_table(table)
                for table in catalog.tables.values()
            ]
            models = [
                _model_entry(metadata)
                for metadata in catalog.models.values()
            ]
            model_versions = [
                {
                    "model_name": record.model_name,
                    "version": record.version,
                    "metadata": _model_entry(record.metadata),
                    "created_at": record.created_at,
                    "epochs": record.epochs,
                    "batch_size": record.batch_size,
                    "learning_rate": record.learning_rate,
                    "seed": record.seed,
                    "loss_name": record.loss_name,
                    "final_loss": record.final_loss,
                    "weight_checksum": record.weight_checksum,
                    "source_fingerprint": record.source_fingerprint,
                    "arch": record.arch,
                }
                for versions in catalog.model_versions.values()
                for record in versions.values()
            ]
            manifest = {
                "format_version": FORMAT_VERSION,
                "generation": self._generation,
                "tables": tables,
                "models": models,
                "model_versions": model_versions,
                "current_versions": dict(catalog.current_versions),
            }
            save_manifest(self.root, manifest)
            self._publish(tables)
            self._cleanup_stale_generations()
        if self.metrics is not None:
            self.metrics.counter("storage.checkpoints").increment()
        return manifest

    def _persist_table(self, table: Table) -> dict:
        previous = self._persisted.get(table.name.lower())
        if (
            previous is not None
            and previous["uid"] == table.uid
            and previous["version"] == table.version
        ):
            return dict(previous)  # data on disk is current
        self._generation += 1
        relative = (
            Path(TABLES_DIR)
            / table.name.lower()
            / f"gen{self._generation:06d}"
        )
        data_dir = self.root / relative
        row_count = 0
        for index, partition in enumerate(table.partitions):
            blocks = (
                partition.checkpoint_blocks()
                if table.disk_resident
                else partition.blocks()
            )
            row_count += write_partition(
                data_dir / f"p{index}", table.schema, blocks
            )
        entry = {
            "name": table.name,
            "uid": table.uid,
            "version": table.version,
            "num_partitions": table.num_partitions,
            "partition_key": table.partition_key,
            "sort_key": list(table.sort_key),
            "schema": [
                [column.name, column.sql_type.value]
                for column in table.schema
            ],
            "data_dir": str(relative),
            "row_count": row_count,
        }
        if table.disk_resident:
            # Point the live table at the merged generation so the
            # overlay does not keep growing; the superseded partitions
            # are retired once the new manifest commits.
            table.partitions = self._open_partitions(
                table.schema, data_dir, table.num_partitions
            )
        return entry

    def _cleanup_stale_generations(self) -> None:
        referenced = set(self._published)
        # Partitions of superseded or dropped tables go through the
        # retire path: closed now when no snapshot pins their
        # generation, when the last pin drops otherwise.
        self._retire_partitions([
            partition
            for partition in self._live
            if partition.directory.parent not in referenced
        ])
        # iterdir() under the resolved root yields keys directly.
        tables_root = self.root / TABLES_DIR
        for table_dir in tables_root.iterdir():
            if not table_dir.is_dir():
                continue
            for generation_dir in table_dir.iterdir():
                if generation_dir in referenced:
                    continue
                with self._pin_lock:
                    if self._pin_counts.get(generation_dir):
                        # A snapshot still reads this generation: keep
                        # the files and let the last unpin delete them.
                        self._retired.setdefault(generation_dir, [])
                        continue
                shutil.rmtree(generation_dir, ignore_errors=True)
            if not any(table_dir.iterdir()):
                table_dir.rmdir()

    def _span(self, name: str):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, category="storage")

    def close(self) -> None:
        """Close every open column file and empty the buffer pool.

        Partitions stay usable: a later read reopens its file lazily.
        Retired ones stay parked, so their last unpin still deletes
        their files.
        """
        with self._pin_lock:
            partitions = [*self._live]
            for retired in self._retired.values():
                partitions.extend(retired)
        for partition in partitions:
            partition.close()
        self.buffer_pool.clear()
