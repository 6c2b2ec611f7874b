"""Table scan with SMA block pruning and column projection.

Batches are scan vectors, or whole blocks when the lowering sizes the
scan for the ModelJoin or hash aggregate it feeds
(:attr:`TableScan.vector_size`).
"""

from __future__ import annotations

import time
from collections.abc import Iterator

from repro.db.column import Block, ColumnRange, block_pruner
from repro.db.operators.base import ExecutionContext, PhysicalOperator
from repro.db.schema import Schema
from repro.db.table import Table
from repro.db.vector import VectorBatch


class TableScan(PhysicalOperator):
    """Scans a table (or a single partition of it).

    Range predicates extracted from the WHERE clause are used to skip
    whole storage blocks via their min/max statistics — the mechanism
    the paper uses to prune the model table to the layer being joined
    (Section 4.4).  Pruned predicates are *hints*: rows of surviving
    blocks are still filtered exactly by the pipeline kernel above.

    With *columns* set (the optimizer's projection-pushdown rule) only
    those columns are materialized into batches; SMA pruning still
    evaluates against the full table schema, whose positions index the
    per-block statistics.  The ``scan.columns_fetched`` profile counter
    records how many columns each scan actually read — for a
    disk-resident table it counts the distinct column *files* opened,
    so projection pushdown is observable as fewer file opens and a
    fully pruned scan as zero.

    Disk-resident tables (see :mod:`repro.db.storage`) stream blocks
    through the engine's buffer pool: pruning uses the zone maps
    persisted in the column-file footers (no I/O), and only the
    projected columns' files are ever read.

    A scan emits batches of ``context.vector_size`` rows — one scan
    vector — unless the lowering set :attr:`vector_size` to a multiple
    of it: the inference batch of the ModelJoin it feeds, or a whole
    block for a hash aggregate whose input calls no function.  Either
    way a batch is made of whole consecutive scan vectors of one block:
    a block's trailing partial vector is always a batch of its own.
    """

    morsel_streaming = True

    def __init__(
        self,
        context: ExecutionContext,
        table: Table,
        ranges: list[ColumnRange] | None = None,
        partition_index: int | None = None,
        columns: list[str] | None = None,
    ):
        if columns is None:
            positions = list(range(len(table.schema)))
            schema = table.schema
        else:
            positions = [
                table.schema.position_of(name) for name in columns
            ]
            schema = Schema(
                tuple(table.schema.columns[p] for p in positions)
            )
        super().__init__(context, schema)
        self.table = table
        self.ranges = ranges or []
        #: zone-map pruner over a block's stats; None when no range
        #: predicate applies to this table
        self._may_match = block_pruner(table.schema, self.ranges)
        self.partition_index = partition_index
        self._positions = positions
        self._projected = columns is not None and len(positions) < len(
            table.schema
        )
        #: shared queue of scan morsels; when set (by the parallel
        #: executor, see repro.db.parallel.attach_morsel_sources) the
        #: scan steals work from it instead of scanning its partition
        self.morsel_source = None
        #: this pipeline's index, used as the in-flight owner id so a
        #: crashed pipeline's morsels can be requeued for its retry
        self.morsel_owner = None
        self.blocks_scanned = 0
        self.blocks_pruned = 0
        #: nominal (decoded) bytes of the blocks actually scanned; a
        #: morsel counts only its row span's share of the block
        self.bytes_scanned = 0
        #: distinct column files opened (disk-resident tables only)
        self._opened_files: set = set()
        #: rows per emitted batch when larger than one scan vector (set
        #: by the lowering for the scan feeding a ModelJoin or a hash
        #: aggregate); None = the context's vector size
        self.vector_size: int | None = None

    @property
    def ordering(self) -> tuple[str, ...]:
        # A declared sort key holds within each partition; a serial scan
        # of a multi-partition table interleaves partitions and loses it.
        if self.partition_index is not None or self.table.num_partitions == 1:
            key = self.table.sort_key
        else:
            return ()
        if not self._projected:
            return key
        # Ordering on a dropped column cannot be claimed; keep the
        # longest prefix of the sort key that was actually fetched.
        fetched = {name.lower() for name in self.schema.names}
        prefix: list[str] = []
        for name in key:
            if name.lower() not in fetched:
                break
            prefix.append(name)
        return tuple(prefix)

    def open(self) -> None:
        super().open()
        if not self.table.disk_resident:
            # Memory-resident columns are "fetched" by definition; a
            # disk scan instead counts files as they are first opened
            # (see _count_file_open), so a fully pruned scan reads 0.
            self.context.counters.increment(
                "scan.columns_fetched", len(self.schema)
            )

    def _count_file_open(self, file_key) -> None:
        if file_key not in self._opened_files:
            self._opened_files.add(file_key)
            self.context.counters.increment("scan.columns_fetched")

    def _block_batch(self, block: Block) -> VectorBatch:
        read_columns = getattr(block, "read_columns", None)
        if read_columns is not None:
            # Disk block: fetch only the projected columns' files
            # through the buffer pool, pinned while assembling.
            return VectorBatch(
                self.schema,
                read_columns(
                    self._positions, on_open=self._count_file_open
                ),
            )
        if not self._projected:
            return block.to_batch(self.schema)
        return VectorBatch(
            self.schema, [block.arrays[p] for p in self._positions]
        )

    def _prune_block(self, block) -> None:
        self.blocks_pruned += 1
        if getattr(block, "is_disk", False):
            metrics = self.context.metrics
            if metrics is not None:
                metrics.counter("storage.blocks_skipped").increment()

    def _produce(self) -> Iterator[VectorBatch]:
        if self.morsel_source is not None:
            yield from self._produce_morsels()
            return
        if self.partition_index is None:
            partitions = self.table.partitions
        else:
            partitions = [self.table.partitions[self.partition_index]]
        for partition in partitions:
            for block in partition.blocks():
                if self._may_match is not None and not self._may_match(
                    block.stats
                ):
                    self._prune_block(block)
                    continue
                self.blocks_scanned += 1
                self.bytes_scanned += block.nominal_bytes()
                yield from self._vectors(self._block_batch(block))

    def _vectors(self, batch: VectorBatch) -> Iterator[VectorBatch]:
        """Slice one block (or morsel) into batches of whole vectors."""
        rows = len(batch)
        vector = self.context.vector_size
        step = self.vector_size or vector
        whole = rows - rows % vector
        for start in range(0, whole, step):
            yield batch.slice(start, min(start + step, whole))
        if whole < rows:
            yield batch.slice(whole, rows)

    def _produce_morsels(self) -> Iterator[VectorBatch]:
        """Morsel-driven scanning: pull row ranges from a shared queue.

        The pipelines of one query collectively drain the source; block
        pruning still applies per block, and the profile counts the
        morsels each worker executed (load-balance observability).
        With tracing on, each morsel is a span that stays open while
        the downstream operators consume its vectors — the span covers
        this worker's whole per-morsel pipeline work, and the
        ``morsel.queue_wait`` histogram records the time spent asking
        the shared queue for the next morsel.
        """
        from repro.db import faults
        from repro.db.parallel import current_worker_name

        counters = self.context.counters
        tracer = self.context.tracer
        traced = tracer.enabled
        metrics = self.context.metrics
        cancellation = self.context.query.cancellation
        queue_wait = (
            metrics.histogram("morsel.queue_wait")
            if metrics is not None
            else None
        )
        worker = current_worker_name()
        perf = time.perf_counter
        while True:
            if cancellation is not None:
                cancellation.check()
            if faults.ACTIVE is not None:
                faults.ACTIVE.fire("worker.morsel")
            waited = perf()
            morsel = self.morsel_source.next_morsel(self.morsel_owner)
            if queue_wait is not None:
                queue_wait.observe(perf() - waited)
            if morsel is None:
                return
            counters.increment("morsels")
            counters.increment(f"morsels.{worker}")
            block = morsel.block
            if self._may_match is not None and not self._may_match(
                block.stats
            ):
                self._prune_block(block)
                continue
            self.blocks_scanned += 1
            span = morsel.row_stop - morsel.row_start
            self.bytes_scanned += (
                block.nominal_bytes() * span
            ) // max(block.length, 1)
            if traced:
                with tracer.span(
                    "morsel",
                    category="morsel",
                    parent_id=self._span_id,
                    args={
                        "partition": morsel.partition_index,
                        "rows": morsel.row_stop - morsel.row_start,
                        "worker": worker,
                    },
                ):
                    yield from self._emit_morsel(morsel)
            else:
                yield from self._emit_morsel(morsel)

    def _emit_morsel(self, morsel) -> Iterator[VectorBatch]:
        yield from self._vectors(
            self._block_batch(morsel.block).slice(
                morsel.row_start, morsel.row_stop
            )
        )

    def close(self) -> None:
        # Fold this scan's totals into the per-query profile counters
        # (the introspection layer's ResourceProfile reads them at
        # query end; retried pipelines re-scan, so re-counting their
        # fresh plans is the honest accounting).
        counters = self.context.counters
        if self.rows_emitted:
            counters.increment("scan.rows_read", self.rows_emitted)
        if self.bytes_scanned:
            counters.increment("scan.bytes_read", self.bytes_scanned)
        if self.blocks_scanned:
            counters.increment("scan.blocks_scanned", self.blocks_scanned)
        if self.blocks_pruned:
            counters.increment("scan.blocks_skipped", self.blocks_pruned)
        super().close()

    def merge_stats_from(self, other) -> None:
        super().merge_stats_from(other)
        self.blocks_scanned += other.blocks_scanned
        self.blocks_pruned += other.blocks_pruned
        self.bytes_scanned += other.bytes_scanned

    def describe(self) -> str:
        parts = [f"TableScan({self.table.name}"]
        if self.table.disk_resident:
            marker = ", disk"
            if self.ranges:
                marker += "+zone-map skip"
            parts.append(marker)
        if self.partition_index is not None:
            parts.append(f", partition={self.partition_index}")
        if self._projected:
            parts.append(f", cols=[{', '.join(self.schema.names)}]")
        if self.ranges:
            rendered = ", ".join(str(r) for r in self.ranges)
            parts.append(f", prune: {rendered}")
        if self.vector_size is not None:
            parts.append(f", vector={self.vector_size}")
        return "".join(parts) + ")"
