"""Table scan with SMA block pruning and column projection.

A batch is the whole scan vectors of one block (see :func:`scan_batches`).
"""

from __future__ import annotations

import time
from collections.abc import Iterator

import numpy as np

from repro.db.column import BLOCK_SIZE, Block, ColumnRange, block_pruner
from repro.db.operators.base import Bound, ExecutionContext, PhysicalOperator
from repro.db.schema import Schema
from repro.db.table import Table
from repro.db.vector import VectorBatch


def scan_batches(
    batch: VectorBatch, vector_size: int
) -> Iterator[VectorBatch]:
    """One block's rows (or a morsel's) as scan batches.

    A batch is whole consecutive vectors of *vector_size* rows, up to a
    block's worth, and a trailing partial vector is a batch of its own:
    every batch a consumer cuts into whole vectors — the ModelJoin's
    inference batches, a UDF's per-vector calls — holds the rows a
    per-vector scan would have delivered at the same offsets.
    """
    rows = len(batch)
    whole = rows - rows % vector_size
    step = max(vector_size, BLOCK_SIZE - BLOCK_SIZE % vector_size)
    if whole == rows and rows <= step:
        if rows:
            yield batch
        return
    for start in range(0, whole, step):
        yield batch.slice(start, min(start + step, whole))
    if whole < rows:
        yield batch.slice(whole, rows)


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

    Every scan emits the same batches, whatever consumes them: the
    whole ``context.vector_size`` vectors of one block together, and a
    block's trailing partial vector as a batch of its own
    (:func:`scan_batches`).

    In a compiled plan the scan holds its table's identity: the table,
    the pruning ranges and the partition are the instance's
    (:class:`~repro.db.operators.base.Bound`).
    """

    morsel_streaming = True

    #: shared queue of scan morsels; when set (by the parallel
    #: executor, see repro.db.parallel.attach_morsel_sources) the scan
    #: steals work from it instead of scanning its partition
    morsel_source = None
    #: this pipeline's index, used as the in-flight owner id so a
    #: crashed pipeline's morsels can be requeued for its retry
    morsel_owner = None
    # scan totals, counted from open()
    blocks_scanned = 0
    blocks_pruned = 0
    #: nominal (decoded) bytes of the blocks actually scanned; a morsel
    #: counts only its row span's share of the block
    bytes_scanned = 0

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
        #: the table, or in a compiled plan its identity
        self.source = table
        #: whether the scan reads one partition (the bound one)
        self.partitioned = partition_index is not None
        #: which of the bound pruning ranges are this scan's (the
        #: lowering sets the logical scan's position in its template)
        self.template_index = 0
        # built for itself, the scan is bound to its own inputs
        self.bound = Bound(
            tables={table: table},
            ranges=(tuple(ranges or ()),),
            partition_index=partition_index,
        )
        self._positions = tuple(positions)
        self._projected = columns is not None and len(positions) < len(
            table.schema
        )

    @property
    def table(self):
        return self.bound.tables[self.source]

    @property
    def ranges(self) -> tuple:
        return self.bound.ranges[self.template_index]

    @property
    def partition_index(self) -> int | None:
        return self.bound.partition_index if self.partitioned else None

    @property
    def ordering(self) -> tuple[str, ...]:
        # A declared sort key holds within each partition; a serial scan
        # of a multi-partition table interleaves partitions and loses it.
        if self.partitioned or self.source.num_partitions == 1:
            key = self.source.sort_key
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
        #: zone-map pruner over a partition's zone maps; None when no
        #: range predicate applies to this table (a range on the sort
        #: key's leading column is found by binary search)
        self._may_match = block_pruner(
            self.source.schema, self.ranges, self.source.sort_key
        )
        #: keep masks of the morsel source's partitions, by index
        self._morsel_masks: dict[int, np.ndarray] = {}
        #: distinct column files opened (disk-resident tables only)
        self._opened_files: set = set()
        self.blocks_scanned = 0
        self.blocks_pruned = 0
        self.bytes_scanned = 0
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
        return VectorBatch.validated(
            self.schema, [block.arrays[p] for p in self._positions]
        )

    def _pruned(self, blocks: list, keep) -> None:
        """Count the *blocks* their zone maps ruled out (*keep* False)."""
        self.blocks_pruned += len(blocks) - int(np.count_nonzero(keep))
        if self.table.disk_resident:
            disk = sum(
                1
                for block, kept in zip(blocks, keep)
                if not kept and getattr(block, "is_disk", False)
            )
            if disk:
                self.context.counters.increment("storage.blocks_skipped", disk)

    def _produce(self) -> Iterator[VectorBatch]:
        if self.morsel_source is not None:
            yield from self._produce_morsels()
            return
        if self.partition_index is None:
            partitions = self.table.partitions
        else:
            partitions = [self.table.partitions[self.partition_index]]
        for partition in partitions:
            blocks, zones = partition.zoned_blocks()
            if self._may_match is not None:
                keep = self._may_match(zones)
                self._pruned(blocks, keep)
                blocks = [blocks[i] for i in np.flatnonzero(keep)]
            for block in blocks:
                self.blocks_scanned += 1
                self.bytes_scanned += block.nominal_bytes()
                yield from scan_batches(
                    self._block_batch(block), self.context.vector_size
                )

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
            if self._may_match is not None and not self._morsel_keeps(
                morsel
            ):
                self._pruned([block], [False])
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

    def _morsel_keeps(self, morsel) -> bool:
        """Whether the zone maps let *morsel*'s block match; one mask per
        partition of the morsel source, computed at its first morsel."""
        mask = self._morsel_masks.get(morsel.partition_index)
        if mask is None:
            mask = self._may_match(
                self.morsel_source.zone_maps[morsel.partition_index]
            )
            self._morsel_masks[morsel.partition_index] = mask
        return bool(mask[morsel.block_index])

    def _emit_morsel(self, morsel) -> Iterator[VectorBatch]:
        yield from scan_batches(
            self._block_batch(morsel.block).slice(
                morsel.row_start, morsel.row_stop
            ),
            self.context.vector_size,
        )

    def close(self) -> None:
        # Fold this scan's totals into the per-query profile counters
        # (the ``system.queries`` row reads them at query end; retried
        # pipelines re-scan, so re-counting their fresh plans is the
        # honest accounting).
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
        return "".join(parts) + ")"
