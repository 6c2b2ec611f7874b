"""Persistent columnar storage (docs/STORAGE.md).

Covers the block codecs (golden choices + bit-exact round trips,
including NaN bit patterns), the column-file format, the LRU buffer
pool, zone-map block skipping on disk scans, atomic checkpointing with
a simulated crash between data write and manifest rename, and the
restart-warm model cache (fig8 dense-grid models reopen bit-exact and
the first ModelJoin after a restart is a cache hit).
"""

from collections import OrderedDict

import numpy as np
import pytest

import repro
from repro.core.registry import publish_model
from repro.db import faults
from repro.db.faults import FaultInjector
from repro.db.storage import (
    BufferPool,
    ColumnFileReader,
    ColumnFileWriter,
    DiskPartition,
    write_partition,
)
from repro.db.storage import codecs
from repro.db.storage.checkpoint import MANIFEST_NAME, load_manifest
from repro.db.column import BLOCK_SIZE, ColumnRange, block_pruner
from repro.db.schema import Column, Schema
from repro.db.types import SqlType
from repro.errors import ExecutionError
from repro.workloads.models import make_dense_model

# runs again under `python -X dev` with ResourceWarnings as errors
pytestmark = pytest.mark.leak_guard

RNG_SEED = 20260806


def assert_bit_equal(actual: np.ndarray, expected: np.ndarray):
    """Bit-exact equality (NaN payloads included)."""
    assert len(actual) == len(expected)
    if expected.dtype == object:
        assert actual.tolist() == expected.tolist()
        return
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


def sample_arrays(rows: int, seed: int = RNG_SEED) -> dict[SqlType, np.ndarray]:
    rng = np.random.default_rng(seed)
    floats = rng.random(rows, dtype=np.float32)
    floats[::17] = np.nan
    return {
        SqlType.INTEGER: rng.integers(-1000, 1000, rows, dtype=np.int64),
        SqlType.FLOAT: floats,
        SqlType.DOUBLE: rng.standard_normal(rows),
        SqlType.BOOLEAN: rng.random(rows) < 0.5,
        SqlType.VARCHAR: np.array(
            [f"value-{i % 13}-é" for i in range(rows)], dtype=object
        ),
    }


class TestCodecs:
    def test_round_trip_every_codec(self):
        for sql_type, array in sample_arrays(1000).items():
            applicable = [codecs.PLAIN, codecs.DICT]
            if sql_type is not SqlType.VARCHAR:
                applicable.append(codecs.RLE)
            if sql_type is SqlType.INTEGER:
                applicable.append(codecs.BITPACK)
                applicable.append(codecs.SEQUENCE)
            for codec in applicable:
                encoded = codecs.encode_with(codec, array, sql_type)
                decoded = codecs.decode(
                    encoded.codec,
                    encoded.payload,
                    encoded.params,
                    sql_type,
                    len(array),
                )
                assert_bit_equal(decoded, array)

    def test_empty_block_round_trips(self):
        for sql_type in SqlType:
            array = np.empty(0, dtype=sql_type.numpy_dtype)
            encoded = codecs.encode(array, sql_type)
            decoded = codecs.decode(
                encoded.codec, encoded.payload, encoded.params, sql_type, 0
            )
            assert len(decoded) == 0

    def test_nan_bit_patterns_survive_rle(self):
        # Three distinct NaN payloads in runs: rle must compare bits,
        # not values (NaN != NaN would split and reorder runs).
        payloads = np.array(
            [0x7FC00001, 0x7FC00001, 0x7FC00002, 0x7F800001],
            dtype=np.uint32,
        ).view(np.float32)
        encoded = codecs.encode_with(codecs.RLE, payloads, SqlType.FLOAT)
        decoded = codecs.decode(
            codecs.RLE, encoded.payload, encoded.params, SqlType.FLOAT, 4
        )
        assert_bit_equal(decoded, payloads)

    # -- golden choices: the chooser must pick the obviously right codec
    def test_chooses_bitpack_for_dense_integer_range(self):
        rng = np.random.default_rng(RNG_SEED)
        array = rng.integers(0, 1000, 4096, dtype=np.int64)
        assert codecs.choose_codec(array, SqlType.INTEGER) == codecs.BITPACK
        encoded = codecs.encode(array, SqlType.INTEGER)
        assert len(encoded.payload) < array.nbytes / 4

    def test_chooses_sequence_for_row_ids(self):
        array = np.arange(7, 7 + 3 * 4096, 3, dtype=np.int64)
        assert (
            codecs.choose_codec(array, SqlType.INTEGER) == codecs.SEQUENCE
        )
        encoded = codecs.encode(array, SqlType.INTEGER)
        assert encoded.codec == codecs.SEQUENCE
        assert encoded.payload == b""
        decoded = codecs.decode(
            encoded.codec, encoded.payload, encoded.params,
            SqlType.INTEGER, len(array),
        )
        assert_bit_equal(decoded, array)

    def test_sequence_falls_back_when_sample_lies(self):
        # Constant delta at every sampled position, broken in between:
        # encode must verify the full block and fall back to bitpack.
        array = np.arange(4096, dtype=np.int64)
        array[1] = 99  # never sampled at stride 8
        assert (
            codecs.choose_codec(array, SqlType.INTEGER) == codecs.SEQUENCE
        )
        encoded = codecs.encode(array, SqlType.INTEGER)
        assert encoded.codec == codecs.BITPACK
        decoded = codecs.decode(
            encoded.codec, encoded.payload, encoded.params,
            SqlType.INTEGER, len(array),
        )
        assert_bit_equal(decoded, array)

    def test_chooses_rle_for_constant_runs(self):
        array = np.repeat(np.float64([1.5, 2.5, 3.5]), 2000)
        assert codecs.choose_codec(array, SqlType.DOUBLE) == codecs.RLE

    def test_chooses_dict_for_low_cardinality_strings(self):
        array = np.array(
            [("red", "green", "blue")[i % 3] for i in range(3000)],
            dtype=object,
        )
        assert codecs.choose_codec(array, SqlType.VARCHAR) == codecs.DICT

    def test_keeps_plain_for_incompressible_doubles(self):
        rng = np.random.default_rng(3)
        array = rng.standard_normal(4096)
        assert codecs.choose_codec(array, SqlType.DOUBLE) == codecs.PLAIN

    def test_bitpack_rejects_wide_spans(self):
        # A span wider than MAX_PACK_BITS must fall back to plain
        # instead of overflowing the delta arithmetic.
        array = np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max])
        encoded = codecs.encode_with(codecs.BITPACK, array, SqlType.INTEGER)
        assert encoded.codec == codecs.PLAIN
        decoded = codecs.decode(
            encoded.codec, encoded.payload, encoded.params, SqlType.INTEGER, 2
        )
        assert_bit_equal(decoded, array)

    def test_unknown_codec_raises(self):
        with pytest.raises(ExecutionError):
            codecs.decode("lz4", b"", {}, SqlType.INTEGER, 1)


class TestColumnFile:
    def test_write_read_round_trip_with_zone_maps(self, tmp_path):
        path = tmp_path / "c0_id.col"
        blocks = [
            np.arange(0, 500, dtype=np.int64),
            np.arange(500, 1000, dtype=np.int64),
            np.arange(1000, 1100, dtype=np.int64),
        ]
        with ColumnFileWriter(path, SqlType.INTEGER) as writer:
            for block in blocks:
                writer.append_block(block)
        reader = ColumnFileReader(path, SqlType.INTEGER)
        assert reader.num_blocks == 3
        assert [e["rows"] for e in reader.blocks] == [500, 500, 100]
        assert reader.blocks[1]["min"] == 500
        assert reader.blocks[1]["max"] == 999
        for index, block in enumerate(blocks):
            assert_bit_equal(reader.read_block(index), block)
        reader.close()

    def test_nan_counts_recorded_as_nulls(self, tmp_path):
        path = tmp_path / "c0_f.col"
        array = np.array([1.0, np.nan, 2.0, np.nan, np.nan], dtype=np.float32)
        with ColumnFileWriter(path, SqlType.FLOAT) as writer:
            writer.append_block(array)
        reader = ColumnFileReader(path, SqlType.FLOAT)
        entry = reader.blocks[0]
        assert entry["nulls"] == 3
        assert entry["min"] == 1.0 and entry["max"] == 2.0
        reader.close()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.col"
        path.write_bytes(b"NOTACOLF" * 4)
        with pytest.raises(ExecutionError, match="magic"):
            ColumnFileReader(path, SqlType.INTEGER)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "torn.col"
        with ColumnFileWriter(path, SqlType.INTEGER) as writer:
            writer.append_block(np.arange(10, dtype=np.int64))
        data = path.read_bytes()
        path.write_bytes(data[:-4])  # lose half the tail magic
        with pytest.raises(ExecutionError, match="tail"):
            ColumnFileReader(path, SqlType.INTEGER)

    def test_type_mismatch_rejected(self, tmp_path):
        path = tmp_path / "c0_x.col"
        with ColumnFileWriter(path, SqlType.INTEGER) as writer:
            writer.append_block(np.arange(4, dtype=np.int64))
        with pytest.raises(ExecutionError, match="INTEGER"):
            ColumnFileReader(path, SqlType.DOUBLE)


class TestBufferPool:
    def loader(self, rows=1000):
        return lambda: np.zeros(rows, dtype=np.int64)

    def test_hit_miss_accounting(self):
        pool = BufferPool(capacity_bytes=1 << 20)
        pool.get("a", self.loader())
        pool.get("a", self.loader())
        assert pool.statistics.misses == 1
        assert pool.statistics.hits == 1
        assert len(pool) == 1

    def test_lru_eviction_respects_cap(self):
        frame = 1000 * 8
        pool = BufferPool(capacity_bytes=3 * frame)
        for key in "abcd":
            pool.get(key, self.loader())
        assert pool.statistics.evictions == 1
        assert pool.resident_bytes <= 3 * frame
        # "a" was least recently used: re-getting it is a miss,
        # re-getting "d" is a hit.
        pool.get("d", self.loader())
        assert pool.statistics.hits == 1
        pool.get("a", self.loader())
        assert pool.statistics.misses == 6 - 1  # 4 first gets + reload

    def test_pinned_frames_survive_eviction(self):
        frame = 1000 * 8
        pool = BufferPool(capacity_bytes=2 * frame)
        pool.get("pinned", self.loader(), pin=True)
        for key in "xyz":
            pool.get(key, self.loader())
        with pool._lock:
            assert "pinned" in pool._frames
        pool.unpin("pinned")
        for key in "uvw":
            pool.get(key, self.loader())
        with pool._lock:
            assert "pinned" not in pool._frames

    def test_eviction_stops_once_under_cap(self):
        frame = 1000 * 8
        pool = BufferPool(capacity_bytes=100 * frame)
        for key in range(100):
            pool.get(key, self.loader())

        class CountingFrames(OrderedDict):
            visited = 0

            def items(self):
                for item in super().items():
                    CountingFrames.visited += 1
                    yield item

        pool._frames = CountingFrames(pool._frames)
        pool.get("double", self.loader(2000))
        # two LRU frames make room for the double frame: the walk
        # visits them and nothing else
        assert CountingFrames.visited == 2
        assert pool.statistics.evictions == 2
        assert pool.resident_bytes == 100 * frame
        with pool._lock:
            assert 0 not in pool._frames and 1 not in pool._frames
            assert 2 in pool._frames and "double" in pool._frames

    def test_eviction_skips_pinned_lru_frames(self):
        frame = 1000 * 8
        pool = BufferPool(capacity_bytes=3 * frame)
        pool.get("a", self.loader(), pin=True)
        for key in "bcd":
            pool.get(key, self.loader())
        assert pool.statistics.evictions == 1
        with pool._lock:
            assert list(pool._frames) == ["a", "c", "d"]

    def test_all_pinned_pool_overshoots(self):
        frame = 1000 * 8
        pool = BufferPool(capacity_bytes=2 * frame)
        for key in "abc":
            pool.get(key, self.loader(), pin=True)
        assert pool.statistics.evictions == 0
        assert pool.resident_bytes == 3 * frame
        pool.unpin("a")
        pool.get("d", self.loader(), pin=True)
        # the one unpinned frame goes; the pool still overshoots
        assert pool.statistics.evictions == 1
        with pool._lock:
            assert list(pool._frames) == ["b", "c", "d"]

    def test_invalidate_prefix(self):
        pool = BufferPool(capacity_bytes=1 << 20)
        pool.get(("/data/t1/p0", 0, 0), self.loader())
        pool.get(("/data/t1/p0", 1, 0), self.loader())
        pool.get(("/data/t2/p0", 0, 0), self.loader())
        assert pool.invalidate_prefix("/data/t1") == 2
        assert len(pool) == 1

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            BufferPool(capacity_bytes=0)


class TestDiskPartition:
    def schema(self):
        return Schema(
            (Column("id", SqlType.INTEGER), Column("v", SqlType.DOUBLE))
        )

    def test_round_trip_and_zone_map_pruning(self, tmp_path):
        schema = self.schema()
        db = repro.connect()
        db.execute("CREATE TABLE t (id BIGINT, v DOUBLE)")
        rng = np.random.default_rng(5)
        db.table("t").append_columns(
            id=np.arange(10_000, dtype=np.int64),
            v=rng.standard_normal(10_000),
        )
        source_blocks = db.table("t").partitions[0].blocks()
        rows = write_partition(tmp_path / "p0", schema, source_blocks)
        assert rows == 10_000

        pool = BufferPool(capacity_bytes=1 << 22)
        partition = DiskPartition(schema, tmp_path / "p0", pool)
        assert partition.row_count == 10_000
        # 10k rows in 4096-row blocks -> 3 blocks; id <= 100 touches 1.
        blocks, zones = partition.zoned_blocks()
        assert len(blocks) == 3
        may_match = block_pruner(schema, [ColumnRange("id", None, 100.0)])
        surviving = [b for b, keep in zip(blocks, may_match(zones)) if keep]
        assert len(surviving) == 1
        scanned = surviving[0].to_batch(schema).column("id")
        assert scanned.max() < 4096  # only the first block was read
        partition.close()

    def test_overlay_appends_visible_before_merge(self, tmp_path):
        schema = self.schema()
        (tmp_path / "p0").mkdir()
        for position, column in enumerate(schema):
            with ColumnFileWriter(
                tmp_path / "p0" / f"c{position}_{column.name}.col",
                column.sql_type,
            ) as writer:
                writer.append_block(
                    np.arange(8, dtype=column.sql_type.numpy_dtype)
                )
        pool = BufferPool(capacity_bytes=1 << 20)
        partition = DiskPartition(schema, tmp_path / "p0", pool)
        from repro.db.vector import VectorBatch

        partition.append(
            VectorBatch(
                schema,
                [
                    np.array([100, 101], dtype=np.int64),
                    np.array([1.0, 2.0]),
                ],
            )
        )
        assert partition.row_count == 10
        ids = np.concatenate(
            [block.to_batch(schema).column("id") for block in partition.blocks()]
        )
        assert sorted(ids.tolist()) == list(range(8)) + [100, 101]
        partition.close()

    def test_memory_zone_maps_equal_reopened_footer_zone_maps(self, tmp_path):
        # One zone-map rule: NaN is left out, an all-NaN or infinite
        # block records none, integers stay exact past 2**53.
        db = repro.connect(path=str(tmp_path / "db"))
        db.execute("CREATE TABLE z (i INTEGER, f FLOAT, d DOUBLE, s VARCHAR)")
        rows = 6 * BLOCK_SIZE + 100
        d = np.arange(rows, dtype=np.float64)
        d[5] = np.nan  # block 0: some NaN
        d[BLOCK_SIZE : 2 * BLOCK_SIZE] = np.nan  # block 1: all NaN
        d[2 * BLOCK_SIZE + 7] = np.inf  # block 2: +inf
        d[3 * BLOCK_SIZE + 7] = -np.inf  # block 3: -inf
        d[4 * BLOCK_SIZE + 1 : 4 * BLOCK_SIZE + 9] = np.nan
        d[4 * BLOCK_SIZE + 9] = np.inf  # block 4: NaN and +inf
        f = d.astype(np.float32)
        i = np.arange(rows, dtype=np.int64) + 2**60 + 1
        db.table("z").append_columns(
            i=i, f=f, d=d, s=np.array(["x"] * rows, dtype=object)
        )

        def stats(database):
            return [
                [
                    None if stat is None else (stat.minimum, stat.maximum)
                    for stat in block.stats
                ]
                for block in database.table("z").partitions[0].blocks()
            ]

        memory = stats(db)
        db.close()
        reopened = repro.connect(path=str(tmp_path / "db"))
        assert reopened.table("z").disk_resident
        assert stats(reopened) == memory
        assert [block[2] for block in memory] == [
            (0.0, BLOCK_SIZE - 1.0),
            None,
            None,
            None,
            None,
            (5.0 * BLOCK_SIZE, 6.0 * BLOCK_SIZE - 1),
            (6.0 * BLOCK_SIZE, 6.0 * BLOCK_SIZE + 99),
        ]
        assert [block[3] for block in memory] == [None] * 7
        reopened.close()


def make_persistent_db(path, rows=20_000, partitions=2, parallelism=1):
    db = repro.connect(parallelism=parallelism, path=str(path))
    db.execute(
        "CREATE TABLE fact (id BIGINT, small BIGINT, f FLOAT, "
        "d DOUBLE, flag BOOLEAN, tag VARCHAR) "
        f"PARTITIONS {partitions}"
    )
    rng = np.random.default_rng(RNG_SEED)
    floats = rng.random(rows, dtype=np.float32)
    floats[::31] = np.nan
    db.table("fact").append_columns(
        id=np.arange(rows, dtype=np.int64),
        small=rng.integers(0, 16, rows, dtype=np.int64),
        f=floats,
        d=rng.standard_normal(rows),
        flag=rng.random(rows) < 0.5,
        tag=np.array([f"t{i % 11}" for i in range(rows)], dtype=object),
    )
    return db


def full_table(db, columns="id, small, f, d, flag, tag"):
    return db.execute(f"SELECT {columns} FROM fact ORDER BY id")


class TestPersistentDatabase:
    def test_random_table_reopens_bit_exact(self, tmp_path):
        db = make_persistent_db(tmp_path / "db")
        before = full_table(db)
        db.close()

        reopened = repro.connect(path=str(tmp_path / "db"))
        table = reopened.table("fact")
        assert table.disk_resident
        assert table.row_count == 20_000
        after = full_table(reopened)
        for name in before.schema.names:
            assert_bit_equal(
                np.asarray(after.column(name)),
                np.asarray(before.column(name)),
            )
        reopened.close()

    def test_zone_map_skipping_on_reopened_table(self, tmp_path):
        db = make_persistent_db(tmp_path / "db")
        db.close()
        reopened = repro.connect(path=str(tmp_path / "db"))
        result = reopened.execute(
            "SELECT id FROM fact WHERE id < 100 ORDER BY id"
        )
        assert result.column("id").tolist() == list(range(100))
        skipped = reopened.metrics.counter("storage.blocks_skipped").value
        read = reopened.metrics.counter("storage.blocks_read").value
        # 20k rows split 10k/10k across 2 partitions, 3 blocks each:
        # id < 100 lives in the first block of the first partition, so
        # 5 of the 6 blocks are skipped from footer zone maps alone.
        assert skipped == 5
        assert read == 1
        reopened.close()

    def test_projection_fetches_only_needed_column_files(self, tmp_path):
        db = make_persistent_db(tmp_path / "db")
        db.close()
        reopened = repro.connect(path=str(tmp_path / "db"))
        reopened.execute("SELECT d FROM fact ORDER BY d")
        fetched = reopened.last_profile.counters.get("scan.columns_fetched")
        assert fetched == 2  # one `d` column file per partition
        reopened.close()

    def test_appends_after_reopen_are_durable(self, tmp_path):
        db = make_persistent_db(tmp_path / "db", rows=1000)
        db.close()
        second = repro.connect(path=str(tmp_path / "db"))
        second.execute(
            "INSERT INTO fact VALUES "
            "(5000, 1, 0.5, 0.25, TRUE, 'late')"
        )
        assert second.table("fact").row_count == 1001
        second.close()
        third = repro.connect(path=str(tmp_path / "db"))
        result = third.execute(
            "SELECT id, tag FROM fact WHERE id = 5000 ORDER BY id"
        )
        assert result.column("tag").tolist() == ["late"]
        assert third.table("fact").row_count == 1001
        third.close()

    def test_checkpoint_reblocks_a_short_last_disk_block(self, tmp_path):
        # 5000 rows checkpoint as 4096 + 904; appending 5000 more and
        # checkpointing again merges the 904 with the overlay, so only
        # the partition's final block is short
        path = str(tmp_path / "db")
        db = repro.connect(path=path)
        db.execute("CREATE TABLE r (id INTEGER, v DOUBLE)")
        ids = np.arange(10_000, dtype=np.int64)
        db.table("r").append_columns(id=ids[:5000], v=ids[:5000] * 0.5)
        db.close()
        db = repro.connect(path=path)
        db.table("r").append_columns(id=ids[5000:], v=ids[5000:] * 0.5)
        want = db.execute("SELECT id, v FROM r").rows
        db.close()
        db = repro.connect(path=path)
        try:
            blocks = db.table("r").partitions[0].blocks()
            assert [block.length for block in blocks] == [4096, 4096, 1808]
            assert db.execute("SELECT id, v FROM r").rows == want
        finally:
            db.close()

    def test_close_releases_column_file_handles(self, tmp_path):
        db = make_persistent_db(tmp_path / "db")
        db.close()
        reopened = repro.connect(path=str(tmp_path / "db"))
        result = reopened.execute(
            "SELECT id, d FROM fact WHERE id IN (5, 7000) ORDER BY id"
        )
        assert result.column("id").tolist() == [5, 7000]
        handles = [
            reader._handle
            for partition in reopened.table("fact").partitions
            for reader in partition._readers
            if reader._handle is not None
        ]
        assert handles
        reopened.close()
        assert all(handle.closed for handle in handles)

    def test_superseded_and_dropped_generations_close_their_files(
        self, tmp_path
    ):
        db = make_persistent_db(tmp_path / "db", rows=1000)
        db.close()
        reopened = repro.connect(path=str(tmp_path / "db"))
        reopened.execute("CREATE TABLE other (x INTEGER)")
        reopened.execute("INSERT INTO other VALUES (1), (2)")
        reopened.close()
        third = repro.connect(path=str(tmp_path / "db"))
        full_table(third)  # opens every column file of fact
        third.execute("SELECT x FROM other")
        old = [
            reader._handle
            for table in ("fact", "other")
            for partition in third.table(table).partitions
            for reader in partition._readers
        ]
        assert all(handle is not None for handle in old)
        third.execute(
            "INSERT INTO fact VALUES (5000, 1, 0.5, 0.25, TRUE, 'x')"
        )
        third.execute("DROP TABLE other")
        third.checkpoint()  # fact rewritten, other dropped
        assert all(handle.closed for handle in old)
        third.close()

    def test_uid_floor_prevents_collisions_after_reopen(self, tmp_path):
        db = make_persistent_db(tmp_path / "db", rows=100)
        fact_uid = db.table("fact").uid
        db.close()
        reopened = repro.connect(path=str(tmp_path / "db"))
        assert reopened.table("fact").uid == fact_uid
        reopened.execute("CREATE TABLE other (x INTEGER)")
        assert reopened.table("other").uid > fact_uid
        reopened.close()

    def test_block_read_faults_are_retried_bit_exact(self, tmp_path):
        db = make_persistent_db(tmp_path / "db")
        db.close()
        reopened = repro.connect(path=str(tmp_path / "db"))
        before = full_table(reopened)
        injector = FaultInjector(seed=7)
        injector.raise_with_probability("io.block_read", 0.10)
        with faults.active(injector):
            for _ in range(3):
                # an empty pool makes the scan re-read every block
                reopened.storage.buffer_pool.clear()
                after = full_table(reopened)
                for name in before.schema.names:
                    assert_bit_equal(
                        np.asarray(after.column(name)),
                        np.asarray(before.column(name)),
                    )
        raised = injector.statistics()["io.block_read"]["raised"]
        assert raised > 0
        retries = reopened.metrics.counter("storage.read_retries").value
        assert retries == raised
        reopened.close()

    def test_buffer_pool_cap_below_table_size_still_scans(self, tmp_path):
        db = make_persistent_db(tmp_path / "db", rows=50_000)
        before = full_table(db)
        db.close()
        table_bytes = 50_000 * (8 + 8 + 4 + 8 + 1 + 8)
        cap = 256 * 1024
        assert cap < table_bytes
        reopened = repro.connect(
            path=str(tmp_path / "db"), buffer_pool_bytes=cap
        )
        after = full_table(reopened)
        assert_bit_equal(
            np.asarray(after.column("d")), np.asarray(before.column("d"))
        )
        pool = reopened.storage.buffer_pool
        assert pool.statistics.evictions > 0
        assert reopened.metrics.counter("bufferpool.evictions").value > 0
        reopened.close()


class TestCrashSafety:
    def test_crash_between_data_write_and_manifest_rename(
        self, tmp_path, monkeypatch
    ):
        root = tmp_path / "db"
        db = make_persistent_db(root, rows=1000)
        before = full_table(db)
        db.checkpoint()

        # More data arrives, then the process dies after the new
        # generation is on disk but before the manifest rename.
        db.execute(
            "INSERT INTO fact VALUES (9999, 0, 0.0, 0.0, FALSE, 'lost')"
        )
        import repro.db.storage.checkpoint as checkpoint_module

        def power_cut(src, dst):
            raise OSError("simulated crash before rename")

        with monkeypatch.context() as patch:
            patch.setattr(checkpoint_module.os, "replace", power_cut)
            with pytest.raises(OSError, match="simulated crash"):
                db.checkpoint()
        assert (root / (MANIFEST_NAME + ".tmp")).exists()

        # Reopen: the committed manifest is the truth — the torn
        # checkpoint (and its row) never happened.
        reopened = repro.connect(path=str(root))
        assert reopened.table("fact").row_count == 1000
        after = full_table(reopened)
        assert_bit_equal(
            np.asarray(after.column("id")),
            np.asarray(before.column("id")),
        )
        reopened.close()
        db.close()  # release what the dead process held open

    def test_leftover_tmp_manifest_is_ignored(self, tmp_path):
        root = tmp_path / "db"
        db = make_persistent_db(root, rows=500)
        db.close()
        (root / (MANIFEST_NAME + ".tmp")).write_text("{torn garbage")
        reopened = repro.connect(path=str(root))
        assert reopened.table("fact").row_count == 500
        reopened.close()

    def test_unsupported_format_version_rejected(self, tmp_path):
        root = tmp_path / "db"
        db = make_persistent_db(root, rows=10)
        db.close()
        manifest = load_manifest(root)
        manifest["format_version"] = 99
        import json

        (root / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ExecutionError, match="version"):
            repro.connect(path=str(root))


class TestWarmModelCache:
    def publish_and_score(self, db, model):
        publish_model(db, "clf", model)
        return db.execute(
            "SELECT id, prediction_0 FROM fact "
            "MODEL JOIN clf USING (f, f, f, f) ORDER BY id"
        )

    def test_fig8_model_survives_restart_bit_exact(self, tmp_path):
        model = make_dense_model(32, 2, input_width=4, seed=7)
        db = make_persistent_db(tmp_path / "db", rows=2_000)
        before = self.publish_and_score(db, model)
        model_rows = db.execute(
            "SELECT * FROM clf_table ORDER BY node_in, node"
        )
        db.close()

        reopened = repro.connect(path=str(tmp_path / "db"))
        assert "clf" in reopened.catalog.models
        model_rows_after = reopened.execute("SELECT * FROM clf_table ORDER BY node_in, node")
        for name in model_rows.schema.names:
            assert_bit_equal(
                np.asarray(model_rows_after.column(name)),
                np.asarray(model_rows.column(name)),
            )
        after = reopened.execute(
            "SELECT id, prediction_0 FROM fact "
            "MODEL JOIN clf USING (f, f, f, f) ORDER BY id"
        )
        assert_bit_equal(
            np.asarray(after.column("prediction_0")),
            np.asarray(before.column("prediction_0")),
        )
        reopened.close()

    def test_first_modeljoin_after_restart_is_cache_hit(self, tmp_path):
        model = make_dense_model(32, 2, input_width=4, seed=7)
        db = make_persistent_db(tmp_path / "db", rows=2_000)
        self.publish_and_score(db, model)
        db.close()

        reopened = repro.connect(path=str(tmp_path / "db"))
        reopened.execute(
            "SELECT id, prediction_0 FROM fact "
            "MODEL JOIN clf USING (f, f, f, f) ORDER BY id"
        )
        stats = reopened.model_cache.statistics()
        assert stats["hits"] >= 1
        assert stats["misses"] == 0
        reopened.close()

    def test_save_writes_only_new_builds(self, tmp_path, monkeypatch):
        import os

        db = make_persistent_db(tmp_path / "db", rows=2_000)
        self.publish_and_score(
            db, make_dense_model(32, 2, input_width=4, seed=7)
        )
        persistence = db.model_cache_persistence
        assert persistence.save() == 1
        models_dir = db.storage.models_dir

        def stats():
            return {
                path.name: (path.stat().st_ino, path.stat().st_mtime_ns)
                for path in models_dir.iterdir()
            }

        fsyncs = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            fsyncs.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        before = stats()
        assert persistence.save() == 1
        assert fsyncs == []
        assert stats() == before

        # a new build writes its own file (and the index), nothing else
        publish_model(
            db, "other", make_dense_model(16, 1, input_width=2, seed=3)
        )
        db.execute(
            "SELECT id, prediction_0 FROM fact "
            "MODEL JOIN other USING (f, d)"
        )
        assert persistence.save() == 2
        after = stats()
        (new_file,) = set(after) - set(before)
        assert new_file.startswith("model-")
        changed = {
            name for name in before if after.get(name) != before[name]
        }
        assert changed == {"INDEX.json"}
        db.close()

        reopened = repro.connect(path=str(tmp_path / "db"))
        reopened.execute(
            "SELECT id, prediction_0 FROM fact "
            "MODEL JOIN clf USING (f, f, f, f) ORDER BY id"
        )
        reopened.execute(
            "SELECT id, prediction_0 FROM fact "
            "MODEL JOIN other USING (f, d)"
        )
        stats_after = reopened.model_cache.statistics()
        assert (stats_after["hits"], stats_after["misses"]) == (2, 0)
        # the unchanged warm set is not rewritten by a later save
        fsyncs.clear()
        reopened.model_cache_persistence.save()
        assert fsyncs == []
        reopened.close()

    def test_older_warm_set_with_replicated_biases_reopens(self, tmp_path):
        # Older releases keyed entries on vector_size/replicate_bias and
        # stored each layer's replicated bias; rewrite the warm set into
        # that layout and reopen.
        import json

        model = make_dense_model(32, 2, input_width=4, seed=7)
        db = make_persistent_db(tmp_path / "db", rows=2_000)
        before = self.publish_and_score(db, model)
        models_dir = db.storage.models_dir
        db.close()

        index_path = models_dir / "INDEX.json"
        index = json.loads(index_path.read_text())
        for entry in index["entries"]:
            entry["key"].update(vector_size=1024, replicate_bias=True)
            for layer in entry["layers"]:
                layer["has_bias_matrix"] = True
            with np.load(models_dir / entry["file"]) as data:
                arrays = dict(data)
            for position in range(len(entry["layers"])):
                bias = arrays[f"l{position}_bias"]
                arrays[f"l{position}_bias_matrix"] = np.repeat(
                    bias[np.newaxis, :], 1024, axis=0
                )
            with open(models_dir / entry["file"], "wb") as handle:
                np.savez(handle, **arrays)
        index_path.write_text(json.dumps(index))

        reopened = repro.connect(path=str(tmp_path / "db"))
        after = reopened.execute(
            "SELECT id, prediction_0 FROM fact "
            "MODEL JOIN clf USING (f, f, f, f) ORDER BY id"
        )
        assert_bit_equal(
            np.asarray(after.column("prediction_0")),
            np.asarray(before.column("prediction_0")),
        )
        stats = reopened.model_cache.statistics()
        assert (stats["hits"], stats["misses"]) == (1, 0)
        (built,) = [entry for _, entry in reopened.model_cache.entries()]
        assert built.nominal_bytes() == sum(
            layer.kernel.nbytes + layer.bias.nbytes for layer in model.layers
        )
        reopened.close()
