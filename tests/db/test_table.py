import math

import numpy as np
import pytest

import repro
from repro.db.column import BLOCK_SIZE, ColumnRange
from repro.db.operators import ExecutionContext, TableScan
from repro.db.schema import Schema
from repro.db.serve import Server
from repro.db.table import Table
from repro.db.types import SqlType
from repro.errors import DatabaseError

# runs again under `python -X dev` with ResourceWarnings as errors
pytestmark = pytest.mark.leak_guard


@pytest.fixture
def schema() -> Schema:
    return Schema.of(("id", SqlType.INTEGER), ("v", SqlType.FLOAT))


def fill(table: Table, n: int) -> None:
    table.append_columns(
        id=np.arange(n, dtype=np.int64),
        v=np.arange(n, dtype=np.float32),
    )


class TestBasics:
    def test_row_count(self, schema):
        table = Table("t", schema)
        fill(table, 10)
        assert table.row_count == 10

    def test_append_rows(self, schema):
        table = Table("t", schema)
        table.append_rows([(1, 2.0), (2, 4.0)])
        rows = [row for batch in table.scan() for row in batch.to_rows()]
        assert rows == [(1, 2.0), (2, 4.0)]

    def test_invalid_partition_count(self, schema):
        with pytest.raises(DatabaseError):
            Table("t", schema, num_partitions=0)

    def test_unknown_partition_key(self, schema):
        from repro.errors import BindError

        with pytest.raises(BindError):
            Table("t", schema, partition_key="nope")

    def test_nominal_bytes_grows(self, schema):
        table = Table("t", schema)
        before = table.nominal_bytes()
        fill(table, 100)
        assert table.nominal_bytes() > before


class TestPartitioning:
    def test_hash_partitioning_covers_all_rows(self, schema):
        table = Table("t", schema, num_partitions=4, partition_key="id")
        fill(table, 1000)
        assert (
            sum(partition.row_count for partition in table.partitions)
            == 1000
        )
        # Unique key => reasonably balanced partitions.
        counts = [partition.row_count for partition in table.partitions]
        assert min(counts) > 0

    def test_hash_routing_is_deterministic(self, schema):
        table = Table("t", schema, num_partitions=3, partition_key="id")
        fill(table, 30)
        for index in range(table.num_partitions):
            for batch in table.scan(index):
                assert (batch.column("id") % 3 == index).all()

    def test_round_robin_without_key(self, schema):
        table = Table("t", schema, num_partitions=3)
        fill(table, 10)
        counts = [partition.row_count for partition in table.partitions]
        assert sorted(counts) == [3, 3, 4]

    def test_partition_preserves_relative_order(self, schema):
        table = Table(
            "t",
            schema,
            num_partitions=4,
            partition_key="id",
            sort_key=("id",),
        )
        fill(table, 500)
        for index in range(table.num_partitions):
            ids = np.concatenate(
                [batch.column("id") for batch in table.scan(index)]
            )
            assert (np.diff(ids) > 0).all()

    def test_round_robin_sorted_loads_in_order(self, schema):
        table = Table("t", schema, num_partitions=3, sort_key=("id",))
        for start in range(0, 100, 25):
            table.append_columns(
                id=np.arange(start, start + 25, dtype=np.int64),
                v=np.zeros(25, dtype=np.float32),
            )
        assert table.row_count == 100

    def test_scan_partition_out_of_range(self, schema):
        from repro.errors import ExecutionError

        table = Table("t", schema, num_partitions=2)
        with pytest.raises(ExecutionError):
            list(table.scan(5))


class TestSortKeyContract:
    """A sort key is checked on every append: each partition's rows
    must arrive in ORDER BY order (NaN last), after its last row."""

    def test_unsorted_insert_is_rejected(self):
        db = repro.connect()
        db.execute("CREATE TABLE t (g INTEGER, v INTEGER) SORTED BY (g)")
        with pytest.raises(DatabaseError, match=r"'t' is SORTED BY \(g\)"):
            db.execute("INSERT INTO t VALUES (2, 1), (1, 1), (2, 1)")
        table = db.table("t")
        assert table.row_count == 0 and table.version == 0
        db.close()

    def test_append_must_follow_the_last_row(self, schema):
        table = Table("t", schema, sort_key=("id",), block_size=4)
        table.append_rows([(1, 0.0), (5, 0.0), (5, 1.0)])
        with pytest.raises(DatabaseError, match="SORTED BY"):
            table.append_rows([(4, 0.0)])
        table.append_rows([(5, 2.0), (9, 0.0)])  # ties are in order
        assert table.row_count == 5

    def test_nan_sorts_last(self, schema):
        table = Table("t", schema, sort_key=("v", "id"))
        table.append_rows([(3, -1.0), (1, 2.0), (0, math.nan)])
        table.append_rows([(2, math.nan)])
        with pytest.raises(DatabaseError):
            table.append_rows([(1, math.nan)])  # id breaks the NaN tie
        with pytest.raises(DatabaseError):
            table.append_rows([(9, 7.0)])
        assert table.row_count == 4

    def test_partitions_are_checked_separately(self, schema):
        table = Table(
            "t",
            schema,
            num_partitions=2,
            partition_key="id",
            sort_key=("v",),
        )
        # partition 0 gets v 1, 2; partition 1 gets v 0, 5
        table.append_rows([(0, 1.0), (1, 0.0), (2, 2.0), (3, 5.0)])
        table.append_rows([(4, 3.0)])
        with pytest.raises(DatabaseError):
            table.append_rows([(5, 4.0)])

    def test_checked_after_reopen(self, tmp_path):
        db = repro.connect(path=str(tmp_path / "db"))
        db.execute("CREATE TABLE s (k VARCHAR, v INTEGER) SORTED BY (k)")
        db.execute("INSERT INTO s VALUES ('a', 1), ('m', 2)")
        db.checkpoint()
        db.close()
        reopened = repro.connect(path=str(tmp_path / "db"))
        with pytest.raises(DatabaseError, match="SORTED BY"):
            reopened.execute("INSERT INTO s VALUES ('b', 3)")
        reopened.execute("INSERT INTO s VALUES ('m', 3), ('z', 4)")
        assert reopened.table("s").row_count == 4
        reopened.close()


def pruned_scan(table: Table, low, high) -> list:
    scan = TableScan(
        ExecutionContext(), table, ranges=[ColumnRange("id", low, high)]
    )
    return list(scan.batches())


class TestScan:
    def test_scan_yields_one_batch_per_block(self, schema):
        table = Table("t", schema, num_partitions=2, block_size=64)
        fill(table, 300)
        assert [len(batch) for batch in table.scan()] == [64, 64, 22] * 2
        assert [len(batch) for batch in table.scan(1)] == [64, 64, 22]

    def test_scan_with_pruning_skips_blocks(self, schema):
        table = Table("t", schema, block_size=10)
        fill(table, 100)
        total = sum(len(batch) for batch in pruned_scan(table, 95, None))
        # Only the last block (ids 90..99) survives pruning.
        assert total == 10

    def test_pruning_never_loses_matching_rows(self, schema):
        table = Table("t", schema, block_size=7)
        fill(table, 100)
        batches = pruned_scan(table, 50, 60)
        ids = np.concatenate([batch.column("id") for batch in batches])
        assert set(range(50, 61)) <= set(ids.tolist())


def assert_unfragmented(table) -> None:
    """Only the last block of a partition may be short."""
    for partition in table.partitions:
        blocks = partition.blocks()
        assert len(blocks) <= math.ceil(partition.row_count / BLOCK_SIZE)
        assert all(block.length == BLOCK_SIZE for block in blocks[:-1])


class TestReadsDoNotFragment:
    """Reads see the rows not yet sealed as one tail block and never
    seal it, so interleaving inserts with reads keeps full blocks."""

    PAIRS = 40

    def load(self, database, rows=2 * 5000):
        database.execute(
            "CREATE TABLE t (id INTEGER, v DOUBLE) "
            "PARTITION BY (id) PARTITIONS 2"
        )
        database.table("t").append_columns(
            id=np.arange(rows, dtype=np.int64),
            v=np.arange(rows, dtype=np.float64),
        )
        return rows

    def test_direct_and_served_reads(self):
        database = repro.connect()
        key = self.load(database)
        for _ in range(self.PAIRS):
            database.execute(f"INSERT INTO t VALUES ({key}, 0.5)")
            sql = f"SELECT id FROM t WHERE id = {key}"
            assert database.execute(sql).column("id").tolist() == [key]
            key += 1
        assert_unfragmented(database.table("t"))
        with Server(database, dispatchers=1) as server:
            with server.open_session() as session:
                for _ in range(self.PAIRS):
                    session.execute(f"INSERT INTO t VALUES ({key}, 0.5)")
                    sql = f"SELECT id FROM t WHERE id = {key}"
                    result = session.execute(sql)
                    assert result.column("id").tolist() == [key]
                    key += 1
        table = database.table("t")
        assert table.row_count == key
        assert_unfragmented(table)
        database.close()

    def test_disk_overlay_reads(self, tmp_path):
        database = repro.connect(path=str(tmp_path / "db"))
        key = self.load(database)
        database.close()
        database = repro.connect(path=str(tmp_path / "db"))
        for _ in range(self.PAIRS):
            database.execute(f"INSERT INTO t VALUES ({key}, 0.5)")
            sql = f"SELECT id FROM t WHERE id = {key}"
            assert database.execute(sql).column("id").tolist() == [key]
            key += 1
        for partition in database.table("t").partitions:
            overlay = partition.overlay_blocks()
            rows = sum(block.length for block in overlay)
            assert len(overlay) <= math.ceil(rows / BLOCK_SIZE)
        database.close()
