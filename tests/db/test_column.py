from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.column import (
    Block,
    BlockBuilder,
    ColumnRange,
    MinMax,
    ZoneMaps,
    block_pruner,
)
from repro.db.schema import Schema
from repro.db.types import SqlType
from repro.db.vector import VectorBatch


@pytest.fixture
def schema() -> Schema:
    return Schema.of(("k", SqlType.INTEGER), ("v", SqlType.FLOAT))


def make_batch(schema, keys):
    keys = np.asarray(keys, dtype=np.int64)
    return VectorBatch.from_dict(
        schema, {"k": keys, "v": keys.astype(np.float32) / 2}
    )


class TestMinMax:
    def test_overlapping_range(self):
        stat = MinMax(5.0, 10.0)
        assert stat.may_contain_range(7, 8)
        assert stat.may_contain_range(None, 5)
        assert stat.may_contain_range(10, None)

    def test_disjoint_ranges(self):
        stat = MinMax(5.0, 10.0)
        assert not stat.may_contain_range(11, None)
        assert not stat.may_contain_range(None, 4)


class TestColumnRange:
    def test_intersect(self):
        merged = ColumnRange("x", 1, 10).intersect(ColumnRange("x", 5, None))
        assert (merged.low, merged.high) == (5, 10)

    def test_intersect_different_columns_rejected(self):
        from repro.errors import ExecutionError

        with pytest.raises(ExecutionError):
            ColumnRange("x", 1, 2).intersect(ColumnRange("y", 1, 2))

    def test_point_union_is_sorted_and_hulled(self):
        union = ColumnRange.of_points("x", (42.0, 5.0, 9000.0, 5.0))
        assert union.points == (5.0, 42.0, 9000.0)
        assert (union.low, union.high) == (5.0, 9000.0)
        assert str(union) == "x in {5, 42, 9000}"
        assert str(ColumnRange.of_points("x", (-0.5, float("inf")))) == (
            "x in {-0.5, inf}"
        )

    def test_point_union_matches_only_blocks_holding_a_point(self):
        union = ColumnRange.of_points("x", (5.0, 42.0, 9000.0))
        assert union.may_match(MinMax(0.0, 10.0))
        assert union.may_match(MinMax(42.0, 42.0))
        assert not union.may_match(MinMax(6.0, 41.0))  # inside the hull
        assert not union.may_match(MinMax(9001.0, 1e9))
        assert union.may_match(None)
        assert union.may_match(MinMax(float("nan"), float("nan")))
        assert not ColumnRange.of_points("x", ()).may_match(MinMax(0, 9))

    def test_intersect_with_point_unions(self):
        union = ColumnRange.of_points("x", (1.0, 5.0, 9.0))
        assert union.intersect(ColumnRange("x", 2, None)).points == (5.0, 9.0)
        assert ColumnRange("x", None, 5).intersect(union).points == (1.0, 5.0)
        other = ColumnRange.of_points("x", (5.0, 9.0, 11.0))
        both = union.intersect(other)
        assert both.points == (5.0, 9.0)
        assert (both.low, both.high) == (5.0, 9.0)
        assert union.intersect(ColumnRange("x", 10, 20)).points == ()


#: zone-map bounds: ordinary, equal, infinite and NaN values
_BOUNDS = st.one_of(
    st.integers(-6, 6).map(float),
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
)
#: a block's stat of one column: none, ordered, reversed or NaN-poisoned
_STATS = st.one_of(
    st.none(), st.builds(MinMax, _BOUNDS, _BOUNDS)
)
_POINTS = st.lists(
    st.one_of(st.integers(-7, 7).map(float), st.just(float("inf"))),
    max_size=4,
)
_RANGES = st.one_of(
    st.builds(
        ColumnRange,
        st.sampled_from(["k", "v"]),
        st.one_of(st.none(), _BOUNDS),
        st.one_of(st.none(), _BOUNDS),
    ),
    st.builds(ColumnRange.of_points, st.sampled_from(["k", "v"]), _POINTS),
)


@settings(max_examples=300, deadline=None)
@given(
    blocks=st.lists(st.tuples(_STATS, _STATS), max_size=6),
    ranges=st.lists(_RANGES, min_size=1, max_size=3),
)
def test_array_pruner_answers_like_may_match(blocks, ranges):
    """The vectorised pruner over zone-map arrays keeps exactly the
    blocks for which every range's may_match (the oracle) holds —
    None, NaN-poisoned and reversed stats, empty point unions included."""
    schema = Schema.of(("k", SqlType.INTEGER), ("v", SqlType.FLOAT))
    zones = ZoneMaps.of(
        [SimpleNamespace(stats=list(stats), length=1) for stats in blocks],
        len(schema),
    )
    keep = block_pruner(schema, ranges)(zones)
    positions = {"k": 0, "v": 1}
    want = [
        all(r.may_match(stats[positions[r.column]]) for r in ranges)
        for stats in blocks
    ]
    assert keep.tolist() == want


class TestBlock:
    def test_stats_computed_for_numeric(self, schema):
        block = Block(
            schema, [np.array([3, 1, 2]), np.zeros(3, dtype=np.float32)]
        )
        assert block.stats[0] == MinMax(1.0, 3.0)

    def test_may_match_uses_stats(self, schema):
        block = Block(
            schema,
            [np.array([10, 20]), np.zeros(2, dtype=np.float32)],
        )
        zones = ZoneMaps.of([block], len(schema))
        assert block_pruner(schema, [ColumnRange("k", 15, 25)])(zones)[0]
        assert not block_pruner(schema, [ColumnRange("k", 21, None)])(
            zones
        )[0]

    def test_may_match_ignores_unknown_columns(self, schema):
        # no predicate applies, so there is no pruner: nothing is skipped
        assert block_pruner(schema, [ColumnRange("zzz", 5, 6)]) is None
        may_match = block_pruner(
            schema, [ColumnRange("zzz", 5, 6), ColumnRange("k", 0, 2)]
        )
        block = Block(
            schema, [np.array([1]), np.zeros(1, dtype=np.float32)]
        )
        assert may_match(ZoneMaps.of([block], len(schema)))[0]

    def test_nan_is_left_out_and_inf_records_no_zone_map(self):
        schema = Schema.of(("f", SqlType.DOUBLE))
        nan, inf = float("nan"), float("inf")
        stats = [
            Block(schema, [np.array(values)]).stats[0]
            for values in ([3.0, nan, -1.0], [nan, nan], [1.0, inf])
        ]
        assert stats == [MinMax(-1.0, 3.0), None, None]

    def test_varchar_has_no_stats(self):
        schema = Schema.of(("s", SqlType.VARCHAR))
        block = Block(schema, [np.array(["a", "b"], dtype=object)])
        assert block.stats == [None]


class TestBlockBuilder:
    def test_seals_full_blocks(self, schema):
        builder = BlockBuilder(schema, block_size=4)
        builder.append(make_batch(schema, range(10)))
        blocks = builder.all_blocks()
        assert [block.length for block in blocks] == [4, 4, 2]
        assert builder.row_count == 10

    def test_appends_accumulate_across_calls(self, schema):
        builder = BlockBuilder(schema, block_size=4)
        for start in range(0, 6, 2):
            builder.append(make_batch(schema, range(start, start + 2)))
        blocks = builder.all_blocks()
        assert [block.length for block in blocks] == [4, 2]
        first = blocks[0].arrays[0].tolist()
        assert first == [0, 1, 2, 3]

    def test_empty_append_ignored(self, schema):
        builder = BlockBuilder(schema, block_size=4)
        builder.append(make_batch(schema, []))
        assert builder.all_blocks() == []

    def test_reads_do_not_seal_the_tail(self, schema):
        builder = BlockBuilder(schema, block_size=4)
        seen = []
        for key in range(6):
            builder.append(make_batch(schema, [key]))
            seen.append([block.length for block in builder.all_blocks()])
        assert seen == [[1], [2], [3], [4], [4, 1], [4, 2]]
        assert builder.all_blocks()[1].arrays[0].tolist() == [4, 5]

    def test_stats_per_block(self, schema):
        builder = BlockBuilder(schema, block_size=3)
        builder.append(make_batch(schema, [5, 1, 9, 100, 50, 60]))
        blocks = builder.all_blocks()
        assert blocks[0].stats[0] == MinMax(1.0, 9.0)
        assert blocks[1].stats[0] == MinMax(50.0, 100.0)


class TestBlockBuilderConcurrency:
    def test_concurrent_first_scan_seals_once(self, schema):
        """Regression: broadcast tables are scanned by all partition
        pipelines at once; racing first reads must build one tail block
        from the pending rows (sealing used to pop from an empty list)."""
        import threading

        from repro.db.table import Table

        for _ in range(20):
            table = Table("t", schema, block_size=1 << 20)
            table.append_columns(
                k=np.arange(1000, dtype=np.int64),
                v=np.zeros(1000, dtype=np.float32),
            )
            counts = []
            errors = []

            def scan():
                try:
                    counts.append(
                        sum(len(batch) for batch in table.scan())
                    )
                except Exception as error:  # noqa: BLE001
                    errors.append(error)

            threads = [threading.Thread(target=scan) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            assert counts == [1000] * 4
            blocks = table.partitions[0].blocks()
            assert [block.length for block in blocks] == [1000]
