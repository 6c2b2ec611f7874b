"""Zone-map search on a ``SORTED BY`` key keeps exactly the masked blocks.

With the table's sort key, :func:`repro.db.column.block_pruner` finds the
blocks of a range on the key's leading column by binary search over the
partition's (ascending) zone maps and masks the other ranges over those
blocks only.  The kept blocks must be the ones the plain mask keeps, for
duplicate keys spanning blocks, ``IN`` lists, open, empty and inverted
ranges, and partitions with a NaN or missing zone map, where the search
falls back to the mask.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.column import ColumnRange, ZoneMaps, block_pruner
from repro.db.engine import Database
from repro.db.planner import PlannerOptions
from repro.db.schema import Column, Schema
from repro.db.types import SqlType

SCHEMA = Schema(
    (Column("k", SqlType.INTEGER), Column("x", SqlType.DOUBLE))
)

bound = st.none() | st.integers(-5, 60)


@st.composite
def sorted_zone_maps(draw):
    """Blocks of an ascending key (duplicates may span blocks), some
    with a NaN or missing zone map, and a second unordered column."""
    keys = sorted(draw(st.lists(st.integers(0, 50), max_size=60)))
    sizes = draw(st.lists(st.integers(1, 6), max_size=20))
    low, high, rows, start = [], [], [], 0
    for size in sizes:
        block = keys[start:start + size]
        if not block:
            break
        start += size
        x_low = draw(st.floats(-10, 10))
        x_high = x_low + draw(st.floats(0, 5))
        low.append([block[0], x_low])
        high.append([block[-1], x_high])
        rows.append(len(block))
    low = np.array(low, dtype=np.float64).reshape(-1, 2)
    high = np.array(high, dtype=np.float64).reshape(-1, 2)
    if len(rows) and draw(st.booleans()):
        # a block without a zone map (None stat) or a NaN-poisoned one
        index = draw(st.integers(0, len(rows) - 1))
        column = draw(st.sampled_from([0, 1]))
        low[index, column] = math.nan
        if draw(st.booleans()):
            high[index, column] = math.nan
    return ZoneMaps(low, high, np.array(rows, dtype=np.int64))


@st.composite
def key_ranges(draw):
    ranges = []
    if draw(st.booleans()):
        points = draw(st.lists(st.integers(-5, 60), max_size=5))
        ranges.append(ColumnRange.of_points("k", points))
    else:
        ranges.append(ColumnRange("k", draw(bound), draw(bound)))
    if draw(st.booleans()):
        x_low = draw(st.none() | st.floats(-12, 12))
        x_high = draw(st.none() | st.floats(-12, 12))
        ranges.append(ColumnRange("x", x_low, x_high))
    if draw(st.booleans()):
        ranges.reverse()
    return ranges


@settings(max_examples=600, deadline=None)
@given(zones=sorted_zone_maps(), ranges=key_ranges())
def test_search_keeps_the_masked_blocks(zones, ranges):
    masked = block_pruner(SCHEMA, ranges)(zones)
    searched = block_pruner(SCHEMA, ranges, ("k", "x"))(zones)
    assert searched.tolist() == masked.tolist()
    # memoized bounds answer a second time alike
    assert block_pruner(SCHEMA, ranges, ("k",))(zones).tolist() == (
        masked.tolist()
    )


def test_a_range_off_the_leading_key_keeps_the_mask():
    zones = ZoneMaps(
        np.array([[0.0, 5.0], [10.0, 1.0]]),
        np.array([[9.0, 6.0], [19.0, 2.0]]),
        np.array([10, 10]),
    )
    ranges = [ColumnRange("x", 1.5, 2.5)]
    assert block_pruner(SCHEMA, ranges, ("k",))(zones).tolist() == [
        False,
        True,
    ]
    assert zones.bounds(0) == ([0.0, 10.0], [9.0, 19.0])


def test_a_nan_bound_falls_back_to_the_mask():
    zones = ZoneMaps(
        np.array([[0.0, 0.0], [10.0, 0.0]]),
        np.array([[9.0, 1.0], [19.0, 1.0]]),
        np.array([10, 10]),
    )
    for ranges in (
        [ColumnRange("k", math.nan, None)],
        [ColumnRange("k", None, math.nan)],
        [ColumnRange("k", 0.0, 12.0, (0.0, math.nan, 12.0))],
    ):
        assert block_pruner(SCHEMA, ranges, ("k",))(zones).tolist() == (
            block_pruner(SCHEMA, ranges)(zones).tolist()
        )


def test_sorted_table_scans_only_the_searched_blocks():
    """A ``SORTED BY`` table: the same rows and block counts with the
    search as with pruning off, and only the blocks holding the keys."""
    db = Database(vector_size=64)
    db.execute("CREATE TABLE s (id INTEGER, v DOUBLE) SORTED BY (id)")
    ids = np.repeat(np.arange(3000, dtype=np.int64), 7)  # duplicates
    db.table("s").append_columns(id=ids, v=ids * 0.5)
    statements = (
        "SELECT id, v FROM s WHERE id = 1234",
        "SELECT id, v FROM s WHERE id IN (5, 1170, 2999, 4000)",
        "SELECT id, v FROM s WHERE id >= 2990",
        "SELECT id, v FROM s WHERE id < 3 AND v > 0.25",
        "SELECT id, v FROM s WHERE id BETWEEN 585 AND 586",
    )
    pruned = {}
    for sql in statements:
        result = db.execute(sql)
        pruned[sql] = result.profile.counters.snapshot().get(
            "scan.blocks_skipped", 0
        )
        db.planner_options = PlannerOptions(use_block_pruning=False)
        assert db.execute(sql).rows == result.rows
        db.planner_options = PlannerOptions()
    blocks = len(db.table("s").partitions[0].zoned_blocks()[0])
    # each point's rows sit in one block, or two where they straddle
    assert pruned[statements[0]] == blocks - 1
    assert pruned[statements[1]] == blocks - 4  # 1170 straddles two
    db.close()
