"""Key coding, group numbering and range expansion (the join/aggregation
kernel)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.operators.keys import (
    JoinIndex,
    _int64_codes,
    equality_codes,
    group_ids,
    ranges_to_indices,
    run_starts,
    string_ranks,
)
from repro.errors import ExecutionError


def index_matches(build, probe):
    """Build rows each probe row matches through a :class:`JoinIndex`
    over *build*'s key columns, in the order the join emits them."""
    index = JoinIndex(equality_codes(build))
    matched = index.matches(equality_codes(probe))
    if matched is None:
        return [[] for _ in probe[0]]
    counts, rows = matched
    ends = np.cumsum(counts)
    return [
        rows[end - count : end].tolist() for count, end in zip(counts, ends)
    ]


class TestPackKeys:
    """Packing key columns into the join's build-side index."""

    def test_single_int_column_passthrough(self):
        values = np.array([3, -1, 7, 3], dtype=np.int64)
        index = JoinIndex([values])
        np.testing.assert_array_equal(index.dictionaries[0], [-1, 3, 7])
        assert index_matches([values], [values[:3]]) == [[0, 3], [1], [2]]

    def test_multi_column_equality_semantics(self):
        a = np.array([1, 1, 2])
        b = np.array([5, 6, 5])
        assert index_matches([a, b], [a.copy(), b.copy()]) == [[0], [1], [2]]
        assert index_matches([a, b], [np.array([2, 1]), np.array([6, 7])]) \
            == [[], []]

    def test_float_zero_normalization(self):
        values = np.array([0.0, -0.0], dtype=np.float32)
        assert index_matches([values], [values]) == [[0, 1], [0, 1]]

    def test_bool_column(self):
        values = np.array([True, False, True])
        assert index_matches([values], [values]) == [[0, 2], [1], [0, 2]]

    def test_varchar_column_indexed_by_value(self):
        strings = np.array(["b", "a", "b"], dtype=object)
        with pytest.raises(ExecutionError):
            _int64_codes(strings)
        probe = np.array(["b", "c", "a"], dtype=object)
        assert index_matches([strings], [probe]) == [[0, 2], [], [1]]

    def test_varchar_and_integer_pair(self):
        build = [np.array(["x", "y", "x"], dtype=object), np.array([1, 2, 2])]
        probe = [np.array(["x", "x", "y"], dtype=object), np.array([2, 1, 1])]
        assert index_matches(build, probe) == [[2], [0], []]

    def test_empty_key_list_rejected(self):
        with pytest.raises(ExecutionError):
            JoinIndex([])

    @settings(max_examples=50, deadline=None)
    @given(
        left=st.lists(
            st.tuples(
                st.integers(-100, 100),
                st.floats(
                    allow_nan=False, width=32, min_value=-10, max_value=10
                ),
            ),
            max_size=30,
        )
    )
    def test_packing_respects_tuple_equality(self, left):
        if not left:
            return
        ints = np.array([pair[0] for pair in left], dtype=np.int64)
        floats = np.array(
            [np.float32(pair[1]) for pair in left], dtype=np.float32
        )
        matches = index_matches([ints, floats], [ints, floats])
        for i in range(len(left)):
            assert matches[i] == [
                j for j in range(len(left))
                if ints[i] == ints[j] and floats[i] == floats[j]
            ]

    def test_codes_stay_below_build_rows(self):
        wide = np.array([INT64.min, INT64.max, 0, INT64.max], dtype=np.int64)
        floats = np.array([0.5, np.nan, -0.0, 1e300])
        columns = [wide, wide[::-1].copy(), floats]
        index = JoinIndex(equality_codes(columns))
        assert all(len(fold) <= len(wide) for fold in index.folds)
        assert index_matches(columns, columns) == [[0], [1], [2], [3]]

    def test_empty_build_side_misses(self):
        empty = np.empty(0, dtype=np.int64)
        assert index_matches([empty, empty], [np.arange(3), np.arange(3)]) \
            == [[], [], []]


INT64 = np.iinfo(np.int64)
_PAYLOAD_NANS = np.array(
    [0x7FF8000000000001, 0x7FF0000000000F00, -0x0008000000000000],
    dtype=np.int64,
).view(np.float64)
#: ties, signed zeros, infinities and NaNs with distinct bit patterns
FLOAT_POOL = np.concatenate(
    [
        [0.0, -0.0, np.inf, -np.inf, np.nan],
        _PAYLOAD_NANS,
        np.arange(-2.0, 2.5, 0.5),
    ]
)


@st.composite
def key_columns(draw):
    """1-4 key columns of 0, 1 or many rows, drawn from small pools."""
    rows = draw(st.sampled_from([0, 1]) | st.integers(2, 60))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(
            st.sampled_from(["int", "wide_int", "bool", "float64", "float32"])
        )
        if kind in ("float64", "float32"):
            picks = draw(
                st.lists(
                    st.integers(0, len(FLOAT_POOL) - 1),
                    min_size=rows,
                    max_size=rows,
                )
            )
            column = FLOAT_POOL[np.asarray(picks, dtype=np.int64)]
            with np.errstate(invalid="ignore"):  # NaN payloads to float32
                columns.append(column.astype(kind))
            continue
        if kind == "bool":
            elements = st.booleans()
        elif kind == "int":
            elements = st.integers(-3, 3)
        else:  # extremes force the lexsort fallback
            elements = st.sampled_from(
                [INT64.min, INT64.min + 1, -1, 0, INT64.max]
            ) | st.integers(INT64.min, INT64.max)
        values = draw(st.lists(elements, min_size=rows, max_size=rows))
        dtype = np.bool_ if kind == "bool" else np.int64
        columns.append(np.asarray(values, dtype=dtype))
    return columns


def group_order(columns):
    """``(order, starts)`` of :func:`group_ids`' numbering: the rows
    stably sorted by group id, and where each group begins — checking
    that the ids are dense and that ``firsts`` and ``sizes`` are the
    groups' first rows and row counts."""
    ids, firsts, sizes = group_ids(columns)
    assert ids.dtype == firsts.dtype == sizes.dtype == np.int64
    order = np.argsort(ids, kind="stable")
    starts = np.searchsorted(ids[order], np.arange(len(firsts)))
    np.testing.assert_array_equal(ids[order][starts], np.arange(len(firsts)))
    np.testing.assert_array_equal(order[starts], firsts)
    np.testing.assert_array_equal(sizes, np.diff(np.append(starts, len(ids))))
    return order, starts


def lexsort_oracle(columns):
    """Stable lexsort over the int64 codes; starts where a code changes."""
    codes = [_int64_codes(column) for column in columns]
    order = np.lexsort(codes[::-1])
    rows = len(order)
    new_group = np.zeros(rows, dtype=np.bool_)
    if rows:
        new_group[0] = True
    for column in codes:
        ordered = column[order]
        new_group[1:] |= ordered[1:] != ordered[:-1]
    return order, np.flatnonzero(new_group)


class TestGroupOrder:
    @settings(max_examples=300, deadline=None)
    @given(columns=key_columns())
    def test_matches_lexsort_over_codes(self, columns):
        order, starts = group_order(columns)
        want_order, want_starts = lexsort_oracle(columns)
        np.testing.assert_array_equal(order, want_order)
        np.testing.assert_array_equal(starts, want_starts)

    def test_small_ranges_sort_one_composite(self, monkeypatch):
        def no_lexsort(_keys):
            raise AssertionError("composite key expected")

        monkeypatch.setattr(np, "lexsort", no_lexsort)
        order, starts = group_order(
            [np.array([2, 1, 2, 1]), np.array([0.5, 0.5, 0.75, 0.5])]
        )
        assert order.tolist() == [1, 3, 0, 2]
        assert starts.tolist() == [0, 2, 3]

    def test_wide_ranges_fall_back_to_lexsort(self):
        wide = np.array([INT64.max, INT64.min, INT64.max, 0])
        order, starts = group_order([wide, np.array([1, 1, 0, 1])])
        assert order.tolist() == [1, 3, 2, 0]
        assert starts.tolist() == [0, 1, 2, 3]

    def test_varchar_ranks_order_like_the_strings(self):
        names = np.array(["pear", "apple", "pear", "fig"], dtype=object)
        order, starts = group_order([names, np.array([1, 1, 1, 1])])
        assert names[order].tolist() == ["apple", "fig", "pear", "pear"]
        assert order.tolist() == [1, 3, 0, 2]
        assert starts.tolist() == [0, 1, 2]

    def test_nan_groups_by_bit_pattern_next_to_varchar(self):
        names = np.array(["a", "a", "a", "a"], dtype=object)
        floats = np.array([np.nan, _PAYLOAD_NANS[0], np.nan, 1.0])
        order, starts = group_order([names, floats])
        groups = np.split(order, starts[1:])
        assert sorted(map(list, groups)) == [[0, 2], [1], [3]]

    def test_empty_key_list_rejected(self):
        with pytest.raises(ExecutionError):
            group_ids([])


#: strings that stress the ranking: empty, non-ASCII, shared prefixes
_RANKED_TEXT = st.one_of(
    st.sampled_from(["", "a", "ab", "abc", "abd", "b", "é", "éa", "Z", "ß"]),
    st.text(max_size=6),
)


class TestStringRanks:
    """:func:`string_ranks` numbers like ``np.unique``'s inverse."""

    @staticmethod
    def assert_unique_ranks(strings):
        values = np.array(strings, dtype=object)
        _, inverse = np.unique(values, return_inverse=True)
        ranks = string_ranks(values)
        assert ranks.dtype == np.int64
        np.testing.assert_array_equal(ranks, inverse)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_RANKED_TEXT, max_size=60))
    def test_matches_np_unique(self, strings):
        self.assert_unique_ranks(strings)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_RANKED_TEXT, min_size=1, max_size=40, unique=True))
    def test_all_values_distinct(self, strings):
        self.assert_unique_ranks(strings)

    @settings(max_examples=50, deadline=None)
    @given(_RANKED_TEXT, st.integers(1, 50))
    def test_one_distinct_value(self, value, rows):
        self.assert_unique_ranks([value] * rows)

    @pytest.mark.parametrize(
        "strings", [[], ["only"], [""], ["é"]], ids=repr
    )
    def test_empty_and_one_row(self, strings):
        self.assert_unique_ranks(strings)


def composite_sort_reference(columns):
    """Grouping before it counted small domains: every composite
    that fits is tagged with its row index and sorted, the rest
    lexsorted."""
    codes = [
        string_ranks(column) if column.dtype == object
        else _int64_codes(column)
        for column in columns
    ]
    rows = len(codes[0])
    if rows == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    lows = [int(column.min()) for column in codes]
    spans = [int(column.max()) - low + 1 for column, low in zip(codes, lows)]
    if rows * int(np.prod(spans, dtype=object)) < 1 << 62:
        composite = codes[0] - lows[0]
        for column, low, span in zip(codes[1:], lows[1:], spans[1:]):
            composite *= span
            composite += column - low
        tagged = composite * rows + np.arange(rows, dtype=np.int64)
        tagged.sort()
        return tagged % rows, run_starts([tagged // rows])
    order = np.lexsort(codes[::-1])
    return order, run_starts([column[order] for column in codes])


FLOAT_PAIRS = [
    (0.0, -0.0),
    (np.nan, np.nan),
    (1.5, np.nextafter(1.5, 2.0)),
    tuple(np.array([0x7FF8000000000000, 0x7FF8000000000001]).view(np.float64)),
    (-0.0, np.nextafter(0.0, 1.0)),
]

#: composite domains around the uint8 / uint16 / dense-limit edges
DOMAINS = [
    (1,), (255,), (256,), (257,), (65535,), (65536,), (65537,),
    (3, 85), (16, 16), (2, 2, 64), (255, 257), (256, 256), (257, 255),
]


@st.composite
def dense_key_columns(draw):
    """Key columns whose codes span a drawn composite domain exactly
    (when there are at least two rows), of int / negative int / bool /
    VARCHAR / float kind, at fewer, as many or more rows than values."""
    spans = draw(st.sampled_from(DOMAINS))
    domain = int(np.prod(spans))
    rows = draw(
        st.sampled_from([0, 1, 2, domain - 1, domain, domain + 1])
        | st.integers(2, domain + min(2 * domain, 4096))
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for span in spans:
        codes = rng.integers(0, span, rows)
        codes[: min(rows, 2)] = [0, span - 1][: min(rows, 2)]
        kind = draw(st.sampled_from(["int", "negative", "bool", "varchar",
                                     "float"]))
        if kind == "bool" and span <= 2:
            columns.append(codes.astype(np.bool_))
        elif kind == "varchar":
            columns.append(np.array([f"k{c:05d}" for c in codes], dtype=object))
        elif kind == "float" and span <= 2:
            # -0.0 and 0.0 are one code, a NaN is one bit pattern, and
            # adjacent floats (or NaN payloads) are a domain of two
            pool = draw(st.sampled_from(FLOAT_PAIRS))
            columns.append(np.where(codes == 0, pool[0], pool[1]))
        else:
            low = -span - 7 if kind == "negative" else 11
            columns.append(codes.astype(np.int64) + low)
    return columns


class TestDenseGroupOrder:
    @settings(max_examples=150, deadline=None)
    @given(columns=dense_key_columns())
    def test_matches_composite_sort(self, columns):
        order, starts = group_order(columns)
        want_order, want_starts = composite_sort_reference(columns)
        assert order.dtype == want_order.dtype == np.int64
        assert starts.dtype == want_starts.dtype
        np.testing.assert_array_equal(order, want_order)
        np.testing.assert_array_equal(starts, want_starts)

    @settings(max_examples=100, deadline=None)
    @given(columns=key_columns())
    def test_mixed_pools_match_composite_sort(self, columns):
        order, starts = group_order(columns)
        want_order, want_starts = composite_sort_reference(columns)
        np.testing.assert_array_equal(order, want_order)
        np.testing.assert_array_equal(starts, want_starts)

    @pytest.mark.parametrize(
        "rows, domain, counted",
        [(300, 256, True), (300, 257, True), (300, 299, True),
         (300, 301, True), (300, 65536, True), (300, 65537, False),
         (70000, 65536, True), (70000, 65537, True), (70000, 70000, True),
         (70000, 70001, False)],
    )
    def test_counts_only_small_domains(self, monkeypatch, rows, domain,
                                       counted):
        calls = []
        real = np.bincount
        monkeypatch.setattr(
            np, "bincount", lambda *a, **k: calls.append(1) or real(*a, **k)
        )
        keys = np.arange(rows) % domain
        keys[-1] = domain - 1
        order, starts = group_order([keys])
        assert bool(calls) is counted
        want_order, want_starts = composite_sort_reference([keys])
        np.testing.assert_array_equal(order, want_order)
        np.testing.assert_array_equal(starts, want_starts)


class TestRangesToIndices:
    def test_basic_expansion(self):
        starts = np.array([10, 0, 5], dtype=np.int64)
        counts = np.array([2, 0, 3], dtype=np.int64)
        flat = ranges_to_indices(starts, counts)
        assert flat.tolist() == [10, 11, 5, 6, 7]

    def test_all_empty(self):
        flat = ranges_to_indices(
            np.array([1, 2], dtype=np.int64),
            np.array([0, 0], dtype=np.int64),
        )
        assert flat.tolist() == []

    @settings(max_examples=50, deadline=None)
    @given(
        ranges=st.lists(
            st.tuples(
                st.integers(0, 50),
                st.integers(0, 6),
            ),
            max_size=25,
        )
    )
    def test_matches_python_loops(self, ranges):
        starts = np.array([start for start, _ in ranges], dtype=np.int64)
        counts = np.array([count for _, count in ranges], dtype=np.int64)
        expected = [
            start + offset
            for start, count in ranges
            for offset in range(count)
        ]
        assert ranges_to_indices(starts, counts).tolist() == expected
