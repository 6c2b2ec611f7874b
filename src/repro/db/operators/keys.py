"""Key coding shared by joins, aggregations and sorts.

Every numeric key column is coded as int64 (:func:`_int64_codes`).  The
coding is value-deterministic (bit patterns, not factorization), so two
relations coded independently compare equal.  The hash join indexes
its build side once (:class:`JoinIndex`): the sorted distinct codes of
each key column (VARCHAR: values) are its dictionary, and a row's
ranks in them fold into one dense code; a probe row is coded through
the same dictionaries, and a value the build side lacks is a miss.
When every key has the same number of build rows (a dense layer's
weights per input node), a probe batch's matches are one 2-D lookup.

Grouping numbers rows, it does not order them (:func:`group_ids`): each
row gets a dense group id, groups numbered in ascending key-code order.
When the codes' mixed-radix composite domain is small (at most 2^16
values, or no more than the rows) a row's id is the rank of its
composite among the values present — a counting pass, no sort.  A
wider composite is sorted with plain ``ndarray.sort``, and the code
columns are lexsorted when the composite would overflow.  Float or
VARCHAR keys that follow the integer keys and are constant within the
integer keys' groups number nothing on their own.  VARCHAR columns join
the codes as their ``np.unique`` ranks, which order like the strings
themselves.  A groupjoin's index pairs are numbered from the group ids
of each join side's rows (:func:`pair_groups`), in the same order.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from repro.errors import ExecutionError

#: ``rows × Π(max − min + 1)`` must stay below this for the composite
#: key (including its row-index tiebreak) to fit a signed int64
_COMPOSITE_LIMIT = 1 << 62
#: composite domains up to this size (or up to the row count) are
#: numbered by counting, not by sorting
_DENSE_LIMIT = 1 << 16
#: pairs folded per slice: its temporaries stay cache-sized
_SLICE_ROWS = 1 << 14


def _int64_codes(values: np.ndarray) -> np.ndarray:
    """Deterministic int64 code for one key column.

    - integers/booleans: the value itself,
    - floats: IEEE bit pattern of the float64 value (with ``-0.0``
      normalized to ``0.0`` so SQL equality and code equality agree),
    - anything else is rejected (VARCHAR keys are ranked or indexed by
      value by the caller, not here).
    """
    kind = values.dtype.kind
    if kind in "iu":
        return values.astype(np.int64, copy=False)
    if kind == "b":
        return values.astype(np.int64)
    if kind == "f":
        as_double = values.astype(np.float64, copy=True)
        zero_mask = as_double == 0.0
        if zero_mask.any():
            as_double[zero_mask] = 0.0
        return as_double.view(np.int64)
    raise ExecutionError(f"cannot code key column of dtype {values.dtype}")


def string_ranks(values: np.ndarray) -> np.ndarray:
    """int64 rank of each value among the distinct values of *values*
    (``np.unique``'s inverse).

    Ranks order like the values, but are only comparable within one
    call.  Only the distinct values are sorted; each row looks its rank
    up in a dict.
    """
    listed = values.tolist()
    ranks = dict.fromkeys(listed)
    for rank, value in enumerate(sorted(ranks)):
        ranks[value] = rank
    return np.fromiter(map(ranks.__getitem__, listed), np.int64, len(listed))


def equality_codes(arrays: list[np.ndarray]) -> list[np.ndarray]:
    """Per-column arrays whose equality is key equality across batches.

    Numeric columns become their int64 codes (so two NaNs are equal when
    their bit patterns are); VARCHAR columns stay as they are.
    """
    return [
        array if array.dtype == object else _int64_codes(array)
        for array in arrays
    ]


def run_starts(columns: list[np.ndarray]) -> np.ndarray:
    """Row positions where a run of equal adjacent rows begins.

    *columns* are non-empty and of equal length; position 0 always
    starts a run.
    """
    rows = len(columns[0])
    change = np.empty(rows, dtype=np.bool_)
    change[0] = True
    change[1:] = columns[0][1:] != columns[0][:-1]
    for column in columns[1:]:
        change[1:] |= column[1:] != column[:-1]
    return np.flatnonzero(change)


class Groups(NamedTuple):
    """A numbering of rows into groups ``0 .. len(firsts) - 1``."""

    #: each row's group
    ids: np.ndarray
    #: each group's first row
    firsts: np.ndarray
    #: each group's row count
    sizes: np.ndarray


def _numbered_by_order(order: np.ndarray, starts: np.ndarray) -> Groups:
    """The groups of a stable sort: rows ``order[starts[g]:starts[g +
    1]]`` are group ``g``."""
    sizes = np.diff(np.append(starts, len(order)))
    ids = np.empty(len(order), dtype=np.int64)
    ids[order] = np.repeat(np.arange(len(starts), dtype=np.int64), sizes)
    return Groups(ids, order[starts], sizes)


def _first_rows(ids: np.ndarray, groups: int) -> np.ndarray:
    """The first row of each of *groups* groups numbered by *ids*,
    looked for in a prefix of the rows that doubles until every group
    has been seen."""
    rows = len(ids)
    firsts = np.full(groups, rows, dtype=np.int64)
    start, stop = 0, min(rows, 4 * groups + 1024)
    while True:
        np.minimum.at(
            firsts, ids[start:stop], np.arange(start, stop, dtype=np.int64)
        )
        if stop == rows or firsts.max() < rows:
            return firsts
        start, stop = stop, min(rows, 2 * stop)


def _numbered_by_count(composite: np.ndarray, domain: int) -> Groups:
    """The groups of *composite* keys in ``[0, domain)``, sorting
    nothing: a row's group is the number of present values below its
    own."""
    sizes = np.bincount(composite, minlength=domain)
    present = sizes > 0
    ids = composite
    if not present.all():
        remap = np.cumsum(present)
        remap -= 1
        ids = remap[composite]
        sizes = sizes[present]
    return Groups(ids, _first_rows(ids, len(sizes)), sizes)


def _numbered_by_sort(composite: np.ndarray) -> Groups:
    """The groups of non-negative *composite* keys below ``2^62 /
    rows``: ``composite * rows + row_index`` is unique, so its unstable
    sort gives the stable order, recovered as ``value % rows``."""
    rows = len(composite)
    tagged = composite * rows + np.arange(rows, dtype=np.int64)
    tagged.sort()
    return _numbered_by_order(tagged % rows, run_starts([tagged // rows]))


def _numbered(codes: list[np.ndarray]) -> Groups:
    """:func:`group_ids` over non-empty code columns."""
    rows = len(codes[0])
    lows = [int(column.min()) for column in codes]
    spans = [int(column.max()) - low + 1 for column, low in zip(codes, lows)]
    domain = math.prod(spans)
    if rows * domain >= _COMPOSITE_LIMIT:
        order = np.lexsort(codes[::-1])
        starts = run_starts([column[order] for column in codes])
        return _numbered_by_order(order, starts)
    composite = codes[0]
    if lows[0] or len(codes) > 1:  # a fresh array, folded in place
        composite = codes[0] - lows[0]
    for column, low, span in zip(codes[1:], lows[1:], spans[1:]):
        composite *= span
        composite += column - low
    if domain <= max(_DENSE_LIMIT, rows):
        return _numbered_by_count(composite, domain)
    return _numbered_by_sort(composite)


def _constant_per_group(key: np.ndarray, groups: Groups) -> bool:
    """Whether every row of *key* equals its group's first row, by code
    (VARCHAR: by value)."""
    column = key if key.dtype == object else _int64_codes(key)
    return bool((column == column[groups.firsts][groups.ids]).all())


def group_ids(keys: list[np.ndarray]) -> Groups:
    """The :class:`Groups` of the rows by their key columns.

    ``ids[i]`` is row ``i``'s group, ``firsts[g]`` the first row of
    group ``g`` and ``sizes[g]`` its row count.  Groups are numbered in ascending order of their key
    codes — numeric columns by :func:`_int64_codes`, VARCHAR columns by
    :func:`string_ranks`, compared left to right.

    The codes fold into one mixed-radix composite whenever
    ``rows × D`` fits, with ``D = Π(max − min + 1)`` its domain:
    - ``D ≤ max(2^16, rows)``: a row's group is the number of present
      composite values below its own (``np.bincount`` marks them), so
      nothing is sorted;
    - otherwise the composite, tagged with the row index, is sorted.
    When even that would overflow, ``np.lexsort`` orders the code
    columns.  All three number the same groups alike.

    Float or VARCHAR keys after every integer/boolean key are usually
    functions of those (ML-To-SQL's ``GROUP BY t.id, m.node, m.b_i``):
    the rows are numbered on the leading keys, and kept so when one
    pass finds each trailing key constant within every group; else the
    full key numbers them.  The groups and their order
    are the same either way.
    """
    if not keys:
        raise ExecutionError("group_ids needs at least one key column")
    if len(keys[0]) == 0:
        empty = np.empty(0, dtype=np.int64)
        return Groups(empty, empty, empty)
    exact = [key.dtype.kind in "iub" for key in keys]
    lead = exact.index(False) if False in exact else len(keys)
    if 0 < lead and not any(exact[lead:]):
        groups = _numbered([_int64_codes(key) for key in keys[:lead]])
        if all(_constant_per_group(key, groups) for key in keys[lead:]):
            return groups
    return _numbered([
        string_ranks(key) if key.dtype == object else _int64_codes(key)
        for key in keys
    ])


def pair_groups(digits, code: np.ndarray, shift: int) -> Groups:
    """The groups of a join's index pairs, each coded as ``probe row <<
    shift | build row``, by *digits*: ``(build side?, Groups of that
    side's rows)`` per run of consecutive group keys on one side, in
    key order.

    A pair's group is the mixed-radix fold of its digits' group ids, so
    groups are numbered in the order :func:`group_ids` gives the keys
    themselves.  Each side's digits are folded into one table over its
    rows first, so the fold is one lookup per side, done in cache-sized
    slices of the pairs.  A domain that overflows int64 leaves one
    column per digit to :func:`group_ids`.
    """
    mask = (1 << shift) - 1
    radices = [len(groups.firsts) for _, groups in digits]
    if math.prod(radices) >= _COMPOSITE_LIMIT:
        rows = (code >> shift, code & mask)
        return group_ids([
            groups.ids[rows[side]] for side, groups in digits
        ])
    tables: list = [None, None]
    weight = 1
    for (side, groups), radix in zip(digits[::-1], radices[::-1]):
        term = groups.ids * weight
        tables[side] = term if tables[side] is None else tables[side] + term
        weight *= radix
    probe, build = tables
    composite = np.empty(len(code), dtype=np.int64)
    for start in range(0, len(code), _SLICE_ROWS):
        pairs = code[start : start + _SLICE_ROWS]
        out = composite[start : start + _SLICE_ROWS]
        if probe is None:
            np.take(build, pairs & mask, out=out, mode="clip")
            continue
        np.take(probe, pairs >> shift, out=out, mode="clip")
        if build is not None:
            out += build[pairs & mask]
    return group_ids([composite])


def _rank(dictionary, values, hit) -> np.ndarray:
    """Position of each of *values* in the sorted *dictionary*; clears
    *hit* where the dictionary lacks the value."""
    positions = np.searchsorted(dictionary, values)
    np.minimum(positions, len(dictionary) - 1, out=positions)
    hit &= dictionary[positions] == values
    return positions


class JoinIndex:
    """An equi-join's build side, indexed by its coded key *columns*.

    After each column its ranks are folded into the code so far and
    re-ranked through the distinct folded codes (``folds``), so a code
    stays below the build row count.  Key code ``c``'s build rows, in
    build order, are ``order[starts[c]:][:sizes[c]]``.
    """

    def __init__(self, columns: list[np.ndarray]):
        if not columns:
            raise ExecutionError("a join index needs at least one key column")
        dictionary, code = np.unique(columns[0], return_inverse=True)
        self.dictionaries, self.folds = [dictionary], []
        for column in columns[1:]:
            dictionary, ranks = np.unique(column, return_inverse=True)
            self.dictionaries.append(dictionary)
            fold, code = np.unique(
                code * len(dictionary) + ranks, return_inverse=True
            )
            self.folds.append(fold)
        self.sizes = np.bincount(code)
        self.starts = np.cumsum(self.sizes) - self.sizes
        self.order = np.argsort(code, kind="stable")
        #: when every key has the same number of build rows (a dense
        #: layer's weights per input node), each key's rows as one row
        #: of a matrix, so a probe gathers its matches in one lookup
        self.fanout = None
        if len(self.order) and (self.sizes == self.sizes[0]).all():
            self.fanout = self.order.reshape(len(self.sizes), -1)

    def _codes(self, columns: list[np.ndarray]):
        """``(code, hit)``: each probe row's key code, and whether the
        build side has its key."""
        hit = np.ones(len(columns[0]), dtype=np.bool_)
        code = _rank(self.dictionaries[0], columns[0], hit)
        for column, dictionary, fold in zip(
            columns[1:], self.dictionaries[1:], self.folds
        ):
            ranks = _rank(dictionary, column, hit)
            code = _rank(fold, code * len(dictionary) + ranks, hit)
        return code, hit

    def matches(self, columns: list[np.ndarray]):
        """``(counts, build_rows)``: each probe row's match count, and
        the build rows matched in join output order (probe order, then
        build order within a key); None when no row matches."""
        if not len(self.order):
            return None
        code, hit = self._codes(columns)
        if self.fanout is None:
            counts = np.where(hit, self.sizes[code], 0)
            if not counts.any():
                return None
            starts = self.starts[code]
            return counts, self.order[ranges_to_indices(starts, counts)]
        if not hit.all():
            code = code[hit]
            if not len(code):
                return None
        counts = np.where(hit, self.fanout.shape[1], 0)
        return counts, self.fanout[code].ravel()


def ranges_to_indices(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flatten per-row match ranges ``[start, start+count)`` to indices.

    Used by :meth:`JoinIndex.matches` to expand its match ranges into
    gather indices without a Python loop.
    """
    shifts = starts - (np.cumsum(counts) - counts)
    indices = np.repeat(shifts, counts)
    indices += np.arange(len(indices), dtype=np.int64)
    return indices
