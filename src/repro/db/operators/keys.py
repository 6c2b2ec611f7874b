"""Key coding shared by joins, aggregations and sorts.

Every numeric key column is coded as int64 (:func:`_int64_codes`).  The
coding is value-deterministic (bit patterns, not factorization), so two
relations coded independently compare equal.  The hash join indexes
its build side once (:class:`JoinIndex`): the sorted distinct codes of
each key column (VARCHAR: values) are its dictionary, and a row's
ranks in them fold into one dense code; a probe row is coded through
the same dictionaries, and a value the build side lacks is a miss.

Grouping folds the codes into one mixed-radix composite key
(:func:`group_order`).  A composite of at most 2^16 values (and no
more values than rows) is ordered by a stable radix argsort of its
uint8/uint16 cast and split by ``np.bincount``; a wider one is sorted
with plain ``ndarray.sort``, and the code columns are lexsorted when
the composite would overflow.  VARCHAR columns join the codes as their
``np.unique`` ranks, which order like the strings themselves.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ExecutionError

#: ``rows × Π(max − min + 1)`` must stay below this for the composite
#: key (including its row-index tiebreak) to fit a signed int64
_COMPOSITE_LIMIT = 1 << 62
#: composite domains up to this size are counted, not compared: NumPy's
#: stable argsort is a radix sort for 8- and 16-bit integers
_DENSE_LIMIT = 1 << 16


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
    """int64 rank of each value among the distinct values of *values*.

    Ranks order like the values, but are only comparable within one
    call.
    """
    _, inverse = np.unique(values, return_inverse=True)
    return inverse.astype(np.int64, copy=False)


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


def group_order(keys: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """``(order, starts)`` that group rows by their key columns.

    *order* is the stable permutation sorting the rows by their key
    codes — numeric columns by :func:`_int64_codes`, VARCHAR columns by
    :func:`string_ranks`, compared left to right.  *starts* are the
    positions in ``order`` where each group begins.

    The codes are folded into one mixed-radix composite whenever
    ``rows × D`` fits, with ``D = Π(max − min + 1)`` its domain:
    - ``D ≤ min(2^16, rows)``: a stable argsort of the composite cast to
      uint8/uint16 (a radix sort) gives *order*, and the cumulative
      ``np.bincount`` of the groups present gives *starts*;
    - otherwise ``composite * rows + row_index`` is sorted with
      ``ndarray.sort``: the values are unique, so the unstable sort
      yields the stable order, recovered as ``value % rows``.
    When even that would overflow, ``np.lexsort`` orders the code
    columns.  All three give the same ``(order, starts)``.
    """
    if not keys:
        raise ExecutionError("group_order needs at least one key column")
    codes = [
        string_ranks(key) if key.dtype == object else _int64_codes(key)
        for key in keys
    ]
    rows = len(codes[0])
    if rows == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    lows = [int(column.min()) for column in codes]
    spans = [int(column.max()) - low + 1 for column, low in zip(codes, lows)]
    domain = math.prod(spans)
    if rows * domain < _COMPOSITE_LIMIT:
        composite = codes[0] - lows[0]
        for column, low, span in zip(codes[1:], lows[1:], spans[1:]):
            composite *= span
            composite += column - low
        if domain <= min(_DENSE_LIMIT, rows):
            narrow = np.uint8 if domain <= 256 else np.uint16
            order = np.argsort(composite.astype(narrow), kind="stable")
            sizes = np.bincount(composite)
            sizes = sizes[sizes > 0]
            starts = np.zeros(len(sizes), dtype=np.int64)
            np.cumsum(sizes[:-1], out=starts[1:])
            return order, starts
        tagged = composite * rows + np.arange(rows, dtype=np.int64)
        tagged.sort()
        order = tagged % rows
        return order, run_starts([tagged // rows])
    order = np.lexsort(codes[::-1])
    return order, run_starts([column[order] for column in codes])


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

    def lookup(self, columns: list[np.ndarray]):
        """``(starts, counts)`` of each probe row's matches in ``order``."""
        if not len(self.order):
            nothing = np.zeros(len(columns[0]), dtype=np.int64)
            return nothing, nothing
        hit = np.ones(len(columns[0]), dtype=np.bool_)
        code = _rank(self.dictionaries[0], columns[0], hit)
        for column, dictionary, fold in zip(
            columns[1:], self.dictionaries[1:], self.folds
        ):
            ranks = _rank(dictionary, column, hit)
            code = _rank(fold, code * len(dictionary) + ranks, hit)
        return self.starts[code], np.where(hit, self.sizes[code], 0)


def ranges_to_indices(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flatten per-row match ranges ``[start, start+count)`` to indices.

    Used by the join to expand :meth:`JoinIndex.lookup` ranges into
    gather indices without a Python loop.
    """
    shifts = starts - (np.cumsum(counts) - counts)
    total = int(counts.sum())
    return np.repeat(shifts, counts) + np.arange(total, dtype=np.int64)
