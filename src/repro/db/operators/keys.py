"""Key coding shared by joins, aggregations and sorts.

Every numeric key column is coded as int64 (:func:`_int64_codes`).  The
coding is value-deterministic (bit patterns, not factorization), so two
relations can be coded independently and still compare equal — which
is what lets the hash join code its build side once and probe in a
streaming fashion (:func:`pack_keys` stacks a multi-column join key
into one structured array that ``np.searchsorted`` can probe).

Grouping never sorts that structured array.  :func:`group_order` folds
the codes into one mixed-radix composite key.  A composite of at most
2^16 values (and no more values than rows) is ordered by a stable radix
argsort of its uint8/uint16 cast and split by ``np.bincount``; a wider
one is sorted with plain ``ndarray.sort``, and the code columns are
lexsorted when the composite would overflow.  VARCHAR columns join the
codes as their ``np.unique`` ranks, which order like the strings
themselves.
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
    - anything else is rejected (VARCHAR keys are ranked or packed as
      tuples by the caller, not here).
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
    raise ExecutionError(f"cannot pack key column of dtype {values.dtype}")


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


def supports_fast_keys(arrays: list[np.ndarray]) -> bool:
    """Whether all key columns can be bit-pattern coded."""
    return all(array.dtype.kind in "iubf" for array in arrays)


def pack_keys(arrays: list[np.ndarray]) -> np.ndarray:
    """Encode join key columns into one comparable array.

    Returns an int64 array for a single key column, otherwise a
    structured array with one int64 field per key column.  The result
    supports ``np.argsort`` and ``np.searchsorted`` with lexicographic
    field order, which is all the join needs.
    """
    if not arrays:
        raise ExecutionError("pack_keys needs at least one key column")
    codes = [_int64_codes(array) for array in arrays]
    if len(codes) == 1:
        return codes[0]
    stacked = np.ascontiguousarray(np.column_stack(codes))
    dtype = np.dtype([(f"f{i}", np.int64) for i in range(len(codes))])
    return stacked.view(dtype).reshape(len(arrays[0]))


def pack_keys_slow(arrays: list[np.ndarray]) -> np.ndarray:
    """Object-array-of-tuples coding for string or mixed join keys.

    Slower, but comparable and hashable — the join's path for VARCHAR
    keys.
    """
    rows = list(zip(*(array.tolist() for array in arrays)))
    packed = np.empty(len(rows), dtype=object)
    packed[:] = rows
    return packed


def ranges_to_indices(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flatten per-row match ranges ``[start, start+count)`` to indices.

    Used by the join to expand ``searchsorted`` hit ranges into gather
    indices without a Python loop.
    """
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    repeated_starts = np.repeat(starts, counts)
    cumulative = np.cumsum(counts) - counts
    within = np.arange(total, dtype=np.int64) - np.repeat(cumulative, counts)
    return repeated_starts + within
