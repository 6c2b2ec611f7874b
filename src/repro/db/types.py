"""SQL type system of the engine.

The engine supports a deliberately small set of types — the ones the
paper's workloads and the ML-To-SQL generated queries need.  Each SQL type
maps onto a NumPy dtype used for columnar storage and vectorized
execution.  ``FLOAT`` is 4-byte IEEE 754 (the paper stores all model
weights as 4-byte floats, Section 4.1), ``DOUBLE`` is 8-byte.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.errors import TypeMismatchError


#: values of the numeric SqlType members
_NUMERIC = frozenset(("INTEGER", "FLOAT", "DOUBLE"))


class SqlType(enum.Enum):
    """A SQL column type supported by the engine."""

    INTEGER = "INTEGER"
    FLOAT = "FLOAT"
    DOUBLE = "DOUBLE"
    VARCHAR = "VARCHAR"
    BOOLEAN = "BOOLEAN"

    @property
    def numpy_dtype(self) -> np.dtype:
        """The NumPy dtype backing columns of this type."""
        return _NUMPY_DTYPES[self]

    @property
    def is_numeric(self) -> bool:
        return self._value_ in _NUMERIC

    @property
    def byte_width(self) -> int:
        """Bytes per value; VARCHAR is charged a nominal pointer width."""
        if self is SqlType.VARCHAR:
            return 16
        return self.numpy_dtype.itemsize

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


_NUMPY_DTYPES: dict[SqlType, np.dtype] = {
    SqlType.INTEGER: np.dtype(np.int64),
    SqlType.FLOAT: np.dtype(np.float32),
    SqlType.DOUBLE: np.dtype(np.float64),
    SqlType.VARCHAR: np.dtype(object),
    SqlType.BOOLEAN: np.dtype(np.bool_),
}

_TYPE_NAMES: dict[str, SqlType] = {
    "INT": SqlType.INTEGER,
    "INTEGER": SqlType.INTEGER,
    "BIGINT": SqlType.INTEGER,
    "FLOAT": SqlType.FLOAT,
    "FLOAT4": SqlType.FLOAT,
    "REAL": SqlType.FLOAT,
    "DOUBLE": SqlType.DOUBLE,
    "FLOAT8": SqlType.DOUBLE,
    "VARCHAR": SqlType.VARCHAR,
    "TEXT": SqlType.VARCHAR,
    "STRING": SqlType.VARCHAR,
    "BOOLEAN": SqlType.BOOLEAN,
    "BOOL": SqlType.BOOLEAN,
}


def parse_type_name(name: str) -> SqlType:
    """Resolve a SQL type name (as written in DDL) to a :class:`SqlType`.

    Raises :class:`~repro.errors.TypeMismatchError` for unknown names.
    """
    sql_type = _TYPE_NAMES.get(name.upper())
    if sql_type is None:
        raise TypeMismatchError(f"unknown SQL type name: {name!r}")
    return sql_type


def common_numeric_type(left: SqlType, right: SqlType) -> SqlType:
    """The result type of an arithmetic operation between two types.

    Mirrors standard SQL numeric promotion: INTEGER < FLOAT < DOUBLE.
    """
    if not (left.is_numeric and right.is_numeric):
        raise TypeMismatchError(
            f"arithmetic requires numeric operands, got {left} and {right}"
        )
    order = [SqlType.INTEGER, SqlType.FLOAT, SqlType.DOUBLE]
    return order[max(order.index(left), order.index(right))]


def check_comparable(left: SqlType, right: SqlType) -> None:
    """Reject a comparison (``= <> < <= > >=``, or an equi-join key
    pair) between a VARCHAR and a non-VARCHAR operand."""
    if (left is SqlType.VARCHAR) != (right is SqlType.VARCHAR):
        raise TypeMismatchError(f"cannot compare {left} with {right}")
