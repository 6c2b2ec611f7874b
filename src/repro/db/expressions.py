"""Vectorized scalar expression trees.

Expressions are evaluated against a :class:`~repro.db.vector.VectorBatch`
and return a NumPy array of the batch length.  Arithmetic follows SQL
promotion rules (INTEGER < FLOAT < DOUBLE); division always produces a
floating-point result, which keeps generated formulas like
``1/(1+EXP(-x))`` correct without explicit casts.

``evaluate(batch, params)`` takes the statement's literal values by
slot: a literal that came from the statement text reads its value from
*params*, so one bound tree serves every statement of its shape.  With
*params* None each literal reads the value it was parsed with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add, eq, ge, gt, le, lt, mul, ne, sub, truediv

import numpy as np

from repro.db.functions import lookup_function
from repro.db.schema import Schema
from repro.db.types import SqlType, check_comparable, common_numeric_type
from repro.db.vector import VectorBatch
from repro.errors import (
    ExecutionError,
    IntegerOverflowError,
    TypeMismatchError,
)


class Expression:
    """Base class of all scalar expressions."""

    def evaluate(
        self, batch: VectorBatch, params: tuple | None = None
    ) -> np.ndarray:
        raise NotImplementedError

    def output_type(self, schema: Schema) -> SqlType:
        raise NotImplementedError

    def referenced_columns(self) -> set[str]:
        raise NotImplementedError

    def __str__(self) -> str:  # pragma: no cover - overridden everywhere
        raise NotImplementedError


@dataclass(frozen=True)
class ColumnRef(Expression):
    """Reference to a column of the input relation by name."""

    name: str

    def evaluate(self, batch: VectorBatch, params=None) -> np.ndarray:
        return batch.column(self.name)

    def output_type(self, schema: Schema) -> SqlType:
        return schema.type_of(self.name)

    def referenced_columns(self) -> set[str]:
        return {self.name.lower()}

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Literal(Expression):
    """A constant value, broadcast to the batch length.

    ``slot`` is the literal's position among the NUMBER/STRING tokens
    of the statement it was parsed from (None when the planner made
    it); evaluated with a statement's *params*, the literal is
    ``params[slot]``.  It is not part of equality: ``x + 1`` equals
    ``x + 1`` wherever the ``1`` came from.
    """

    value: object
    sql_type: SqlType
    slot: int | None = field(default=None, compare=False, repr=False)

    @classmethod
    def of(cls, value: object, slot: int | None = None) -> "Literal":
        if isinstance(value, bool):
            return cls(value, SqlType.BOOLEAN, slot)
        if isinstance(value, int):
            return cls(value, SqlType.INTEGER, slot)
        if isinstance(value, float):
            return cls(value, SqlType.DOUBLE, slot)
        if isinstance(value, str):
            return cls(value, SqlType.VARCHAR, slot)
        raise TypeMismatchError(f"unsupported literal {value!r}")

    def evaluate(self, batch: VectorBatch, params=None) -> np.ndarray:
        value = self.value
        if params is not None and self.slot is not None:
            value = params[self.slot]
        return np.full(len(batch), value, dtype=self.sql_type.numpy_dtype)

    def output_type(self, schema: Schema) -> SqlType:
        return self.sql_type

    def referenced_columns(self) -> set[str]:
        return set()

    def __str__(self) -> str:
        if self.sql_type is SqlType.VARCHAR:
            escaped = str(self.value).replace("'", "''")
            return f"'{escaped}'"
        return str(self.value)


_INT64_MAX = 2**63 - 1


def _magnitude(values) -> int:
    """The largest absolute value of an integer array or scalar, as an
    exact Python int (``abs`` of the int64 minimum wraps in NumPy)."""
    if np.ndim(values) == 0:
        return abs(int(values))
    if not len(values):
        return 0
    return max(-int(values.min()), int(values.max()))


def _exact_at(symbol: str, left, right, row: int) -> tuple[int, int, int]:
    """Row *row*'s integer operands and their exact result."""
    left, right = (
        int(operand[row]) if np.ndim(operand) else int(operand)
        for operand in (left, right)
    )
    if symbol == "+":
        return left, right, left + right
    if symbol == "-":
        return left, right, left - right
    return left, right, left * right


def _exact(symbol: str, operation):
    """*operation* with IEEE float results and no NumPy warning (see
    :func:`_ieee`) and exact integer results: where the int64 result
    wrapped it raises :class:`IntegerOverflowError`.

    The integer check is skipped when the operands' magnitudes bound
    the result inside int64 (one ``min``/``max`` per operand);
    otherwise ``+`` and ``-`` compare signs (a wrapped sum has the
    opposite sign of both addends), and ``*`` recomputes exactly the
    rows whose float64 product reaches 2**62.
    """

    def checked(left, right):
        with np.errstate(over="ignore", invalid="ignore"):
            result = operation(left, right)
        if result.dtype.kind != "i":
            return result
        bound_left, bound_right = _magnitude(left), _magnitude(right)
        if symbol == "*":
            if bound_left * bound_right <= _INT64_MAX:
                return result
            shadow = np.abs(np.multiply(left, right, dtype=np.float64))
            rows = np.flatnonzero(np.atleast_1d(shadow) >= 2.0**62)
        else:
            if bound_left + bound_right <= _INT64_MAX:
                return result
            if symbol == "+":
                wrapped = (left ^ result) & (right ^ result)
            else:
                wrapped = (left ^ right) & (left ^ result)
            rows = np.flatnonzero(np.atleast_1d(wrapped) < 0)
        for row in rows:
            a, b, exact = _exact_at(symbol, left, right, row)
            if not -_INT64_MAX - 1 <= exact <= _INT64_MAX:
                raise IntegerOverflowError(
                    f"integer {a} {symbol} {b} = {exact} is outside the "
                    "INTEGER (int64) range"
                )
        return result

    return checked


#: ``+ - *``: an INTEGER result is exact int64 or an
#: :class:`IntegerOverflowError`, never a wrapped value (generated
#: kernels call these for INTEGER-typed arithmetic)
ARITHMETIC = {
    "+": _exact("+", add), "-": _exact("-", sub), "*": _exact("*", mul),
}


def _ieee(operation):
    """*operation* with IEEE float results and no NumPy warning: an
    overflow is ±inf, ``0 * inf`` NaN, ``x / 0`` ±inf and ``0 / 0``
    NaN (docs/API.md)."""

    def quietly(left: np.ndarray, right: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return operation(left, right)

    return quietly


#: NumPy operator of each arithmetic and comparison operator; division
#: is always floating point (true division), as in SQL generated formulas
_NUMPY_OPERATORS = {
    **ARITHMETIC, "/": _ieee(truediv),
    "=": eq, "<>": ne, "<": lt, "<=": le, ">": gt, ">=": ge,
}
COMPARISONS = {"=", "<>", "<", "<=", ">", ">="}
_LOGICAL = {"AND", "OR"}


@dataclass(frozen=True)
class BinaryOp(Expression):
    """Arithmetic, comparison or logical binary operation."""

    operator: str
    left: Expression
    right: Expression

    def evaluate(self, batch: VectorBatch, params=None) -> np.ndarray:
        left = self.left.evaluate(batch, params)
        right = self.right.evaluate(batch, params)
        if self.operator in _LOGICAL:
            if left.dtype != np.bool_ or right.dtype != np.bool_:
                raise ExecutionError(
                    f"{self.operator} requires boolean operands"
                )
            return left & right if self.operator == "AND" else left | right
        function = _NUMPY_OPERATORS.get(self.operator)
        if function is None:
            raise ExecutionError(f"unknown binary operator {self.operator!r}")
        return function(left, right)

    def output_type(self, schema: Schema) -> SqlType:
        left = self.left.output_type(schema)
        right = self.right.output_type(schema)
        if self.operator in COMPARISONS:
            check_comparable(left, right)
            return SqlType.BOOLEAN
        if self.operator in _LOGICAL:
            return SqlType.BOOLEAN
        if self.operator == "/":
            promoted = common_numeric_type(left, right)
            if promoted is SqlType.INTEGER:
                return SqlType.DOUBLE
            return promoted
        return common_numeric_type(left, right)

    def referenced_columns(self) -> set[str]:
        return self.left.referenced_columns() | self.right.referenced_columns()

    def __str__(self) -> str:
        return f"({self.left} {self.operator} {self.right})"


@dataclass(frozen=True)
class UnaryOp(Expression):
    """Unary minus or NOT."""

    operator: str
    operand: Expression

    def evaluate(self, batch: VectorBatch, params=None) -> np.ndarray:
        values = self.operand.evaluate(batch, params)
        if self.operator == "-":
            return -values
        if self.operator == "NOT":
            if values.dtype != np.bool_:
                raise ExecutionError("NOT requires a boolean operand")
            return ~values
        raise ExecutionError(f"unknown unary operator {self.operator!r}")

    def output_type(self, schema: Schema) -> SqlType:
        inner = self.operand.output_type(schema)
        if self.operator == "NOT":
            return SqlType.BOOLEAN
        if not inner.is_numeric:
            raise TypeMismatchError(f"cannot negate a {inner}")
        return inner

    def referenced_columns(self) -> set[str]:
        return self.operand.referenced_columns()

    def __str__(self) -> str:
        if self.operator == "NOT":
            return f"(NOT {self.operand})"
        # The space matters: "-" followed by a negative literal would
        # otherwise render "--", which SQL lexes as a line comment.
        return f"(- {self.operand})"


@dataclass(frozen=True)
class FunctionCall(Expression):
    """A call to a registered built-in scalar function."""

    name: str
    arguments: tuple[Expression, ...]

    def evaluate(self, batch: VectorBatch, params=None) -> np.ndarray:
        function = lookup_function(self.name)
        values = [
            argument.evaluate(batch, params) for argument in self.arguments
        ]
        return function.implementation(*values)

    def output_type(self, schema: Schema) -> SqlType:
        function = lookup_function(self.name)
        return function.type_check(
            [argument.output_type(schema) for argument in self.arguments]
        )

    def referenced_columns(self) -> set[str]:
        referenced: set[str] = set()
        for argument in self.arguments:
            referenced |= argument.referenced_columns()
        return referenced

    def __str__(self) -> str:
        rendered = ", ".join(str(argument) for argument in self.arguments)
        return f"{self.name}({rendered})"


@dataclass(frozen=True)
class CaseWhen(Expression):
    """``CASE WHEN c1 THEN v1 ... [ELSE e] END`` evaluated branch-free.

    All branch values are computed for the full vector and combined with
    ``np.select`` — the standard way a vectorized engine executes CASE.
    """

    branches: tuple[tuple[Expression, Expression], ...]
    otherwise: Expression | None = None

    def evaluate(self, batch: VectorBatch, params=None) -> np.ndarray:
        conditions = [
            condition.evaluate(batch, params) for condition, _ in self.branches
        ]
        values = [value.evaluate(batch, params) for _, value in self.branches]
        for condition in conditions:
            if condition.dtype != np.bool_:
                raise ExecutionError("CASE condition must be boolean")
        if self.otherwise is not None:
            default = self.otherwise.evaluate(batch, params)
        else:
            result_dtype = np.result_type(*values) if values else np.float64
            if result_dtype == object:
                default = np.full(len(batch), None, dtype=object)
            else:
                default = np.zeros(len(batch), dtype=result_dtype)
        return np.select(conditions, values, default=default)

    def output_type(self, schema: Schema) -> SqlType:
        types = [value.output_type(schema) for _, value in self.branches]
        if self.otherwise is not None:
            types.append(self.otherwise.output_type(schema))
        result = types[0]
        for candidate in types[1:]:
            if candidate is result:
                continue
            result = common_numeric_type(result, candidate)
        return result

    def referenced_columns(self) -> set[str]:
        referenced: set[str] = set()
        for condition, value in self.branches:
            referenced |= condition.referenced_columns()
            referenced |= value.referenced_columns()
        if self.otherwise is not None:
            referenced |= self.otherwise.referenced_columns()
        return referenced

    def __str__(self) -> str:
        parts = ["CASE"]
        for condition, value in self.branches:
            parts.append(f"WHEN {condition} THEN {value}")
        if self.otherwise is not None:
            parts.append(f"ELSE {self.otherwise}")
        parts.append("END")
        return " ".join(parts)


@dataclass(frozen=True)
class Cast(Expression):
    """Explicit ``CAST(expr AS type)``."""

    operand: Expression
    target: SqlType

    def evaluate(self, batch: VectorBatch, params=None) -> np.ndarray:
        values = self.operand.evaluate(batch, params)
        if self.target is SqlType.VARCHAR:
            return np.array([str(value) for value in values], dtype=object)
        if values.dtype == object:
            return values.astype(self.target.numpy_dtype)
        return values.astype(self.target.numpy_dtype, copy=False)

    def output_type(self, schema: Schema) -> SqlType:
        return self.target

    def referenced_columns(self) -> set[str]:
        return self.operand.referenced_columns()

    def __str__(self) -> str:
        return f"CAST({self.operand} AS {self.target})"


def with_values(node, values: tuple | None):
    """*node* — an expression, or a tree of dataclasses and tuples
    holding them (an AST, an aggregate spec) — with each statement
    literal holding its value in *values*, by slot; *node* itself when
    *values* is None.  What EXPLAIN shows of a plan instance's
    expressions, and the AST a fragment planned cold binds."""
    if values is None or isinstance(node, (str, int, float)):
        return node
    if isinstance(node, Literal):
        if node.slot is None:
            return node
        return Literal(values[node.slot], node.sql_type, node.slot)
    if isinstance(node, tuple):
        return tuple(with_values(item, values) for item in node)
    if not hasattr(node, "__dataclass_fields__"):
        return node
    clone = object.__new__(type(node))
    clone.__dict__.update({
        name: with_values(value, values)
        for name, value in node.__dict__.items()
    })
    return clone


def calls_per_vector(expression: Expression) -> bool:
    """Whether *expression* calls a function that is called once per
    execution vector (a UDF, see :mod:`repro.db.udf`)."""
    if isinstance(expression, FunctionCall):
        implementation = lookup_function(expression.name).implementation
        if getattr(implementation, "per_vector", False):
            return True
        children = expression.arguments
    elif isinstance(expression, BinaryOp):
        children = (expression.left, expression.right)
    elif isinstance(expression, (UnaryOp, Cast)):
        children = (expression.operand,)
    elif isinstance(expression, CaseWhen):
        children = [part for branch in expression.branches for part in branch]
        if expression.otherwise is not None:
            children.append(expression.otherwise)
    else:
        return False
    return any(calls_per_vector(child) for child in children)


def evaluate_per_vector(
    expression: Expression,
    batch: VectorBatch,
    vector_size: int,
    params: tuple | None = None,
) -> np.ndarray:
    """*expression* over *batch* with the literal *params*: in one call,
    or in *vector_size*-row pieces when it :func:`calls_per_vector` (as
    the kernels cut it)."""
    if len(batch) <= vector_size or not calls_per_vector(expression):
        return expression.evaluate(batch, params)
    return np.concatenate([
        expression.evaluate(piece, params)
        for piece in batch.pieces(vector_size)
    ])
