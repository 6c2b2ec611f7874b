"""Expression-tree → vectorized NumPy source generation.

The code generator turns a bound scalar expression tree (or a whole
filter→project pipeline, see :func:`generate_kernel_source`) into the
source text of one Python function that evaluates it with NumPy array
operations.  The source holds no literal value: each literal
occurrence is a positional parameter, declared by dtype only
(``k0 = params[0]  # float64``), whose value the kernel reads from the
``params`` tuple it is called with.  Two statements that differ only in
their literals therefore generate the same text, which is the cache key
of the :class:`~repro.db.compile.kernels.CompiledKernelCache`.  A
parameter of a statement literal is its slot (:class:`LiteralParameter`),
read from each statement's values when the kernel's operator opens, so
the code is generated without looking at a value; only a literal the
planner made carries its value.  The text does name every bound
function's registration number: a UDF re-registered under the same name
is a different kernel.

Bit-exactness with the interpreted path is the hard invariant.  Three
details matter:

* Literal parameters are typed NumPy scalars of the literal's SQL
  storage dtype (``np.dtype('float64').type(0.5)``), used directly as
  operands: under NEP 50 a typed scalar promotes exactly like the
  full-length ``np.full`` the interpreted
  :meth:`~repro.db.expressions.Literal.evaluate` allocates, with
  neither the allocation nor broadcast machinery (ufuncs fast-path
  scalar operands).  VARCHAR literals stay one-element object arrays.
  Only a *top-level* result that references no columns (a constant
  predicate or output) is explicitly broadcast to the batch length,
  because its consumer needs a ``(n,)`` array.
* Conjuncts are applied with *adaptive short-circuit mask narrowing*:
  after each conjunct, surviving rows are gathered and the columns
  still needed are narrowed when the mask is selective (at most half
  the rows survive); an unselective mask is deferred and ``&``-combined
  into the next conjunct instead, so mostly-true predicates do not pay
  for repeated gathers.  Every operation is elementwise, so either
  order yields the same surviving set as the interpreted full-vector
  ``&`` of all masks.
* Anything whose interpreted semantics cannot be reproduced exactly
  (CAST to VARCHAR's per-value ``str()`` loop, logical operators over
  non-boolean operands, which must keep raising from the interpreted
  operator) raises :class:`NonCompilable` and the lowering keeps the
  interpreted operator for that pipeline.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from repro.db.expressions import (
    ARITHMETIC,
    BinaryOp,
    CaseWhen,
    Cast,
    ColumnRef,
    Expression,
    FunctionCall,
    Literal,
    UnaryOp,
)
from repro.db.functions import function_registration, lookup_function
from repro.db.schema import Schema
from repro.db.types import SqlType


class NonCompilable(Exception):
    """Internal signal: the expression has no exact compiled form."""


#: SQL operator -> Python/NumPy operator for direct emission.
_BINARY_OPS = {
    "+": "+",
    "-": "-",
    "*": "*",
    "/": "/",
    "=": "==",
    "<>": "!=",
    "<": "<",
    "<=": "<=",
    ">": ">",
    ">=": ">=",
    "AND": "&",
    "OR": "|",
}

_LOGICAL = {"AND", "OR"}

#: the exact INTEGER arithmetic a kernel calls, by operator
_INTEGER_CALLS = {"+": "INT_ADD", "-": "INT_SUB", "*": "INT_MUL"}


def _case_when_default(conditions, values, n):
    """``np.select`` with the interpreted CASE's implicit default.

    Mirrors :meth:`repro.db.expressions.CaseWhen.evaluate` for a CASE
    without an ELSE branch: zeros of the common value dtype, or an
    object array of ``None`` for VARCHAR branches.
    """
    result_dtype = np.result_type(*values) if values else np.float64
    if result_dtype == object:
        default = np.full(n, None, dtype=object)
    else:
        default = np.zeros(n, dtype=result_dtype)
    return np.select(conditions, values, default=default)


def constant_value(value: object, sql_type: SqlType) -> object:
    """The kernel parameter a literal becomes inside an expression.

    Numeric and boolean literals become NumPy scalars of the SQL
    storage dtype: a typed scalar promotes exactly like the full-length
    typed array the interpreted
    :meth:`~repro.db.expressions.Literal.evaluate` allocates (NEP 50),
    and ufuncs take the faster scalar operand path.  VARCHAR literals
    keep the one-element object array, whose elementwise comparison
    semantics a plain ``str`` would change.

    A NaN literal has no exact compiled form: where both operands are
    NaN, NumPy's SIMD add/multiply with a scalar operand returns the
    scalar's NaN bits, the interpreted array-array loop the left
    operand's.  Such a value raises :class:`NonCompilable`, as does an
    integer that does not fit the int64 storage dtype: the statement
    runs the interpreted kernel instead.
    """
    dtype = sql_type.numpy_dtype
    if isinstance(value, float) and math.isnan(value):
        raise NonCompilable("NaN literal")
    if dtype == object:
        return np.full(1, value, dtype=dtype)
    try:
        return dtype.type(value)
    except OverflowError as error:
        raise NonCompilable(f"literal {value!r} overflows") from error


@dataclass(frozen=True)
class LiteralParameter:
    """A kernel parameter read from one literal slot of the statement.

    *typed*: the parameter is the literal's :func:`constant_value`
    (inside an expression); otherwise the raw value (a bare literal
    output, which ``np.full`` converts).  *default* is the value the
    literal was parsed with, what a plan run without a statement's
    values reads.
    """

    slot: int
    sql_type: SqlType
    typed: bool
    default: object

    def value(self, values: tuple | None) -> object:
        value = self.default if values is None else values[self.slot]
        if self.typed:
            return constant_value(value, self.sql_type)
        return value


def parameter_values(parameters: tuple, values: tuple | None) -> tuple:
    """A kernel's ``params`` for a statement's literal *values* (None:
    the values its literals were parsed with).  *parameters* holds, per
    parameter, its :class:`LiteralParameter` or, for a literal the
    planner made, its value.  Raises :class:`NonCompilable` for a value
    with no compiled form."""
    return tuple(
        parameter.value(values)
        if isinstance(parameter, LiteralParameter)
        else parameter
        for parameter in parameters
    )


class SourceBuilder:
    """Accumulates the parameters and name bindings of one kernel."""

    def __init__(self, schema: Schema):
        self.schema = schema
        #: one per literal occurrence, in parameter order: the
        #: LiteralParameter it reads, or the value of a literal the
        #: planner made (see :func:`parameter_values`)
        self.parameters: list[object] = []
        #: the in-function lines reading each parameter from ``params``
        self.parameter_lines: list[str] = []
        #: exec() globals for the generated module
        self.bindings: dict[str, object] = {
            "np": np,
            "CASE_WHEN_DEFAULT": _case_when_default,
        }
        #: comment lines salting the source with the registration of
        #: every bound function (a re-registered UDF must miss the
        #: kernel cache, like a republished model table)
        self.header: list[str] = []
        #: schema positions read by the generated code
        self.used_positions: set[int] = set()
        #: the code does float arithmetic or divides: the kernel then
        #: runs under np.errstate (IEEE results, no NumPy warning)
        self.float_arithmetic = False

    def column(self, name: str) -> str:
        position = self.schema.position_of(name)
        self.used_positions.add(position)
        return f"c{position}"

    def parameter(self, literal: Literal, typed: bool) -> str:
        """Declare the next positional parameter, by dtype only: a
        statement literal's slot, or a planner literal's value (typed:
        its :func:`constant_value`, else raw).

        Never deduplicated by value: whether two literals are equal is
        a property of the values, so sharing one parameter between
        equal literals would make the source depend on them again.
        """
        sql_type = literal.sql_type
        if literal.slot is not None:
            parameter = LiteralParameter(
                literal.slot, sql_type, typed, literal.value
            )
        elif typed:
            parameter = constant_value(literal.value, sql_type)
        else:
            parameter = literal.value
        index = len(self.parameters)
        self.parameters.append(parameter)
        self.parameter_lines.append(
            f"    k{index} = params[{index}]  # {sql_type.numpy_dtype.name}"
        )
        return f"k{index}"

    def function(self, name: str):
        """Bind a registered scalar function, returning its local name."""
        implementation = lookup_function(name).implementation
        local = "F_" + re.sub(r"[^A-Za-z0-9_]", "_", name.upper())
        bound = self.bindings.get(local)
        if bound is not None and bound is not implementation:
            raise NonCompilable(f"function name collision for {name!r}")
        if bound is None:
            self.bindings[local] = implementation
            self.header.append(
                f"# function: {name.upper()} "
                f"registration={function_registration(name)}"
            )
        return local


def emit(expression: Expression, builder: SourceBuilder) -> str:
    """Source text computing *expression* over the current batch.

    The text references column locals ``c<pos>``, the running length
    variable ``n`` and the const/function names declared on *builder*.
    """
    if isinstance(expression, ColumnRef):
        return builder.column(expression.name)
    if isinstance(expression, Literal):
        # inside an expression, a literal is its typed scalar (see
        # constant_value)
        return builder.parameter(expression, typed=True)
    if isinstance(expression, BinaryOp):
        operator = _BINARY_OPS.get(expression.operator)
        if operator is None:
            raise NonCompilable(
                f"unknown binary operator {expression.operator!r}"
            )
        if expression.operator in _LOGICAL:
            # The interpreted path raises ExecutionError on non-boolean
            # operands; keep that behavior by refusing to compile.
            for operand in (expression.left, expression.right):
                if operand.output_type(builder.schema) is not SqlType.BOOLEAN:
                    raise NonCompilable(
                        f"{expression.operator} over non-boolean operand"
                    )
        left = emit(expression.left, builder)
        right = emit(expression.right, builder)
        if operator in _INTEGER_CALLS:
            output = expression.output_type(builder.schema)
            if output is SqlType.INTEGER:
                # exact: an int64 result that wrapped raises
                local = _INTEGER_CALLS[operator]
                builder.bindings[local] = ARITHMETIC[operator]
                return f"{local}({left}, {right})"
            if output in (SqlType.FLOAT, SqlType.DOUBLE):
                builder.float_arithmetic = True
        elif operator == "/":
            builder.float_arithmetic = True
        return f"({left} {operator} {right})"
    if isinstance(expression, UnaryOp):
        if expression.operator == "-":
            return f"(-{emit(expression.operand, builder)})"
        if expression.operator == "NOT":
            if expression.operand.output_type(builder.schema) is not (
                SqlType.BOOLEAN
            ):
                raise NonCompilable("NOT over non-boolean operand")
            return f"(~{emit(expression.operand, builder)})"
        raise NonCompilable(f"unknown unary operator {expression.operator!r}")
    if isinstance(expression, FunctionCall):
        local = builder.function(expression.name)
        arguments = ", ".join(
            emit(argument, builder) for argument in expression.arguments
        )
        return f"{local}({arguments})"
    if isinstance(expression, CaseWhen):
        for condition, _ in expression.branches:
            if condition.output_type(builder.schema) is not SqlType.BOOLEAN:
                raise NonCompilable("CASE condition is not boolean")
        conditions = ", ".join(
            emit(condition, builder) for condition, _ in expression.branches
        )
        values = ", ".join(
            emit(value, builder) for _, value in expression.branches
        )
        if expression.otherwise is not None:
            default = emit(expression.otherwise, builder)
            return (
                f"np.select([{conditions}], [{values}], default={default})"
            )
        return f"CASE_WHEN_DEFAULT([{conditions}], [{values}], n)"
    if isinstance(expression, Cast):
        if expression.target is SqlType.VARCHAR:
            # Interpreted CAST..AS VARCHAR runs a per-value str() loop;
            # there is no vectorized form with identical semantics.
            raise NonCompilable("CAST to VARCHAR is not vectorizable")
        operand = emit(expression.operand, builder)
        dtype_name = expression.target.numpy_dtype.name
        return (
            f"({operand}).astype(np.dtype({dtype_name!r}), copy=False)"
        )
    raise NonCompilable(f"no compiled form for {type(expression).__name__}")


def emit_output(
    expression: Expression, builder: SourceBuilder
) -> str:
    """Like :func:`emit`, but for a top-level output position.

    A bare literal output allocates a writable full-length array from
    the raw value, exactly as the interpreted path's ``np.full`` does
    (the typed one-element constant used *inside* expressions has the
    wrong shape for an output).
    """
    if isinstance(expression, Literal):
        dtype = expression.sql_type.numpy_dtype
        name = builder.parameter(expression, typed=False)
        return f"np.full(n, {name}, dtype=np.dtype({dtype.name!r}))"
    return emit(expression, builder)


def aliasing_column(expression: Expression) -> str | None:
    """Name of the input column the expression's result may alias.

    ``ColumnRef`` returns the input array itself, and a numeric
    ``Cast`` chain with ``copy=False`` passes it through whenever the
    dtype already matches.  Every other node allocates a fresh array.
    """
    while isinstance(expression, Cast):
        expression = expression.operand
    if isinstance(expression, ColumnRef):
        return expression.name.lower()
    return None

