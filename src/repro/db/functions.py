"""Registry of built-in scalar SQL functions.

Each function has a vectorized NumPy implementation and a result-type
rule.  Besides the usual math functions, the engine ships the activation
functions the paper's ML-To-SQL generator can emit natively
(``SIGMOID``, ``TANH``, ``RELU``) — the generator can alternatively
expand them to portable arithmetic/CASE SQL (see
:mod:`repro.core.ml_to_sql.templates`).
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.db.types import SqlType, common_numeric_type
from repro.errors import BindError, TypeMismatchError


@dataclass(frozen=True)
class ScalarFunction:
    """A built-in scalar function."""

    name: str
    arity: int
    implementation: Callable[..., np.ndarray]
    result_type: Callable[[list[SqlType]], SqlType]

    def type_check(self, argument_types: list[SqlType]) -> SqlType:
        if len(argument_types) != self.arity:
            raise TypeMismatchError(
                f"{self.name} expects {self.arity} arguments, "
                f"got {len(argument_types)}"
            )
        return self.result_type(argument_types)


def _numeric_unary(argument_types: list[SqlType]) -> SqlType:
    (argument,) = argument_types
    if not argument.is_numeric:
        raise TypeMismatchError(f"expected a numeric argument, got {argument}")
    # Math on integers promotes to DOUBLE, floats keep their width.
    if argument is SqlType.INTEGER:
        return SqlType.DOUBLE
    return argument


def _numeric_binary(argument_types: list[SqlType]) -> SqlType:
    return common_numeric_type(*argument_types)


def _float_of(values: np.ndarray) -> np.ndarray:
    """Integers become float64; float32/float64 pass through unchanged."""
    if values.dtype.kind in "iu" or values.dtype == np.bool_:
        return values.astype(np.float64)
    return values


def _sigmoid(values: np.ndarray) -> np.ndarray:
    values = _float_of(values)
    # Clip to keep exp() finite in float32 without changing the result.
    clipped = np.clip(values, -80.0, 80.0)
    return 1.0 / (1.0 + np.exp(-clipped))


def _relu(values: np.ndarray) -> np.ndarray:
    values = _float_of(values)
    return np.maximum(values, np.zeros(1, dtype=values.dtype))


def _power(base: np.ndarray, exponent: np.ndarray) -> np.ndarray:
    return np.power(_float_of(base), _float_of(exponent))


_REGISTRY: dict[str, ScalarFunction] = {}
#: name -> registration number of its current implementation; every
#: (re-)registration takes a fresh number, so a kernel source salted
#: with it never outlives the implementation it bound
_REGISTRATIONS: dict[str, int] = {}
_registration_numbers = itertools.count()
_latest_registration = -1


def register_function(function: ScalarFunction) -> None:
    global _latest_registration
    key = function.name.upper()
    number = next(_registration_numbers)
    _REGISTRY[key] = function
    _REGISTRATIONS[key] = number
    _latest_registration = number


def function_registration(name: str) -> int:
    """The registration number of *name*'s current implementation
    (-1 for an unknown name)."""
    return _REGISTRATIONS.get(name.upper(), -1)


def registry_version() -> int:
    """The newest registration number: changes whenever any function
    is (re-)registered (what a cached plan template is valid under)."""
    return _latest_registration


def lookup_function(name: str) -> ScalarFunction:
    function = _REGISTRY.get(name.upper())
    if function is None:
        raise BindError(f"unknown function {name!r}")
    return function


def has_function(name: str) -> bool:
    return name.upper() in _REGISTRY


def _register_builtins() -> None:
    unary = [
        ("EXP", lambda x: np.exp(_float_of(x))),
        ("LN", lambda x: np.log(_float_of(x))),
        ("SQRT", lambda x: np.sqrt(_float_of(x))),
        ("SIN", lambda x: np.sin(_float_of(x))),
        ("COS", lambda x: np.cos(_float_of(x))),
        ("TANH", lambda x: np.tanh(_float_of(x))),
        ("SIGMOID", _sigmoid),
        ("RELU", _relu),
        ("ABS", lambda x: np.abs(x)),
        ("FLOOR", lambda x: np.floor(_float_of(x))),
        ("CEIL", lambda x: np.ceil(_float_of(x))),
    ]
    for name, implementation in unary:
        register_function(
            ScalarFunction(name, 1, implementation, _numeric_unary)
        )
    register_function(
        ScalarFunction("POWER", 2, _power, _numeric_binary)
    )
    register_function(
        ScalarFunction(
            "GREATEST", 2, lambda a, b: np.maximum(a, b), _numeric_binary
        )
    )
    register_function(
        ScalarFunction(
            "LEAST", 2, lambda a, b: np.minimum(a, b), _numeric_binary
        )
    )
    register_function(
        ScalarFunction("MOD", 2, lambda a, b: np.mod(a, b), _numeric_binary)
    )


_register_builtins()
