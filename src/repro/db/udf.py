"""Python user-defined functions with an explicit marshalling boundary.

Approach (1) of the paper runs model inference inside a Python UDF.  In
Actian Vector, calling a UDF crosses the engine/interpreter boundary:
column vectors are converted to Python structures, the interpreter runs,
and results are converted back.  Vectorized UDFs (Kläbe et al., CIDR'22)
amortize this to once per 1024-tuple vector; tuple-at-a-time UDFs pay it
per row.

Our engine *is* Python, so the boundary would be free by accident.  To
preserve the cost structure the paper measures, UDF invocation really
marshals: each vector is serialized row-wise into an interchange buffer
and parsed back into Python lists on the UDF side (and the results take
the reverse trip).  This is real per-value CPU work, not a sleep —
disable it with ``marshal=False`` for the ablation benchmark.
"""

from __future__ import annotations

import struct
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.db.functions import ScalarFunction, register_function
from repro.db.types import SqlType
from repro.errors import ExecutionError


@dataclass
class UdfStatistics:
    """Counters a UDF accumulates across calls (for tests/benches)."""

    calls: int = 0
    rows: int = 0


@dataclass
class PythonUdf:
    """A registered Python UDF.

    *function* receives one Python list per argument (vectorized mode)
    or one scalar per argument (tuple-at-a-time mode) and must return a
    list of results / a single result respectively.
    """

    name: str
    arity: int
    function: Callable
    result_type: SqlType = SqlType.DOUBLE
    vectorized: bool = True
    marshal: bool = True
    statistics: UdfStatistics | None = None

    #: called once per execution vector: a kernel that calls a UDF
    #: cuts longer batches into vectors (see repro.db.compile.kernels)
    per_vector = True

    def __post_init__(self) -> None:
        if self.statistics is None:
            self.statistics = UdfStatistics()

    def __call__(self, *arrays: np.ndarray) -> np.ndarray:
        if len(arrays) != self.arity:
            raise ExecutionError(
                f"UDF {self.name} expects {self.arity} arguments, "
                f"got {len(arrays)}"
            )
        length = len(arrays[0]) if arrays else 0
        self.statistics.rows += length
        if self.vectorized:
            self.statistics.calls += 1
            return self._call_vectorized(arrays, length)
        return self._call_per_tuple(arrays, length)

    def _call_vectorized(
        self, arrays: tuple[np.ndarray, ...], length: int
    ) -> np.ndarray:
        if self.marshal:
            # The engine/interpreter boundary serializes each vector
            # row-wise through an interchange buffer and parses it back
            # on the UDF side (and the same for the results) — the
            # "data conversions and data transport between the engine
            # and the Python environment" the paper names as the UDF
            # variant's overhead (§6.2.1).  This is real per-value CPU
            # work of the same kind the ODBC simulation pays, which is
            # what puts UDF and TF(Python) in the same performance
            # class in Figure 8.
            row_format = "<" + "d" * len(arrays)
            packer = struct.Struct(row_format)
            wire = bytearray()
            for row in zip(*(array.tolist() for array in arrays)):
                wire += packer.pack(*(float(value) for value in row))
            columns = [[] for _ in arrays]
            for values in struct.iter_unpack(row_format, bytes(wire)):
                for slot, value in enumerate(values):
                    columns[slot].append(value)
            arguments = columns
        else:
            arguments = list(arrays)
        results = self.function(*arguments)
        if self.marshal:
            result_list = [float(value) for value in results]
            out_wire = struct.pack(
                f"<{len(result_list)}d", *result_list
            )
            results = list(
                struct.unpack(f"<{len(result_list)}d", out_wire)
            )
        output = np.asarray(results, dtype=self.result_type.numpy_dtype)
        if len(output) != length:
            raise ExecutionError(
                f"UDF {self.name} returned {len(output)} values "
                f"for {length} input rows"
            )
        return output

    def _call_per_tuple(
        self, arrays: tuple[np.ndarray, ...], length: int
    ) -> np.ndarray:
        rows = zip(*(array.tolist() for array in arrays))
        results = []
        for row in rows:
            self.statistics.calls += 1
            results.append(self.function(*row))
        return np.asarray(results, dtype=self.result_type.numpy_dtype)

    def as_scalar_function(self) -> ScalarFunction:
        """Adapter so the expression evaluator can call this UDF."""
        result_type = self.result_type

        def type_rule(argument_types: list[SqlType]) -> SqlType:
            return result_type

        return ScalarFunction(self.name, self.arity, self, type_rule)


def register_udf(udf: PythonUdf) -> PythonUdf:
    """Make *udf* callable from SQL expressions."""
    register_function(udf.as_scalar_function())
    return udf
