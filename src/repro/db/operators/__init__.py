"""Vectorized Volcano-style physical operators.

Every operator implements the classic ``open() / next() / close()``
iterator contract (paper Section 5.1) exposed pythonically through
:meth:`~repro.db.operators.base.PhysicalOperator.batches`.  Operators
exchange :class:`~repro.db.vector.VectorBatch` objects and report
significant allocations (hash tables, buffered state) to the execution
context's memory accountant.
"""

from repro.db.operators.base import (
    ExecutionContext,
    PhysicalOperator,
    QueryContext,
)
from repro.db.operators.scan import TableScan
from repro.db.operators.join import HashJoin
from repro.db.operators.cross_join import CrossJoin
from repro.db.operators.aggregate import (
    AggregateSpec,
    HashAggregate,
    OrderedAggregate,
)
from repro.db.operators.sort import SortOperator
from repro.db.operators.misc import LimitOperator, UnionAll, ValuesOperator

__all__ = [
    "ExecutionContext",
    "PhysicalOperator",
    "QueryContext",
    "TableScan",
    "HashJoin",
    "CrossJoin",
    "AggregateSpec",
    "HashAggregate",
    "OrderedAggregate",
    "SortOperator",
    "LimitOperator",
    "UnionAll",
    "ValuesOperator",
]
