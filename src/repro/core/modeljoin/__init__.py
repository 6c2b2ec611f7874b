"""The native ModelJoin operator (paper Section 5).

A two-phase join operator integrated into the vectorized engine:

- **build phase** (:mod:`repro.core.modeljoin.builder`): all partition
  pipelines cooperatively parse the relational model table into shared
  weight matrices — distinct partitions touch distinct matrix cells, so
  the fill is synchronization-free; a single barrier separates build
  from inference (Figure 6),
- **inference phase** (:mod:`repro.core.modeljoin.inference`): one
  kernel per inference batch of whole 1024-tuple vectors packs the
  input columns into a matrix once and runs the layers through the
  BLAS-style device interface (Figure 7, Listing 5 for LSTM), on the
  host CPU or on the simulated GPU.
"""

from repro.core.modeljoin.builder import BuiltModel, ModelBuilder
from repro.core.modeljoin.inference import VectorizedInference
from repro.core.modeljoin.operator import ModelJoinOperator

__all__ = [
    "BuiltModel",
    "ModelBuilder",
    "VectorizedInference",
    "ModelJoinOperator",
]
