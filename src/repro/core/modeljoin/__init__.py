"""The native ModelJoin operator (paper Section 5).

A two-phase join operator integrated into the vectorized engine:

- **build phase** (:mod:`repro.core.modeljoin.builder`): all partition
  pipelines cooperatively parse the relational model table into shared
  weight matrices — distinct partitions touch distinct matrix cells, so
  the fill is synchronization-free; a single barrier separates build
  from inference (Figure 6),
- **inference phase** (:mod:`repro.core.modeljoin.inference`): per
  inference batch of whole 1024-tuple vectors, input columns are packed
  into a matrix once, the layer-forward functions run through the
  BLAS-style device interface (Listing 5 for LSTM), and results are
  unpacked into output vectors (Figure 7).  Runs on the host CPU or on
  the simulated GPU.
"""

from repro.core.modeljoin.builder import BuiltModel, ModelBuilder
from repro.core.modeljoin.inference import VectorizedInference
from repro.core.modeljoin.operator import (
    ModelJoinOperator,
    modeljoin_operator_factory,
)

__all__ = [
    "BuiltModel",
    "ModelBuilder",
    "VectorizedInference",
    "ModelJoinOperator",
    "modeljoin_operator_factory",
]
