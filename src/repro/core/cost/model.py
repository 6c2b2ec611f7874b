"""A cost model for in-database model inference.

The paper's conclusion calls for exactly this: "In order to optimize
queries containing such a model inference, a cost model is an important
missing factor ...  The cost for inference could thereby be based on an
investigation of the model structure, as our evaluation showed that
costs increase linearly with model size."

The model estimates FLOPs from the model structure (paper Section
6.2.1 derives the parameter counts the same way) and converts them to
seconds with per-approach calibration coefficients, fitted from a
handful of measurements via least squares.  The ablation bench
validates the paper's linearity observation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.db.catalog import LayerMetadata, ModelMetadata
from repro.errors import ModelJoinError
from repro.nn.layers import Dense, Lstm
from repro.nn.model import Sequential


@dataclass(frozen=True)
class CostEstimate:
    """Predicted cost of one inference query."""

    flops_per_tuple: float
    tuples: int
    predicted_seconds: float | None

    @property
    def total_flops(self) -> float:
        return self.flops_per_tuple * self.tuples


def flops_per_tuple_of_metadata(metadata: ModelMetadata) -> float:
    """FLOPs to infer one tuple, from catalog metadata alone."""
    total = 0.0
    previous = metadata.input_width
    for layer in metadata.layers:
        total += _layer_flops(layer, previous)
        previous = layer.units
    return total


def _layer_flops(layer: LayerMetadata, previous_units: int) -> float:
    if layer.layer_type == "dense":
        # multiply-add per kernel weight, plus bias and activation
        return 2.0 * previous_units * layer.units + 2.0 * layer.units
    # LSTM: per time step, kernel (features x 4u) + recurrent (u x 4u)
    # matmuls plus ~10 elementwise ops per unit (gates and state).
    features = 1
    per_step = (
        2.0 * features * 4 * layer.units
        + 2.0 * layer.units * 4 * layer.units
        + 10.0 * layer.units
    )
    return per_step * layer.time_steps


def flops_per_tuple_of_model(model: Sequential) -> float:
    """FLOPs to infer one tuple, from the framework model object."""
    total = 0.0
    previous = (
        1 if isinstance(model.layers[0], Lstm) else model.input_width
    )
    for layer in model.layers:
        if isinstance(layer, Dense):
            total += 2.0 * previous * layer.units + 2.0 * layer.units
        elif isinstance(layer, Lstm):
            per_step = (
                2.0 * layer.input_dim * 4 * layer.units
                + 2.0 * layer.units * 4 * layer.units
                + 10.0 * layer.units
            )
            total += per_step * model.time_steps
        previous = layer.units
    return total


@dataclass
class InferenceCostModel:
    """Linear cost model: ``seconds = a * tuples * flops + b * tuples + c``.

    One instance per approach (the coefficients of the native operator
    differ from ML-To-SQL's by orders of magnitude — that *is* the
    paper's result).  Calibrate with a few (tuples, flops_per_tuple,
    seconds) observations, then predict.
    """

    coefficients: np.ndarray | None = field(default=None)

    def calibrate(
        self,
        observations: list[tuple[int, float, float]],
    ) -> None:
        """Least-squares fit from (tuples, flops_per_tuple, seconds)."""
        if len(observations) < 3:
            raise ModelJoinError(
                "calibration needs at least 3 observations"
            )
        rows = np.array(
            [
                [tuples * flops, tuples, 1.0]
                for tuples, flops, _ in observations
            ],
            dtype=np.float64,
        )
        targets = np.array(
            [seconds for _, _, seconds in observations], dtype=np.float64
        )
        solution, *_ = np.linalg.lstsq(rows, targets, rcond=None)
        self.coefficients = solution

    def estimate(
        self,
        metadata_or_model: ModelMetadata | Sequential,
        tuples: int,
    ) -> CostEstimate:
        """Predict the cost of inferring *tuples* rows."""
        if isinstance(metadata_or_model, ModelMetadata):
            flops = flops_per_tuple_of_metadata(metadata_or_model)
        else:
            flops = flops_per_tuple_of_model(metadata_or_model)
        return CostEstimate(
            flops_per_tuple=flops,
            tuples=tuples,
            predicted_seconds=self.predict(flops, tuples),
        )

    def predict(self, flops_per_tuple: float, tuples: int) -> float | None:
        """Predicted seconds for *tuples* rows of *flops_per_tuple*
        (None while uncalibrated)."""
        if self.coefficients is None:
            return None
        a, b, c = self.coefficients
        return float(a * tuples * flops_per_tuple + b * tuples + c)
