"""Vectorized model inference (paper Section 5.4, Figure 7, Listing 5).

The inference phase receives a set of column vectors, packs them into a
``(rows, n)`` input matrix (each column copied exactly once), walks the
model layers through the BLAS-style device interface, and unpacks the
result matrix into output column vectors.

The paper runs one forward per 1024-tuple vector; the operator here
runs one per *inference batch* of :func:`inference_batch_rows` rows —
a morsel of whole consecutive scan vectors, so the GEMMs see the same
rows at the same offsets and the predictions stay bit-identical to
per-vector scoring (docs/ARCHITECTURE.md, "Execution batches and
inference batches").

The bias-matrix replication optimization is honoured: each bias vector
is replicated to ``(rows, units)`` and the layer forward lets ``sgemm``
accumulate into it (``y := Ax + y``), turning many fine-grained bias
additions into one large copy (Section 5.4).  The replica is sized by
the batches a pipeline actually scores, so it lives in the pipeline's
:class:`~repro.device.arena.BufferArena` — filled on first use, grown
only when a batch is longer than any before — not in the cached model.

Because the operator runs the same forward for thousands of
batches, per-batch heap churn is pure overhead: the arena preallocates
every workspace (packed input, layer outputs, LSTM gate buffers) at the
pipeline's batch length and the forwards write into them through the
device interface's ``out=`` contract.  The results are bit-exact with
the allocating path — the arena only changes *where* the numbers land,
never how they are computed.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.core.modeljoin.builder import (
    BuiltModel,
    DenseLayerWeights,
    LstmLayerWeights,
)
from repro.db.catalog import LayerMetadata
from repro.db.parallel import MORSEL_ROWS
from repro.db.profiler import ProfileCounters
from repro.device.arena import BufferArena
from repro.device.base import Device
from repro.errors import ModelJoinError

#: float32 bytes the widest activation of one inference batch may take:
#: past it a longer batch no longer saves dispatch, it spills the cache
BATCH_WORKSPACE_BYTES = 512 * 1024


def inference_batch_rows(
    layers: Iterable[LayerMetadata], vector_size: int
) -> int:
    """Rows the native ModelJoin scores per forward pass.

    One morsel (``MORSEL_ROWS``) capped so that the widest activation —
    ``4·units`` gate pre-activations for an LSTM — stays within
    :data:`BATCH_WORKSPACE_BYTES`, rounded down to whole scan vectors
    and never below one.
    """
    widest = max(
        4 * layer.units if layer.layer_type == "lstm" else layer.units
        for layer in layers
    )
    rows = min(MORSEL_ROWS, BATCH_WORKSPACE_BYTES // (4 * widest))
    return max(vector_size, rows - rows % vector_size)


def pack_columns(
    columns: list[np.ndarray], out: np.ndarray | None = None
) -> np.ndarray:
    """Copy input column vectors into a row-major (rows, n) matrix.

    Each column vector is touched exactly once (first step of Figure 7).
    With *out* the packing writes into the given preallocated matrix.
    """
    if not columns:
        raise ModelJoinError("inference needs at least one input column")
    rows = len(columns[0])
    if out is None:
        matrix = np.empty((rows, len(columns)), dtype=np.float32)
    else:
        if out.shape != (rows, len(columns)):
            raise ModelJoinError(
                f"pack buffer has shape {out.shape}, "
                f"need {(rows, len(columns))}"
            )
        matrix = out
    for index, column in enumerate(columns):
        matrix[:, index] = column.astype(np.float32, copy=False)
    return matrix


def unpack_columns(matrix: np.ndarray) -> list[np.ndarray]:
    """Break the result matrix back into column vectors (last step).

    Always copies: the matrix may be a reused arena buffer, and the
    yielded column vectors must survive the next inference call.
    """
    return [matrix[:, index].copy() for index in range(matrix.shape[1])]


def unpack_views(matrix: np.ndarray) -> list[np.ndarray]:
    """Strided column views into *matrix* — no copies (epilogue fusion).

    Counterpart of :func:`unpack_columns` used when a compiled consumer
    kernel is fused onto the ModelJoin's output: the kernel reads (and,
    for pass-through outputs, copies) the prediction columns before the
    next inference call reuses the arena buffer, so the intermediate
    per-column materialization disappears.  Callers must not hold these
    views across batches.
    """
    return [matrix[:, index] for index in range(matrix.shape[1])]


class VectorizedInference:
    """Executes the layer-forward functions for one built model.

    With *batch_rows* set, a :class:`BufferArena` is installed and all
    forwards reuse preallocated workspaces; the returned result matrix
    is then a live buffer that the caller must copy out of (which
    :func:`unpack_columns` does) before the next :meth:`infer` call.
    Without it, every call allocates fresh arrays — the contract the
    pre-arena callers rely on — and biases are broadcast-added.
    *replicate_bias* False broadcast-adds with an arena too (the
    ablation of Section 5.4's replication); the sums are the same
    either way.
    """

    def __init__(
        self,
        built: BuiltModel,
        device: Device,
        batch_rows: int | None = None,
        counters: ProfileCounters | None = None,
        replicate_bias: bool = True,
    ):
        self.built = built
        self.device = device
        self.replicate_bias = replicate_bias
        self.arena = (
            BufferArena(batch_rows, counters)
            if batch_rows is not None
            else None
        )

    def _take(self, tag: str, rows: int, cols: int) -> np.ndarray | None:
        if self.arena is None:
            return None
        return self.arena.take(tag, rows, cols)

    def infer(self, input_matrix: np.ndarray) -> np.ndarray:
        """Run the model for a packed ``(rows, input_width)`` matrix.

        Returns the host-resident ``(rows, output_width)`` result.
        """
        if input_matrix.shape[1] != self.built.input_width:
            raise ModelJoinError(
                f"model expects {self.built.input_width} input columns, "
                f"got {input_matrix.shape[1]}"
            )
        device = self.device
        current = device.to_device(input_matrix)
        for index, layer in enumerate(self.built.layers):
            prefix = f"layer{index}"
            if isinstance(layer, DenseLayerWeights):
                current = self._dense_forward(layer, current, prefix)
            else:
                current = self._lstm_forward(layer, current, prefix)
        return device.to_host(current)

    # ------------------------------------------------------------------
    # layer forward functions
    # ------------------------------------------------------------------
    def _bias_accumulator(
        self, bias: np.ndarray, rows: int, prefix: str
    ) -> np.ndarray:
        """The ``y`` of ``y := Ax + y``: replicated bias rows."""
        if self.arena is None or not self.replicate_bias:
            return bias[np.newaxis, :]  # broadcast add
        return self.arena.replicated(
            f"{prefix}-bias", bias, rows, self.device
        )

    def _dense_forward(
        self,
        layer: DenseLayerWeights,
        current: np.ndarray,
        prefix: str = "dense",
    ) -> np.ndarray:
        device = self.device
        rows = current.shape[0]
        accumulator = self._bias_accumulator(layer.bias, rows, prefix)
        out = self._take(prefix, rows, layer.kernel.shape[1])
        pre = device.gemm(
            current, layer.kernel, accumulate=accumulator, out=out
        )
        # With an arena the activation runs in place over the gemm
        # output; without one it allocates, as it always has.
        return device.activation(
            layer.activation, pre, out=pre if out is not None else None
        )

    def _lstm_forward(
        self,
        layer: LstmLayerWeights,
        sequence: np.ndarray,
        prefix: str = "lstm",
    ) -> np.ndarray:
        """Listing 5: the LSTM layer forward via BLAS primitives."""
        device = self.device
        rows = sequence.shape[0]
        features = layer.kernel.shape[0]
        steps = sequence.shape[1] // features
        if steps != layer.time_steps:
            raise ModelJoinError(
                f"LSTM built for {layer.time_steps} time steps, input "
                f"provides {steps}"
            )
        units = layer.units
        gates = layer.kernel.shape[1]
        hidden: np.ndarray | None = None
        cell: np.ndarray | None = None
        for step in range(steps):
            window = sequence[:, step * features : (step + 1) * features]
            if self.arena is None:
                x_t = np.ascontiguousarray(window)
            else:
                x_t = self.arena.take(f"{prefix}-x", rows, features)
                np.copyto(x_t, window)
            accumulator = self._bias_accumulator(layer.bias, rows, prefix)
            # z_x := x W + b (sger for the rank-1 scalar-series case).
            z = device.gemm(
                x_t,
                layer.kernel,
                accumulate=accumulator,
                out=self._take(f"{prefix}-z", rows, gates),
            )
            if hidden is not None:
                # z_x := h U + z_x (sgemm accumulate).
                recurrent = device.gemm(
                    hidden,
                    layer.recurrent_kernel,
                    out=self._take(f"{prefix}-hz", rows, gates),
                )
                z = device.add(
                    z, recurrent, out=z if self.arena is not None else None
                )
            gate_i = device.activation(
                layer.recurrent_activation,
                z[:, :units],
                out=self._take(f"{prefix}-gi", rows, units),
            )
            gate_f = device.activation(
                layer.recurrent_activation,
                z[:, units : 2 * units],
                out=self._take(f"{prefix}-gf", rows, units),
            )
            candidate = device.activation(
                layer.activation,
                z[:, 2 * units : 3 * units],
                out=self._take(f"{prefix}-cand", rows, units),
            )
            gate_o = device.activation(
                layer.recurrent_activation,
                z[:, 3 * units :],
                out=self._take(f"{prefix}-go", rows, units),
            )
            fresh = device.multiply(  # vsMul
                gate_i,
                candidate,
                out=self._take(f"{prefix}-fresh", rows, units),
            )
            if cell is None:
                cell = device.copy(
                    fresh, out=self._take(f"{prefix}-cell", rows, units)
                )
            else:
                decayed = device.multiply(
                    gate_f,
                    cell,
                    out=self._take(f"{prefix}-decay", rows, units),
                )
                cell = device.add(
                    decayed,
                    fresh,
                    out=cell if self.arena is not None else None,
                )
            activated = device.activation(
                layer.activation,
                cell,
                out=self._take(f"{prefix}-ac", rows, units),
            )
            hidden = device.multiply(
                gate_o,
                activated,
                out=self._take(f"{prefix}-hidden", rows, units),
            )
        if hidden is None:
            raise ModelJoinError("LSTM with zero time steps")
        return hidden
