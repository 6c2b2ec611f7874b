"""Vectorized model inference (paper Section 5.4, Figure 7, Listing 5).

One inference batch packs its input columns into a ``(rows, n)``
matrix (each column copied once), runs the model's layers through the
BLAS-style device interface and hands the result matrix's columns on.
:class:`ModelForward` renders that as the straight-line source of the
ModelJoin's generated kernel; :class:`VectorizedInference` walks the
layers one forward function at a time — the interpreted kernel and the
oracle the generated one matches bit for bit.

The paper runs one forward per 1024-tuple vector; the operator here
runs one per *inference batch* of :func:`inference_batch_rows` rows —
whole consecutive scan vectors, so the GEMMs see the same rows at the
same offsets and the predictions stay bit-identical to per-vector
scoring (docs/ARCHITECTURE.md, "Execution batches and inference
batches").

Each bias vector is replicated to ``(rows, units)`` and ``sgemm``
accumulates into it (``y := Ax + y``, Section 5.4).  Replicas and every
workspace (packed input, layer outputs, LSTM gates) live in the
pipeline's :class:`~repro.device.arena.BufferArena`, sized by the
batches actually scored, and the kernels write into them through the
device interface's ``out=`` contract: the arena changes where the
numbers land, never how they are computed.  On the host, a cached
build's bias replicas are the model cache's
(:meth:`~repro.core.modeljoin.cache.ModelCache.bias_replica`), shared
read-only by every statement scoring it.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.core.modeljoin.builder import (
    BuiltModel,
    DenseLayerWeights,
    LstmLayerWeights,
)
from repro.db.catalog import LayerMetadata
from repro.db.compile.codegen import NonCompilable
from repro.db.parallel import MORSEL_ROWS
from repro.device.arena import BufferArena
from repro.device.base import Device
from repro.errors import ModelJoinError
from repro.nn.activations import get_activation

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


#: source of one dense layer: :meth:`VectorizedInference._dense_forward`
_DENSE = """\
    # {p}: dense({u}, {act})
    w = layers[{index}]
    h = gemm(h, w.kernel, accumulate=bias(w.bias, n, '{p}'),
             out=take('{p}', n, {u}))
    h = act('{act}', h, out=h)
"""
#: source of an LSTM layer (only ever the first): the walk's
#: :meth:`VectorizedInference.lstm_step` once per time step, unrolled
_LSTM = """\
    # {p}: lstm({u}, {act})
    w, step = layers[0], inference.lstm_step
    hidden = cell = None
"""
_LSTM_STEP = """\
    hidden, cell = step(w, h[:, {t}:{next}], hidden, cell, '{p}')
"""


@dataclass(frozen=True)
class ModelForward:
    """The forward half of a ModelJoin kernel (``KernelSpec.model``).

    Straight-line source packing the input columns at schema positions
    *inputs*, then making the per-layer walk's device calls, on the same
    arena buffers, in the same order.  It reads weights, device and
    arena from the kernel's ``inference`` argument (a
    :class:`VectorizedInference`); :meth:`run` is the walk itself.

    *packed*: the operator packs the inputs itself (gathering a filter's
    selected rows straight into the arena's pack buffer), and the kernel
    takes the ``(n, inputs)`` matrix as its argument ``x``; *inputs* are
    then positions in the operator's input, not in ``arrays``.
    """

    layers: tuple[LayerMetadata, ...]
    inputs: tuple[int, ...]
    packed: bool = False

    @property
    def output_width(self) -> int:
        return self.layers[-1].units

    @property
    def arguments(self) -> str:
        """The kernel's arguments after ``params``."""
        return ", inference, x" if self.packed else ", inference"

    def source(self) -> str:
        """Kernel body leaving the host result matrix in ``y``.

        Raises NonCompilable for a model the builder would not build
        (an LSTM past the first layer or over more than one feature per
        step) or an unknown activation: the interpreted kernel then
        raises the walk's own error.
        """
        lines = [
            "    device, take = inference.device, inference.arena.take",
            "    bias = inference.bias_accumulator",
            "    layers = inference.built.layers",
            "    gemm, act = device.gemm, device.activation",
        ]
        if not self.packed:
            lines.append(f"    x = take('pack', n, {len(self.inputs)})")
            lines.extend(
                f"    x[:, {index}] = arrays[{position}]"
                for index, position in enumerate(self.inputs)
            )
        lines.append("    h = device.to_device(x)\n")
        source = "\n".join(lines)
        for index, layer in enumerate(self.layers):
            get_activation(layer.activation)  # raises for an unknown one
            names = dict(
                p=f"layer{index}", u=layer.units, act=layer.activation
            )
            if layer.layer_type == "dense":
                source += _DENSE.format(index=index, **names)
                continue
            if index or layer.time_steps != len(self.inputs):
                raise NonCompilable("an LSTM layer the builder rejects")
            source += _LSTM.format(**names) + "".join(
                _LSTM_STEP.format(t=step, next=step + 1, **names)
                for step in range(layer.time_steps)
            )
            source += "    h = hidden\n"
        return source + "    y = device.to_host(h)\n"

    def run(
        self,
        arrays: list[np.ndarray],
        n: int,
        inference: VectorizedInference,
        x: np.ndarray | None = None,
    ) -> list[np.ndarray]:
        """The interpreted forward: fresh prediction columns (of the
        packed inputs *x*, when the operator packs them)."""
        if x is None:
            pack = inference.arena.take("pack", n, len(self.inputs))
            x = pack_columns([arrays[p] for p in self.inputs], out=pack)
        return unpack_columns(inference.infer(x))


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
    either way.  *shared_replicas*, ``(tag, bias, rows)`` -> a replica
    or None, supplies replicas kept beyond the pipeline; None from it
    (and no *shared_replicas*) replicates into the arena.
    """

    def __init__(
        self,
        built: BuiltModel,
        device: Device,
        batch_rows: int | None = None,
        replicate_bias: bool = True,
        shared_replicas=None,
    ):
        self.built = built
        self.device = device
        self.replicate_bias = replicate_bias
        self.shared_replicas = shared_replicas
        self.arena = (
            BufferArena(batch_rows) if batch_rows is not None else None
        )

    def _take(self, tag: str, rows: int, cols: int) -> np.ndarray:
        """A workspace: the arena's, or a fresh one without an arena."""
        if self.arena is None:
            return np.empty((rows, cols), dtype=np.float32)
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
    def bias_accumulator(
        self, bias: np.ndarray, rows: int, prefix: str
    ) -> np.ndarray:
        """The ``y`` of ``y := Ax + y``: replicated bias rows."""
        if self.arena is None or not self.replicate_bias:
            return bias[np.newaxis, :]  # broadcast add
        tag = f"{prefix}-bias"
        if self.shared_replicas is not None:
            replica = self.shared_replicas(tag, bias, rows)
            if replica is not None:
                return replica
        return self.arena.replicated(tag, bias, rows, self.device)

    def _dense_forward(
        self, layer: DenseLayerWeights, current: np.ndarray, prefix: str
    ) -> np.ndarray:
        rows = current.shape[0]
        pre = self.device.gemm(
            current,
            layer.kernel,
            accumulate=self.bias_accumulator(layer.bias, rows, prefix),
            out=self._take(prefix, rows, layer.kernel.shape[1]),
        )
        return self.device.activation(layer.activation, pre, out=pre)

    def _lstm_forward(
        self, layer: LstmLayerWeights, sequence: np.ndarray, prefix: str
    ) -> np.ndarray:
        """Listing 5: the LSTM layer forward via BLAS primitives, one
        :meth:`lstm_step` per time step."""
        features = layer.kernel.shape[0]
        steps = sequence.shape[1] // features
        if steps != layer.time_steps:
            raise ModelJoinError(
                f"LSTM built for {layer.time_steps} time steps, input "
                f"provides {steps}"
            )
        if not steps:
            raise ModelJoinError("LSTM with zero time steps")
        hidden = cell = None
        for step in range(steps):
            window = sequence[:, step * features:(step + 1) * features]
            hidden, cell = self.lstm_step(layer, window, hidden, cell, prefix)
        return hidden

    def lstm_step(
        self,
        layer: LstmLayerWeights,
        window: np.ndarray,
        hidden: np.ndarray | None,
        cell: np.ndarray | None,
        prefix: str,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One time step over the inputs *window*: the next hidden and
        cell state (the first step has none to start from)."""
        device = self.device
        rows, features = window.shape
        units = layer.units
        gate, act = layer.recurrent_activation, layer.activation

        def take(tag: str, cols: int) -> np.ndarray:
            return self._take(f"{prefix}-{tag}", rows, cols)

        x_t = take("x", features)
        np.copyto(x_t, window)
        accumulator = self.bias_accumulator(layer.bias, rows, prefix)
        # z_x := x W + b (sger for the rank-1 scalar-series case).
        z = device.gemm(
            x_t, layer.kernel, accumulate=accumulator, out=take("z", 4 * units)
        )
        if hidden is not None:
            # z_x := h U + z_x (sgemm accumulate).
            recurrent = device.gemm(
                hidden, layer.recurrent_kernel, out=take("hz", 4 * units)
            )
            z = device.add(z, recurrent, out=z)
        gate_i = device.activation(gate, z[:, :units], out=take("gi", units))
        gate_f = device.activation(
            gate, z[:, units:2 * units], out=take("gf", units)
        )
        candidate = device.activation(
            act, z[:, 2 * units:3 * units], out=take("cand", units)
        )
        gate_o = device.activation(
            gate, z[:, 3 * units:], out=take("go", units)
        )
        fresh = device.multiply(gate_i, candidate, out=take("fresh", units))
        if cell is None:
            cell = device.copy(fresh, out=take("cell", units))
        else:
            decayed = device.multiply(gate_f, cell, out=take("decay", units))
            cell = device.add(decayed, fresh, out=cell)
        activated = device.activation(act, cell, out=take("ac", units))
        hidden = device.multiply(gate_o, activated, out=take("hidden", units))
        return hidden, cell
