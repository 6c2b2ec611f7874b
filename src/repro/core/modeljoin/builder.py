"""Parallel model build phase (paper Section 5.2, Figure 6).

Weight matrices and bias vectors are allocated once, single-threaded,
into a memory location shared by all execution threads.  Each thread
then parses its partition of the relational model table and writes the
weights into the matrix cells addressed by the ``(Node_in, Node)``
pair.  Partitions are disjoint, so cell writes need no synchronization
(dense bias values are replicated on every incoming edge — concurrent
writers store the *same* value, which is benign); a single barrier
separates building from inference.

As the paper's GPU optimization prescribes, the build always fills
host memory and moves the finished model to the device *once* at
finalization, avoiding fine-grained transfers.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.core.ml_to_sql.representation import LayerBlock, blocks_from_dims
from repro.db.catalog import LayerMetadata
from repro.db.vector import VectorBatch
from repro.device.base import Device
from repro.errors import ModelJoinError, WorkerCrashError

_GATES = ("i", "f", "c", "o")


@dataclass
class DenseLayerWeights:
    """Built weights of one dense layer."""

    kernel: np.ndarray  # (input_dim, units)
    bias: np.ndarray  # (units,)
    activation: str
    units: int

    def nominal_bytes(self) -> int:
        return self.kernel.nbytes + self.bias.nbytes


@dataclass
class LstmLayerWeights:
    """Built weights of one LSTM layer (gate order i, f, c, o)."""

    kernel: np.ndarray  # (features, 4*units)
    recurrent_kernel: np.ndarray  # (units, 4*units)
    bias: np.ndarray  # (4*units,)
    activation: str
    recurrent_activation: str
    units: int
    time_steps: int

    def nominal_bytes(self) -> int:
        return (
            self.kernel.nbytes
            + self.recurrent_kernel.nbytes
            + self.bias.nbytes
        )


@dataclass
class BuiltModel:
    """The shared, fully built model ready for vectorized inference.

    Only the weights: the bias replication of ``y := Ax + y`` is sized
    by the batches a query scores, so it lives in the per-pipeline
    :class:`~repro.device.arena.BufferArena` or, on the host, beside the
    build's model-cache entry
    (:meth:`~repro.core.modeljoin.cache.ModelCache.bias_replica`), not
    here.
    """

    layers: list[DenseLayerWeights | LstmLayerWeights]
    input_width: int
    output_width: int
    time_steps: int
    on_device: bool = False

    def nominal_bytes(self) -> int:
        return sum(layer.nominal_bytes() for layer in self.layers)


class ModelBuilder:
    """Thread-cooperative builder for one ModelJoin execution.

    One instance is shared by all partition pipelines of a query (via
    the execution context's shared state).  Each pipeline calls
    :meth:`consume_batch` for the model-table rows of its partition and
    then :meth:`wait_and_finalize`, which runs the barrier and performs
    the one-time device upload.
    """

    def __init__(
        self,
        input_width: int,
        layers: list[LayerMetadata],
        parties: int,
    ):
        if not layers:
            raise ModelJoinError("a model needs at least one layer")
        self.input_width = input_width
        self.layer_metadata = list(layers)
        self.blocks: list[LayerBlock] = blocks_from_dims(
            input_width,
            [
                (meta.layer_type, meta.units, meta.activation)
                for meta in layers
            ],
        )
        self._barrier = threading.Barrier(parties)
        self._finalize_lock = threading.Lock()
        self._built: BuiltModel | None = None
        self._rows_consumed = 0
        self._count_lock = threading.Lock()
        self._host_layers = self._allocate_host_layers()

    # ------------------------------------------------------------------
    # allocation (single-threaded: done in the constructor)
    # ------------------------------------------------------------------
    def _allocate_host_layers(self):
        host_layers = []
        previous_units = self.input_width
        first = True
        for meta, block in zip(
            self.layer_metadata,
            [b for b in self.blocks if b.kind != "input"],
        ):
            if meta.layer_type == "lstm":
                if not first:
                    raise ModelJoinError(
                        "LSTM is only supported as the first layer"
                    )
                host_layers.append(
                    LstmLayerWeights(
                        kernel=np.zeros((1, 4 * meta.units), np.float32),
                        recurrent_kernel=np.zeros(
                            (meta.units, 4 * meta.units), np.float32
                        ),
                        bias=np.zeros(4 * meta.units, np.float32),
                        activation=meta.activation,
                        recurrent_activation="sigmoid",
                        units=meta.units,
                        time_steps=meta.time_steps,
                    )
                )
            else:
                host_layers.append(
                    DenseLayerWeights(
                        kernel=np.zeros(
                            (previous_units, meta.units), np.float32
                        ),
                        bias=np.zeros(meta.units, np.float32),
                        activation=meta.activation,
                        units=meta.units,
                    )
                )
            previous_units = meta.units
            first = False
        return host_layers

    # ------------------------------------------------------------------
    # parallel fill
    # ------------------------------------------------------------------
    def consume_batch(self, batch: VectorBatch) -> None:
        """Parse one vector of model-table rows into the matrices."""
        if len(batch) == 0:
            return
        node_in = batch.column("node_in")
        node = batch.column("node")
        with self._count_lock:
            self._rows_consumed += len(batch)
        forward_blocks = [b for b in self.blocks if b.kind != "input"]
        for block, weights in zip(forward_blocks, self._host_layers):
            mask = (node >= block.first_node) & (node <= block.last_node)
            if not mask.any():
                continue
            targets = (node[mask] - block.first_node).astype(np.int64)
            sources = node_in[mask].astype(np.int64)
            if isinstance(weights, LstmLayerWeights):
                self._fill_lstm(batch, mask, sources, targets, block, weights)
            else:
                self._fill_dense(batch, mask, sources, targets, block, weights)

    def _previous_block(self, block: LayerBlock) -> LayerBlock:
        position = self.blocks.index(block)
        if position == 0:
            raise ModelJoinError(f"block {block.kind} has no predecessor")
        return self.blocks[position - 1]

    def _fill_dense(
        self,
        batch: VectorBatch,
        mask: np.ndarray,
        sources: np.ndarray,
        targets: np.ndarray,
        block: LayerBlock,
        weights: DenseLayerWeights,
    ) -> None:
        previous = self._previous_block(block)
        local_sources = sources - previous.first_node
        if (local_sources < 0).any() or (
            local_sources >= weights.kernel.shape[0]
        ).any():
            raise ModelJoinError(
                f"model row references node_in outside the previous "
                f"layer for block at node {block.first_node}"
            )
        weights.kernel[local_sources, targets] = batch.column("w_i")[mask]
        weights.bias[targets] = batch.column("b_i")[mask]

    def _fill_lstm(
        self,
        batch: VectorBatch,
        mask: np.ndarray,
        sources: np.ndarray,
        targets: np.ndarray,
        block: LayerBlock,
        weights: LstmLayerWeights,
    ) -> None:
        local_sources = sources - block.first_node
        if (local_sources < 0).any() or (
            local_sources >= weights.units
        ).any():
            raise ModelJoinError(
                "LSTM model row references node_in outside the state block"
            )
        units = weights.units
        diagonal = local_sources == targets
        for position, gate in enumerate(_GATES):
            columns = position * units + targets
            weights.recurrent_kernel[local_sources, columns] = batch.column(
                f"u_{gate}"
            )[mask]
            if diagonal.any():
                diag_columns = position * units + targets[diagonal]
                weights.kernel[0, diag_columns] = batch.column(f"w_{gate}")[
                    mask
                ][diagonal]
                weights.bias[diag_columns] = batch.column(f"b_{gate}")[mask][
                    diagonal
                ]

    # ------------------------------------------------------------------
    # barrier + finalization
    # ------------------------------------------------------------------
    def wait_and_finalize(self, device: Device) -> BuiltModel:
        """Barrier, then one thread uploads the finished model.

        Every partition pipeline calls this once; all block until the
        model is ready, mirroring Figure 6's single synchronization
        point before the inference phase starts.

        Failure semantics: if a cooperating pipeline crashed before
        reaching the barrier it calls :meth:`abort`, which breaks the
        barrier — the pipelines already waiting then observe a
        :class:`WorkerCrashError` (retryable) instead of hanging
        forever.  A retried pipeline arriving after a successful build
        short-circuits past the (spent) barrier.
        """
        if self._built is not None:
            # A retried pipeline joining after the group already built:
            # the original barrier is spent, the model is ready.
            return self._built
        try:
            self._barrier.wait()
        except threading.BrokenBarrierError as error:
            raise WorkerCrashError(
                "model build aborted: a cooperating pipeline crashed "
                "before the build barrier"
            ) from error
        with self._finalize_lock:
            if self._built is None:
                self._built = self._finalize(device)
        return self._built

    def abort(self) -> None:
        """Break the build barrier so waiting pipelines fail fast.

        Called by a pipeline that crashed mid-build; without it the
        surviving pipelines would block on :meth:`wait_and_finalize`
        forever (the crashed party can never arrive).  Idempotent.
        """
        self._barrier.abort()

    def _finalize(self, device: Device) -> BuiltModel:
        layers = []
        for weights in self._host_layers:
            if isinstance(weights, LstmLayerWeights):
                layers.append(
                    LstmLayerWeights(
                        kernel=device.to_device(weights.kernel),
                        recurrent_kernel=device.to_device(
                            weights.recurrent_kernel
                        ),
                        bias=device.to_device(weights.bias),
                        activation=weights.activation,
                        recurrent_activation=weights.recurrent_activation,
                        units=weights.units,
                        time_steps=weights.time_steps,
                    )
                )
            else:
                layers.append(
                    DenseLayerWeights(
                        kernel=device.to_device(weights.kernel),
                        bias=device.to_device(weights.bias),
                        activation=weights.activation,
                        units=weights.units,
                    )
                )
        first = self.layer_metadata[0]
        time_steps = first.time_steps if first.layer_type == "lstm" else 1
        return BuiltModel(
            layers=layers,
            input_width=self.input_width,
            output_width=self.layer_metadata[-1].units,
            time_steps=time_steps,
            on_device=device.is_gpu,
        )

    @property
    def rows_consumed(self) -> int:
        return self._rows_consumed
