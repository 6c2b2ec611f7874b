"""Relational model representation (paper Sections 4.1, 4.3, 4.4).

A model becomes rows of a single *model table*.  Every row is one edge
of the (internal) model graph of Figure 4, carrying a 12-element weight
vector: kernel weights ``(W_i, W_f, W_c, W_o)``, recurrent-kernel
weights ``(U_i, U_f, U_c, U_o)`` and bias weights ``(b_i, b_f, b_c,
b_o)``.  Dense layers only populate ``W_i``/``b_i``; LSTM layers
populate all twelve across their two sublayers.

Two node addressing schemes are supported:

- **classic** (Section 4.1): a node is the pair ``(Layer, Node)``; an
  edge is ``(Layer_in, Node_in, Layer, Node)`` — 16 columns total.
- **optimized** (Section 4.4): a single unique node id assigned by
  traversing the graph; joins become one-column joins plus an offset,
  and the per-layer filter becomes a range predicate on ``Node``
  (prunable through the SMA zone maps) — 14 columns total.

Graph construction follows Section 4.3:

- an artificial input layer with a single node (id/-layer ``-1``),
- for dense-first models, an identity *input layer* with one node per
  input column, connected from the artificial node with ``W_i = 1``
  (Listing 3's input function selects the matching column per node),
- for each LSTM layer, one block of *state nodes* with a full set of
  recurrent edges (``U`` weights); the diagonal self-edges additionally
  carry the kernel weights ``W`` and biases ``b``.  Weight matrices are
  stored exactly once even though the computation unrolls over the time
  steps (Section 4.3.3).  This merged-diagonal layout is a documented
  refinement of the paper's kernel/recurrent-sublayer formulation: it
  preserves the representation's contract (edge rows with 12-weight
  vectors, stored once) while letting every generated time step
  reference the previous step's subquery exactly once — the paper's
  "backward edge" formulation would re-execute the nested prefix twice
  per step in any engine without common-subexpression reuse.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.db.schema import Schema
from repro.db.types import SqlType
from repro.errors import UnsupportedModelError
from repro.nn.layers import Lstm
from repro.nn.model import Sequential

#: the 12 weight columns of the model table, in paper order
WEIGHT_COLUMNS = (
    "w_i",
    "w_f",
    "w_c",
    "w_o",
    "u_i",
    "u_f",
    "u_c",
    "u_o",
    "b_i",
    "b_f",
    "b_c",
    "b_o",
)


@dataclass(frozen=True)
class MlToSqlOptions:
    """Generation options (the Section 4.4 optimizations are defaults).

    ``optimized_node_ids`` selects the unique-node-id scheme;
    ``native_activation_functions`` emits the engine's SIGMOID/TANH/RELU
    instead of portable arithmetic/CASE SQL; ``sort_tables`` declares
    sort keys on the model/fact tables so the engine can use the
    streaming (order-based) aggregation of Section 4.4.
    """

    optimized_node_ids: bool = True
    native_activation_functions: bool = True
    sort_tables: bool = True
    model_table_partitions: int = 1

    def __post_init__(self) -> None:
        if self.model_table_partitions < 1:
            raise UnsupportedModelError("model table needs >= 1 partition")


@dataclass(frozen=True)
class LayerBlock:
    """One block of contiguous node ids in the relational graph."""

    kind: str  # "input" | "dense" | "lstm_state"
    layer_index: int  # the model-table Layer value (classic scheme)
    first_node: int  # first global node id (optimized scheme)
    units: int
    activation: str = "linear"
    recurrent_activation: str = "sigmoid"

    @property
    def last_node(self) -> int:
        return self.first_node + self.units - 1


@dataclass
class RelationalModel:
    """A model converted to model-table columns plus its layout metadata."""

    options: MlToSqlOptions
    blocks: list[LayerBlock]
    #: one array per column of :func:`model_table_schema` for
    #: ``options``, in schema order, rows in ``(node, node_in)`` order
    columns: dict[str, np.ndarray]
    input_width: int
    output_width: int
    time_steps: int
    has_lstm: bool
    table_name: str | None = None
    source: Sequential | None = field(default=None, repr=False)

    @property
    def edge_count(self) -> int:
        return len(self.columns["node"])

    def block(self, kind: str, occurrence: int = 0) -> LayerBlock:
        matches = [block for block in self.blocks if block.kind == kind]
        return matches[occurrence]

    def forward_blocks(self) -> list[LayerBlock]:
        """The blocks the generated query walks, in execution order."""
        return [block for block in self.blocks if block.kind != "input"]


def model_table_schema(options: MlToSqlOptions) -> Schema:
    """Schema of the model table for the chosen addressing scheme."""
    if options.optimized_node_ids:
        keys = [("node_in", SqlType.INTEGER), ("node", SqlType.INTEGER)]
    else:
        keys = [
            ("layer_in", SqlType.INTEGER),
            ("node_in", SqlType.INTEGER),
            ("layer", SqlType.INTEGER),
            ("node", SqlType.INTEGER),
        ]
    weights = [(name, SqlType.FLOAT) for name in WEIGHT_COLUMNS]
    return Schema.of(*(keys + weights))


#: the artificial input node (id and layer ``-1``) feeding the input layer
_ARTIFICIAL_INPUT = LayerBlock("artificial", -1, -1, 1)


def build_relational_model(
    model: Sequential, options: MlToSqlOptions | None = None
) -> RelationalModel:
    """Convert *model* into model-table columns (Section 4.3).

    Supports the architectures of the paper's evaluation: dense-only
    stacks, and an LSTM first layer (scalar time series) followed by
    dense layers.  Each block's incoming edges form one target-major
    ``target x source`` grid, written as a slice of every column, and
    blocks take ascending node ids, so the columns come out already in
    ``(node, node_in)`` order.
    """
    options = options or MlToSqlOptions()
    if model.has_lstm and model.features_per_step != 1:
        raise UnsupportedModelError(
            "ML-To-SQL supports scalar time series only "
            "(one input column per time step, as in the paper)"
        )
    blocks = blocks_from_dims(
        model.input_width,
        [
            (layer.layer_type, layer.units, layer.activation.name)
            for layer in model.layers
        ],
    )
    # (source block, target block, layer) per grid; the identity input
    # layer has no weights of its own and an LSTM feeds its own state.
    layers = ([None] if blocks[0].kind == "input" else []) + model.layers
    grids = []
    source = _ARTIFICIAL_INPUT
    for index, layer in enumerate(layers):
        if isinstance(layer, Lstm):
            # the generated LSTM steps read the gate activation here
            blocks[index] = source = replace(
                blocks[index],
                recurrent_activation=layer.recurrent_activation.name,
            )
        grids.append((source, blocks[index], layer))
        source = blocks[index]

    schema = model_table_schema(options)
    edges = sum(source.units * target.units for source, target, _ in grids)
    columns = {
        column.name: np.zeros(edges, column.sql_type.numpy_dtype)
        for column in schema
    }
    start = 0
    for source, target, layer in grids:
        stop = start + source.units * target.units
        grid = {
            name: array[start:stop].reshape(target.units, source.units)
            for name, array in columns.items()
        }
        start = stop
        targets = np.arange(target.first_node, target.last_node + 1)
        grid["node"][:] = targets[:, None]
        grid["node_in"][:] = np.arange(source.first_node, source.last_node + 1)
        if not options.optimized_node_ids:
            grid["layer"][:] = target.layer_index
            grid["layer_in"][:] = source.layer_index
        if layer is None:
            grid["w_i"][:] = 1.0  # identity edges (Listing 3)
        elif isinstance(layer, Lstm):
            # The diagonal self-edges additionally carry the kernel
            # weights and the biases; both weight matrices are stored
            # exactly once (Section 4.3.3, see templates.py).
            for gate, cells in layer.gate_slices().items():
                grid[f"u_{gate}"][:] = layer.recurrent_kernel[:, cells].T
                np.fill_diagonal(grid[f"w_{gate}"], layer.kernel[0, cells])
                np.fill_diagonal(grid[f"b_{gate}"], layer.bias[cells])
        else:
            grid["w_i"][:] = layer.kernel.T
            grid["b_i"][:] = layer.bias[:, None]

    return RelationalModel(
        options=options,
        blocks=blocks,
        columns=columns,
        input_width=model.input_width,
        output_width=model.output_width,
        time_steps=model.time_steps,
        has_lstm=model.has_lstm,
        source=model,
    )


def blocks_from_dims(
    input_width: int,
    layer_dims: list[tuple[str, int, str]],
) -> list[LayerBlock]:
    """Node-id layout from layer metadata alone (no weights needed).

    *layer_dims* is a list of ``(layer_type, units, activation)``.  The
    one node layout: :func:`build_relational_model` writes the model
    table with these ids and the native operator's build phase maps
    model-table rows back to weight-matrix cells with them.
    """
    blocks: list[LayerBlock] = []
    next_node = 0
    layer_index = 0
    first_is_lstm = bool(layer_dims) and layer_dims[0][0] == "lstm"
    if not first_is_lstm:
        blocks.append(LayerBlock("input", layer_index, next_node, input_width))
        next_node += input_width
        layer_index += 1
    for layer_type, units, activation in layer_dims:
        if layer_type == "lstm":
            blocks.append(
                LayerBlock(
                    "lstm_state", layer_index, next_node, units, activation
                )
            )
        elif layer_type == "dense":
            blocks.append(
                LayerBlock("dense", layer_index, next_node, units, activation)
            )
        else:
            raise UnsupportedModelError(f"unknown layer type {layer_type!r}")
        next_node += units
        layer_index += 1
    return blocks
