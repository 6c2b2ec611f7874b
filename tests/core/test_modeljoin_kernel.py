"""The ModelJoin's generated kernel against its interpreted kernel.

A ModelJoin scores each inference batch with one kernel: pack, the
model's layers and the fused filter/projection above the join.  The
generated kernel is straight-line source; the interpreted one walks the
layers (``VectorizedInference``) and the expression trees.  Both must
give the same bits and make the same device calls — the simulated GPU's
modeled clock and the accountant see both the same way.
"""

import dataclasses

import numpy as np
import pytest

import repro
from repro.core.modeljoin.builder import (
    BuiltModel,
    DenseLayerWeights,
    LstmLayerWeights,
)
from repro.core.modeljoin.inference import (
    ModelForward,
    VectorizedInference,
    inference_batch_rows,
)
from repro.core.registry import model_metadata, publish_model
from repro.db.compile import (
    InterpretedKernel,
    KernelCompiler,
    KernelOutput,
    KernelSpec,
)
from repro.db.expressions import BinaryOp, ColumnRef, Literal
from repro.db.schema import Column, Schema
from repro.db.types import SqlType
from repro.device.gpu import SimulatedGpu
from repro.device.host import HostDevice
from repro.nn.layers import Lstm
from repro.workloads.models import make_dense_model, make_lstm_model

LENGTHS = (1, 7, 1023, 1024, 4096)
MODELS = {
    **{
        f"dense{width}x{depth}": (make_dense_model, (width, depth))
        for width in (8, 32, 512)
        for depth in (1, 2, 4)
    },
    "lstm8": (make_lstm_model, (8,)),
    "lstm32": (make_lstm_model, (32,)),
}
DEVICES = {"cpu": HostDevice, "gpu-sim": SimulatedGpu}
#: the device counters a kernel moves (not the measured host seconds)
STATS = (
    "kernel_launches",
    "flops",
    "elementwise_elements",
    "bytes_to_device",
    "bytes_to_host",
    "modeled_kernel_seconds",
    "modeled_transfer_seconds",
)


def built(model) -> BuiltModel:
    """*model*'s weights as the ModelJoin build phase lays them out."""
    layers = []
    for layer in model.layers:
        if isinstance(layer, Lstm):
            layers.append(
                LstmLayerWeights(
                    layer.kernel,
                    layer.recurrent_kernel,
                    layer.bias,
                    layer.activation.name,
                    layer.recurrent_activation.name,
                    layer.units,
                    model.time_steps,
                )
            )
        else:
            layers.append(
                DenseLayerWeights(
                    layer.kernel, layer.bias, layer.activation.name,
                    layer.units,
                )
            )
    return BuiltModel(
        layers, model.input_width, model.output_width, model.time_steps
    )


def joined_schema(model) -> Schema:
    """``id``, the model's inputs ``x0…``, then its predictions."""
    return Schema(
        (Column("id", SqlType.INTEGER),)
        + tuple(
            Column(f"x{index}", SqlType.FLOAT)
            for index in range(model.input_width)
        )
        + tuple(
            Column(f"prediction_{index}", SqlType.FLOAT)
            for index in range(model.output_width)
        )
    )


def spec_of(model, predicates=(), outputs=None) -> KernelSpec:
    schema = joined_schema(model)
    metadata = model_metadata("m", "m_table", model)
    if outputs is None:
        outputs = tuple(
            KernelOutput(name, ColumnRef(name)) for name in schema.names
        )
    return KernelSpec(
        schema=schema,
        predicates=tuple(predicates),
        outputs=tuple(outputs),
        transient=frozenset(
            name for name in schema.names if name.startswith("prediction")
        ),
        label="modeljoin(m)",
        model=ModelForward(
            metadata.layers, tuple(range(1, model.input_width + 1))
        ),
    )


def run(kernel, model, device_kind: str, lengths=LENGTHS):
    """The kernel over one batch per length, on a fresh device, as one
    pipeline would run it: the outputs, the device and the arena."""
    weights = built(model)
    device = DEVICES[device_kind]()
    inference = VectorizedInference(
        weights,
        device,
        batch_rows=inference_batch_rows(
            model_metadata("m", "m_table", model).layers, 1024
        ),
    )
    rng = np.random.default_rng(len(model.layers))
    outputs = []
    for rows in lengths:
        arrays = [np.arange(rows, dtype=np.int64)] + [
            rng.normal(size=rows).astype(np.float32)
            for _ in range(model.input_width)
        ]
        got = kernel(arrays, rows, None, inference)
        outputs.append(None if got is None else [a.copy() for a in got])
    return outputs, device.stats, inference.arena


def assert_same_run(generated, interpreted):
    (gen_outputs, gen_stats, gen_arena) = generated
    (int_outputs, int_stats, int_arena) = interpreted
    assert len(gen_outputs) == len(int_outputs)
    for got, want in zip(gen_outputs, int_outputs):
        assert (got is None) == (want is None)
        if got is None:
            continue
        assert len(got) == len(want)
        for left, right in zip(got, want):
            assert left.dtype == right.dtype
            assert left.tobytes() == right.tobytes()
    for name in STATS:
        assert getattr(gen_stats, name) == getattr(int_stats, name), name
    assert gen_arena.reused_bytes == int_arena.reused_bytes


@pytest.mark.parametrize("device_kind", DEVICES)
@pytest.mark.parametrize("name", MODELS)
def test_generated_matches_interpreted(name, device_kind):
    factory, arguments = MODELS[name]
    model = factory(*arguments, seed=3)
    spec = spec_of(model)
    generated = KernelCompiler().kernel(spec)
    assert generated.generated
    assert_same_run(
        run(generated, model, device_kind),
        run(InterpretedKernel(spec), model, device_kind),
    )


@pytest.mark.parametrize("device_kind", DEVICES)
@pytest.mark.parametrize("name", ["dense32x2", "lstm8"])
def test_filtered_epilogue_matches_interpreted(name, device_kind):
    """A filter on an input and on the prediction, then a projection:
    the generated kernel narrows the prediction views; batches whose
    rows all fail return None from both kernels."""
    factory, arguments = MODELS[name]
    model = factory(*arguments, seed=5)
    spec = spec_of(
        model,
        predicates=(
            BinaryOp(">", ColumnRef("x0"), Literal.of(0.25)),
            BinaryOp(">", ColumnRef("prediction_0"), Literal.of(0.0)),
        ),
        outputs=(
            KernelOutput("id", ColumnRef("id"), np.dtype("int64")),
            KernelOutput(
                "p",
                BinaryOp("*", ColumnRef("prediction_0"), Literal.of(2.0)),
                np.dtype("float64"),
            ),
            KernelOutput("prediction_0", ColumnRef("prediction_0")),
        ),
    )
    generated = KernelCompiler().kernel(spec)
    assert generated.generated
    assert_same_run(
        run(generated, model, device_kind),
        run(InterpretedKernel(spec), model, device_kind),
    )


def test_kernel_is_shared_across_batch_lengths():
    """The batch length is an argument: one source, one cache entry, for
    a one-row batch and a full one."""
    model = make_dense_model(8, 2, seed=1)
    compiler = KernelCompiler()
    first = compiler.kernel(spec_of(model))
    second = compiler.kernel(spec_of(model))
    assert first.source == second.source
    outputs, _, _ = run(first, model, "cpu", lengths=(1, 4096))
    assert [len(batch[0]) for batch in outputs] == [1, 4096]


@pytest.mark.parametrize("variant", ["", " VARIANT 'native-gpu'"])
def test_filtered_model_join_matches_interpreted(variant):
    """The SQL MODEL JOIN with its WHERE on the prediction and its
    projection fused into the one kernel, against the interpreted plan."""
    db = repro.connect()
    db.execute(
        "CREATE TABLE t (id INTEGER, x1 FLOAT, x2 FLOAT, x3 FLOAT, x4 FLOAT)"
    )
    rows = 9000
    rng = np.random.default_rng(9)
    db.table("t").append_columns(
        id=np.arange(rows),
        **{f"x{i}": rng.random(rows, dtype=np.float32) for i in range(1, 5)},
    )
    publish_model(db, "m", make_dense_model(32, 2, seed=4))
    sql = (
        "SELECT id, prediction_0 * 2.0 AS p FROM t MODEL JOIN m "
        f"USING (x1, x2, x3, x4){variant} "
        "WHERE prediction_0 > 0.5 AND x1 > 0.1"
    )
    plan = db.explain(sql)
    physical = plan.split("== Physical Plan ==")[1]
    line = physical.split("== Compiled Code ==")[0].strip().splitlines()[0]
    assert line.startswith("ModelJoin(")  # no pipeline above it
    assert "filter:" in line and "[epilogue: fused] [compiled]" in line
    compiled = db.execute(sql)
    db.planner_options = dataclasses.replace(
        db.planner_options, use_compiled_kernels=False
    )
    assert "[compiled]" not in db.explain(sql)
    interpreted = db.execute(sql)
    db.close()
    assert 0 < compiled.row_count < rows
    for name in ("id", "p"):
        assert (
            compiled.column(name).tobytes()
            == interpreted.column(name).tobytes()
        )
