"""Inference batches of whole scan vectors score bit-identically.

The native ModelJoin runs one forward pass per inference batch (up to
one morsel, see ``inference_batch_rows``) rather than per 1024-row scan
vector.  Every batch is made of whole consecutive vectors of one block,
and a block's trailing partial vector is a batch of its own, so every
GEMM sees the rows a per-vector forward would have seen at the same
offsets.  This matrix pins that: full-scan predictions equal the
model's forward run in 1024-row chunks, bit for bit, for dense and LSTM
models of several widths, table sizes around the vector and block
boundaries, and every execution path.

The chunks follow the table's physical layout: serial and disk tables
hold the rows in one partition, the thread and shard paths split them
into two contiguous halves.  Dense references are
``Sequential.predict``; LSTM references are the operator's own forward
per chunk, because ``repro.nn``'s LSTM adds its gate terms in a
different order (the ledger's ``close32`` case).  A filtered MODEL JOIN
scores only the surviving rows of each batch, so its GEMM shapes differ
from the chunks' and it is checked within ``close32`` instead.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core.modeljoin.builder import (
    BuiltModel,
    DenseLayerWeights,
    LstmLayerWeights,
)
from repro.core.modeljoin.inference import VectorizedInference
from repro.core.registry import publish_model
from repro.device import HostDevice
from repro.nn.layers import Lstm
from repro.workloads.models import make_dense_model, make_lstm_model

# runs again under `python -X dev` with ResourceWarnings as errors
pytestmark = pytest.mark.leak_guard

VECTOR = 1024
SIZES = (1023, 1024, 1025, 4095, 4097, 10_000)
MODELS = {
    **{
        f"d{width}x{depth}": make_dense_model(width, depth, seed=width + depth)
        for width in (8, 32, 512)
        for depth in (1, 2, 4)
    },
    **{
        f"lstm{width}": make_lstm_model(width, time_steps=4, seed=width)
        for width in (8, 32)
    },
}
PATHS = ("serial", "threads", "shards", "disk")
#: paths whose tables split the rows into two contiguous partitions
SPLIT = ("threads", "shards")


def features(rows: int) -> np.ndarray:
    return (
        np.random.default_rng(rows).standard_normal((rows, 4)).astype(np.float32)
    )


def create_tables(db, split: bool) -> None:
    layout = " PARTITION BY (p) PARTITIONS 2" if split else ""
    for rows in SIZES:
        db.execute(
            f"CREATE TABLE t{rows} (id INTEGER, p INTEGER, x1 FLOAT, "
            f"x2 FLOAT, x3 FLOAT, x4 FLOAT){layout}"
        )
        x = features(rows)
        db.table(f"t{rows}").append_columns(
            id=np.arange(rows, dtype=np.int64),
            p=(np.arange(rows) >= (rows + 1) // 2).astype(np.int64),
            **{f"x{i + 1}": x[:, i] for i in range(4)},
        )
    for name, model in MODELS.items():
        publish_model(db, name, model)


@pytest.fixture(scope="module", params=PATHS)
def engine(request, tmp_path_factory):
    path = request.param
    if path == "disk":
        directory = str(tmp_path_factory.mktemp("exactness") / "db")
        writer = repro.connect(path=directory)
        create_tables(writer, split=False)
        writer.close()
        db = repro.connect(path=directory)
    else:
        db = repro.connect(
            parallelism=2 if path == "threads" else 1,
            shards=2 if path == "shards" else 0,
        )
        create_tables(db, split=path in SPLIT)
    yield path, db
    db.close()


def operator_forward(model) -> VectorizedInference:
    """The operator's own forward over *model*'s weights, no arena."""
    layers = []
    for layer in model.layers:
        if isinstance(layer, Lstm):
            layers.append(
                LstmLayerWeights(
                    kernel=layer.kernel,
                    recurrent_kernel=layer.recurrent_kernel,
                    bias=layer.bias,
                    activation=layer.activation.name,
                    recurrent_activation=layer.recurrent_activation.name,
                    units=layer.units,
                    time_steps=model.time_steps,
                )
            )
        else:
            layers.append(
                DenseLayerWeights(
                    kernel=layer.kernel,
                    bias=layer.bias,
                    activation=layer.activation.name,
                    units=layer.units,
                )
            )
    built = BuiltModel(
        layers=layers,
        input_width=model.input_width,
        output_width=model.output_width,
        time_steps=model.time_steps,
    )
    return VectorizedInference(built, HostDevice())


def per_vector_reference(name: str, rows: int, split: bool) -> np.ndarray:
    """``prediction_0`` scored one 1024-row chunk of a partition at a time."""
    model = MODELS[name]
    score = (
        operator_forward(model).infer
        if model.has_recurrent_first
        else model.predict
    )
    x = features(rows)
    bounds = [0, (rows + 1) // 2, rows] if split else [0, rows]
    chunks = [
        score(x[start:min(start + VECTOR, stop)])[:, 0]
        for low, stop in zip(bounds, bounds[1:])
        for start in range(low, stop, VECTOR)
    ]
    return np.concatenate(chunks)


def scored(db, path: str, sql: str) -> tuple[np.ndarray, np.ndarray]:
    result = db.execute(sql, parallel=path in SPLIT)
    ids = np.asarray(result.column("id"))
    order = np.argsort(ids, kind="stable")  # pipelines and shards interleave
    return ids[order], np.asarray(result.column("prediction_0"))[order]


@pytest.mark.parametrize("rows", SIZES)
@pytest.mark.parametrize("name", MODELS)
def test_full_scan_matches_per_vector_forward(engine, name, rows):
    path, db = engine
    ids, got = scored(
        db,
        path,
        f"SELECT id, prediction_0 FROM t{rows} "
        f"MODEL JOIN {name} USING (x1, x2, x3, x4)",
    )
    want = per_vector_reference(name, rows, split=path in SPLIT)
    assert np.array_equal(ids, np.arange(rows))
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["d8x2", "d32x2", "d512x2", "lstm32"])
def test_filtered_scan_within_close32(engine, name):
    path, db = engine
    rows = 10_000
    ids, got = scored(
        db,
        path,
        f"SELECT id, prediction_0 FROM t{rows} "
        f"MODEL JOIN {name} USING (x1, x2, x3, x4) WHERE x1 > 0.25",
    )
    keep = np.flatnonzero(features(rows)[:, 0] > np.float32(0.25))
    want = per_vector_reference(name, rows, split=path in SPLIT)[keep]
    assert np.array_equal(ids, keep)
    np.testing.assert_allclose(got, want, rtol=1e-6, atol=4.8e-7)
