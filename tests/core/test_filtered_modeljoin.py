"""A filter below a MODEL JOIN is the join's selection vector.

The lowering turns the WHERE conjuncts pushed below a ModelJoin into
the join's input predicates: one selection per input batch, the model's
inputs gathered straight into the pack buffer, and the selected rows of
consecutive batches scored together in full inference batches.  This
matrix checks it on {compiled, interpreted} x {serial, threads, shards,
disk} x {host, simulated GPU}:

* ids exactly, predictions within ``close32`` of the model scored one
  1024-row vector at a time;
* compiled and interpreted plans alike, bit for bit, with the same
  ``DeviceStats`` and arena bytes.  The thread path hands blocks to its
  pipelines in the order they pull morsels, so which rows share a batch
  (and with it the last bits) can change from run to run: there the two
  agree within ``close32``.  Shards run in other processes, whose
  devices this process cannot read;
* EXPLAIN shows no pipeline under the ModelJoin, and EXPLAIN ANALYZE at
  most one more batch per pipeline than full batches of the passing
  rows (it does not cover sharded tables);
* no row passing, every row passing (bit-identical to no filter) and a
  LIMIT above the join.

A per-vector UDF in the filter keeps its own pipeline, one call per
vector, and a query cancelled while a batch scores releases the packed
input it accounted.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import repro
from repro.core.modeljoin.inference import inference_batch_rows
from repro.core.modeljoin.operator import ModelJoinOperator
from repro.core.registry import model_metadata, publish_model
from repro.db.planner import PlannerOptions
from repro.db.types import SqlType
from repro.db.udf import PythonUdf
from repro.errors import QueryCancelledError
from repro.workloads.models import make_dense_model

# runs again under `python -X dev` with ResourceWarnings as errors
pytestmark = pytest.mark.leak_guard

ROWS = 40_000
VECTOR = 1024
MODEL = make_dense_model(32, 2, seed=7)
BATCH = inference_batch_rows(
    model_metadata("m", "m_table", MODEL).layers, VECTOR
)
VARIANTS = {"host": "", "gpu": " VARIANT 'native-gpu'"}
PATHS = ("serial", "threads", "shards", "disk")
MODES = ("compiled", "interpreted")
#: paths whose table is split into two partitions, one pipeline each
SPLIT = ("threads", "shards")
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


def features() -> np.ndarray:
    rng = np.random.default_rng(41)
    return rng.random((ROWS, 4), dtype=np.float32)


X = features()


def load(db, split: bool) -> None:
    layout = " PARTITION BY (id) PARTITIONS 2" if split else ""
    db.execute(
        "CREATE TABLE t (id INTEGER, x1 FLOAT, x2 FLOAT, x3 FLOAT, "
        f"x4 FLOAT){layout}"
    )
    db.table("t").append_columns(
        id=np.arange(ROWS, dtype=np.int64),
        **{f"x{i + 1}": X[:, i] for i in range(4)},
    )
    publish_model(db, "m", MODEL)


def options(compiled: bool) -> PlannerOptions:
    return PlannerOptions(use_compiled_kernels=compiled)


class Engines:
    """One path's engines, compiled and interpreted: in-process paths
    switch one engine's planner options, shards need two fleets."""

    def __init__(self, path: str, directory):
        self.path = path
        split = path in SPLIT
        if path == "disk":
            writer = repro.connect(path=str(directory))
            load(writer, split=False)
            writer.close()
            self.compiled = repro.connect(path=str(directory))
            self.interpreted = self.compiled
        elif path == "shards":
            self.compiled, self.interpreted = (
                repro.connect(shards=2, planner_options=options(compiled))
                for compiled in (True, False)
            )
            for db in (self.compiled, self.interpreted):
                load(db, split=True)
        else:
            self.compiled = repro.connect(parallelism=2 if split else 1)
            self.interpreted = self.compiled
            load(self.compiled, split=split)

    def engine(self, compiled: bool):
        db = self.compiled if compiled else self.interpreted
        if db is self.compiled and self.interpreted is self.compiled:
            db.planner_options = options(compiled)
            db.plan_cache.clear()
        return db

    def execute(self, sql: str, compiled: bool = True):
        return self.engine(compiled).execute(
            sql, parallel=self.path in SPLIT
        )

    def close(self) -> None:
        self.compiled.close()
        if self.interpreted is not self.compiled:
            self.interpreted.close()


@pytest.fixture(scope="module", params=PATHS)
def engines(request, tmp_path_factory):
    engines = Engines(
        request.param, tmp_path_factory.mktemp("filtered") / "db"
    )
    yield engines
    engines.close()


def sql(variant: str, where: str = "x1 > 0.9", tail: str = "") -> str:
    return (
        "SELECT id, prediction_0 FROM t MODEL JOIN m USING "
        f"(x1, x2, x3, x4){VARIANTS[variant]} WHERE {where}{tail}"
    )


def sorted_by_id(result) -> tuple[np.ndarray, np.ndarray]:
    ids = np.asarray(result.column("id"))
    order = np.argsort(ids, kind="stable")  # pipelines and shards interleave
    return ids[order], np.asarray(result.column("prediction_0"))[order]


def per_vector_reference() -> np.ndarray:
    return np.concatenate([
        MODEL.predict(X[start:start + VECTOR])[:, 0]
        for start in range(0, ROWS, VECTOR)
    ])


REFERENCE = per_vector_reference()


def close32(got, want) -> None:
    np.testing.assert_allclose(got, want, rtol=1e-6, atol=4.8e-7)


class DeviceRecorder:
    """The device counters and arena bytes of every ModelJoin closed
    while recording (one per pipeline)."""

    def __init__(self, monkeypatch):
        self.stats = []
        close = ModelJoinOperator.close

        def recording(operator):
            stats = operator.device.stats
            self.stats.append(tuple(getattr(stats, n) for n in STATS))
            close(operator)

        monkeypatch.setattr(ModelJoinOperator, "close", recording)

    def take(self) -> list:
        taken, self.stats = sorted(self.stats), []
        return taken


@pytest.mark.parametrize("variant", VARIANTS)
def test_filtered_join_scores_the_passing_rows(engines, variant, monkeypatch):
    engines.execute(sql(variant))  # the model build is cached after it
    recorder = DeviceRecorder(monkeypatch)
    keep = np.flatnonzero(X[:, 0] > np.float32(0.9))
    runs = {}
    for compiled in (True, False):
        result = engines.execute(sql(variant), compiled)
        ids, got = sorted_by_id(result)
        assert np.array_equal(ids, keep)
        close32(got, REFERENCE[keep])
        reused = result.profile.counters.snapshot().get("buffer-bytes-reused")
        runs[compiled] = (got, recorder.take(), reused)
    (compiled, interpreted) = (runs[True], runs[False])
    if engines.path == "threads":
        close32(compiled[0], interpreted[0])
        return
    assert compiled[0].tobytes() == interpreted[0].tobytes()
    if engines.path != "shards":
        assert compiled[1] == interpreted[1]
        assert compiled[2] == interpreted[2]


@pytest.mark.parametrize("variant", VARIANTS)
def test_no_pipeline_under_the_join_and_full_batches(engines, variant):
    db = engines.engine(True)
    physical = db.explain(sql(variant)).split("== Physical Plan ==")[1]
    physical = physical.split("== Compiled Code ==")[0]
    assert "input filter: (t.x1 > 0.9)" in physical
    assert "Pipeline(" not in physical
    if engines.path == "shards":
        return  # EXPLAIN ANALYZE does not cover sharded tables
    plan, result = db.explain_analyze(
        sql(variant), parallel=engines.path in SPLIT
    )
    line = next(line for line in plan.splitlines() if "ModelJoin(" in line)
    batches = int(line.split("[batches: ")[1].split("]")[0])
    pipelines = 2 if engines.path in SPLIT else 1
    assert batches <= math.ceil(result.row_count / BATCH) + pipelines


@pytest.mark.parametrize("compiled", (True, False), ids=MODES)
def test_no_row_passes(engines, compiled):
    # no zone map can prune a sum: every block is read, none scored
    result = engines.execute(sql("host", "x1 + x2 > 5.0"), compiled)
    assert result.row_count == 0


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("compiled", (True, False), ids=MODES)
def test_every_row_passing_scores_like_no_filter(engines, variant, compiled):
    filtered = engines.execute(sql(variant, "x1 >= 0.0"), compiled)
    unfiltered = engines.execute(
        "SELECT id, prediction_0 FROM t MODEL JOIN m USING "
        f"(x1, x2, x3, x4){VARIANTS[variant]}",
        compiled,
    )
    ids, got = sorted_by_id(filtered)
    want_ids, want = sorted_by_id(unfiltered)
    assert np.array_equal(ids, want_ids)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("compiled", (True, False), ids=MODES)
def test_limit_above_the_join(engines, compiled):
    result = engines.execute(sql("host", tail=" LIMIT 5"), compiled)
    ids = np.asarray(result.column("id"))
    assert len(ids) == 5
    assert (X[ids, 0] > np.float32(0.9)).all()
    close32(result.column("prediction_0"), REFERENCE[ids])


def test_a_per_vector_udf_filter_keeps_its_pipeline():
    db = repro.connect()
    try:
        load(db, split=False)
        calls = []

        def probe(values):
            calls.append(len(values))
            return values

        db.register_udf(
            PythonUdf(
                "probe", 1, probe, result_type=SqlType.DOUBLE, marshal=False
            )
        )
        text = sql("host", "probe(x1) > 0.9")
        plan = db.explain(text).split("== Physical Plan ==")[1]
        assert "input filter" not in plan
        assert "Pipeline(filter: (PROBE(t.x1) > 0.9)" in plan
        result = db.execute(text)
        assert result.row_count == int((X[:, 0] > np.float32(0.9)).sum())
        assert calls == [VECTOR] * (ROWS // VECTOR) + [ROWS % VECTOR]
    finally:
        db.close()


def test_a_cancel_mid_batch_releases_the_packed_input(monkeypatch):
    db = repro.connect()
    try:
        load(db, split=False)
        gather = ModelJoinOperator._gather

        def cancelling(operator, rows, selected):
            gathered = gather(operator, rows, selected)
            operator.context.query.cancellation.cancel()
            return gathered

        monkeypatch.setattr(ModelJoinOperator, "_gather", cancelling)
        for compiled in (True, False):
            db.planner_options = dataclasses.replace(
                db.planner_options, use_compiled_kernels=compiled
            )
            with pytest.raises(QueryCancelledError):
                db.execute(sql("host"), timeout_seconds=60.0)
            memory = db.last_profile.memory
            assert memory.by_category["modeljoin-vector"] == 0
            assert memory.underflows == 0
            assert memory.peak_bytes > 0
    finally:
        db.close()


def test_the_input_filter_compiles_under_an_interpreted_epilogue():
    # CAST ... AS VARCHAR has no generated form: the ModelJoin kernel is
    # interpreted, the selection kernel still generated
    db = repro.connect()
    try:
        load(db, split=False)
        text = (
            "SELECT CAST(id AS VARCHAR) AS s, prediction_0 FROM t "
            "MODEL JOIN m USING (x1, x2, x3, x4) WHERE x1 > 0.9"
        )
        plan = db.explain(text).split("== Physical Plan ==")[1]
        line = plan.strip().splitlines()[0]
        assert "input filter: (t.x1 > 0.9) [compiled]" in line
        assert not line.endswith("[compiled]")
        assert "# kernel: select(1)" in plan
        keep = np.flatnonzero(X[:, 0] > np.float32(0.9))
        result = db.execute(text)
        assert result.column("s").tolist() == [str(i) for i in keep]
        close32(result.column("prediction_0"), REFERENCE[keep])
    finally:
        db.close()
