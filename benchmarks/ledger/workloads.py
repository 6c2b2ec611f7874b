"""The seven ledger workloads: data, statements, references, checks.

Every input derives from ``seed``; row counts and statement shapes do
not, so the work per operation is the same for every seed.  Statements
run through the default public call (``db.execute(sql)``,
``WireClient.query(sql)``) with no tuning kwargs: a planner that later
picks parallelism or caches plans by itself shows up as a gain, not as a
harness edit.

Correctness is checked per statement, outside the timed interval, in
one of three written-down modes:

* ``exact``    – ``np.array_equal``.  Full MODEL JOIN scans, point and
  single-vector range lookups (the engine and ``Sequential.predict``
  run the same GEMM shapes), and every aggregate over ``v`` (multiples
  of 1/8, so float64 sums are exact in any fold order).
* ``close32``  – ``|a-b| <= 4.8e-7 + 1e-6|b|`` (4 float32 ulps at 1).
  LSTM (the operator orders its elementwise ops differently from
  ``repro.nn``) and filtered MODEL JOINs, whose GEMM batch sizes depend
  on how many rows of each scan vector survive the filter.
* ``sum32``    – ``|a-b| <= 1e-6 + 1e-5|b|``.  float32
  ``SUM(prediction_0)``: fold order differs between the engine's
  per-vector partials, shard partials and ``np.bincount``.
* the generated ML-To-SQL query keeps the repo's own ``atol=1e-4``
  (tests/core/test_equivalence.py).
"""

from __future__ import annotations

import contextlib
import os
import shutil
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import repro
from repro.core.ml_to_sql import (
    MlToSqlOptions,
    SqlGenerator,
    build_relational_model,
    load_model_table,
)
from repro.core.registry import publish_model
from repro.db.serve import Server, WireClient, WireServer
from repro.db.tracing import MetricsRegistry, Tracer
from repro.nn.layers import Dense
from repro.nn.model import Sequential
from repro.workloads.iris import FEATURE_COLUMNS, load_iris_table
from repro.workloads.models import make_dense_model, make_lstm_model
from repro.workloads.timeseries import load_windowed_series_table

from benchmarks.ledger import floors
from benchmarks.ledger.schema import STATEMENTS, WORKLOAD_WHY

OUT_DIR = Path(__file__).resolve().parent / "out"

#: literals are pre-generated per client and cycled
CYCLE = 1 << 14
#: scan vector size of the engine; a BETWEEN range inside one vector is
#: scored as one GEMM batch, which is what makes its reference exact
VECTOR = 1024

IRIS_USING = "USING (" + ", ".join(FEATURE_COLUMNS) + ")"
FACT_USING = "USING (x1, x2, x3, x4)"
PROFILE_COUNTERS = (
    "scan.rows_read",
    "scan.blocks_scanned",
    "scan.blocks_skipped",
    "morsels",
    "buffer-bytes-reused",
)


def exact(got, want) -> bool:
    return np.array_equal(np.asarray(got), np.asarray(want))


def close32(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and bool(
        np.allclose(got, want, rtol=1e-6, atol=4.8e-7)
    )


def sum32(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and bool(
        np.allclose(got, want, rtol=1e-5, atol=1e-6)
    )


def fact_columns(rng: np.random.Generator, rows: int) -> dict:
    """The shared fact table: keys, four float features, an exact measure."""
    return {
        "id": np.arange(rows, dtype=np.int64),
        "k": rng.integers(0, 4096, rows).astype(np.int64),
        "g": rng.integers(0, 64, rows).astype(np.int64),
        "species": rng.integers(0, 3, rows).astype(np.int64),
        "x1": rng.random(rows, dtype=np.float32),
        "x2": rng.random(rows, dtype=np.float32),
        "x3": rng.random(rows, dtype=np.float32),
        "x4": rng.random(rows, dtype=np.float32),
        # multiples of 1/8 below 2^9: float64 sums are exact in any order
        "v": rng.integers(-4000, 4000, rows).astype(np.float64) / 8.0,
    }


FACT_DDL = (
    "CREATE TABLE facts (id INTEGER, k INTEGER, g INTEGER, species INTEGER, "
    "x1 FLOAT, x2 FLOAT, x3 FLOAT, x4 FLOAT, v DOUBLE)"
)


def load_facts(db, columns: dict, partition_by: str | None = None):
    ddl = FACT_DDL + (f" PARTITION BY ({partition_by})" if partition_by else "")
    db.execute(ddl)
    db.table("facts").append_columns(**columns)


def reference_scores(model, inputs: np.ndarray) -> np.ndarray:
    """``prediction_0`` for every row, scored one scan vector at a time.

    The same GEMM shapes as the engine's full scans (so the comparison
    can be exact), and the harness's own temporaries stay a few MB
    instead of rows x width — ``peak_rss_mb`` is about the engine.
    """
    out = np.empty(len(inputs), dtype=np.float32)
    for start in range(0, len(inputs), VECTOR):
        out[start:start + VECTOR] = model.predict(
            inputs[start:start + VECTOR]
        )[:, 0]
    return out


def fact_features(columns: dict) -> np.ndarray:
    return np.column_stack([columns[f"x{i}"] for i in range(1, 5)])


def group_sums(keys, weights, present_only=True):
    """(group keys, SUM, COUNT) the way ``GROUP BY ... ORDER BY key`` reports."""
    counts = np.bincount(keys)
    sums = np.bincount(keys, weights=weights)
    present = np.flatnonzero(counts) if present_only else np.arange(len(counts))
    return present, sums[present], counts[present]


@dataclass(frozen=True)
class Statement:
    name: str
    #: operation index -> SQL text (fresh seeded literal where it has one)
    sql: Callable[[int], str]
    #: (operation index, result) -> matches the reference
    check: Callable[[int, Any], bool]


@dataclass
class Outcome:
    name: str
    seconds: float
    value: Any


def timed(name: str, function: Callable[[], Any]) -> Outcome:
    started = time.perf_counter()
    value = function()
    return Outcome(name, time.perf_counter() - started, value)


class Workload:
    """One workload instance: set up, run operations, verify, tear down."""

    name = ""
    clients = 1
    #: {scale: value} tables, resolved through :meth:`sized`
    ROWS: dict = {}
    WARMUP_OPS = {"full": 3, "tiny": 1}
    TRACED_OPS = {"full": 15, "tiny": 2}
    #: set-ups per end-to-end run (``setup_s`` is their median): 9 where
    #: one takes tens of milliseconds, 3 where it takes about a second.
    #: Fixed per workload, because ``peak_rss_mb`` sees every set-up.
    SETUP_REPEATS = 9
    #: statements that are not SQL (open/close), attributed to storage.*
    LIFECYCLE_STATEMENTS: tuple[str, ...] = ()
    #: shard processes behind the engine (0 = single process)
    SHARDS = 0
    #: (rows, input columns) of one inference batch, for the pack probe
    BATCH_SHAPE = (VECTOR, 4)

    def __init__(self, seed: int, scale: str = "full"):
        self.seed = seed
        self.scale = scale
        self.rng = np.random.default_rng(seed)
        self.db = None
        self.statements: tuple[Statement, ...] = ()
        #: set by the harness for the traced pass: per-query profile
        #: counters are summed here after each statement, untimed
        self.profile_sink: Counter | None = None
        self.peak_profile_bytes = 0
        self._seen_profile = None
        #: scratch directory of a persistent workload, gone after teardown
        self.directory: str | None = None
        #: storage generations still pinned when the server closed
        self.pins_leaked = 0

    # -- sizing ---------------------------------------------------------
    def sized(self, table: dict) -> int:
        return table[self.scale]

    @property
    def rows(self) -> int:
        return self.sized(self.ROWS)

    @property
    def warmup_ops(self) -> int:
        return self.sized(self.WARMUP_OPS)

    @property
    def traced_ops(self) -> int:
        return self.sized(self.TRACED_OPS)

    # -- lifecycle ------------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        if self.db is not None:
            self.db.close()
            self.db = None

    # -- operations -----------------------------------------------------
    def operation(self, index: int, client: int = 0) -> list[Outcome]:
        outcomes = []
        for statement in self.statements:
            text = statement.sql(index)
            outcomes.append(
                timed(statement.name, lambda: self.db.execute(text))
            )
            self.absorb_profile()
        return outcomes

    def verify(self, index: int, outcomes: list[Outcome], client: int = 0) -> bool:
        return all(
            statement.check(index, outcome.value)
            for statement, outcome in zip(self.statements, outcomes)
        )

    # -- tracing and counters ------------------------------------------
    def trace_on(self) -> Tracer:
        tracer = self.db.enable_tracing()
        tracer.clear()
        return tracer

    def trace_off(self) -> None:
        self.db.disable_tracing()

    def absorb_profile(self) -> None:
        sink = self.profile_sink
        if sink is None:
            return
        profile = self.db.last_profile
        if profile is None or profile is self._seen_profile:
            return
        self._seen_profile = profile
        snapshot = profile.counters.snapshot()
        for name in PROFILE_COUNTERS:
            sink[name] += snapshot.get(name, 0)
        for name, seconds in profile.stopwatch.phases.items():
            sink[f"phase.{name}"] += seconds
        self.peak_profile_bytes = max(
            self.peak_profile_bytes, profile.peak_memory_bytes
        )

    def counters(self) -> Counter:
        return engine_counters(self.db)

    @contextlib.contextmanager
    def probe_database(self):
        """An engine for the parse/explain probes."""
        yield self.db

    # -- description and probes ----------------------------------------
    def describe(self) -> dict:
        return {
            "name": self.name,
            "why": WORKLOAD_WHY[self.name],
            "rows": self.rows,
            "clients": self.clients,
            "loop": "closed",
            "statements": dict(
                zip(STATEMENTS[self.name], self.statement_texts())
            ),
        }

    def statement_texts(self) -> list[str]:
        return [statement.sql(0) for statement in self.statements]

    def probe_texts(self) -> list[str]:
        """The SELECTs of one typical operation (parse/explain probes)."""
        return self.statement_texts()

    def probes(self, untraced: dict) -> dict:
        """Workload-specific benchmark-span (B) metrics."""
        return {}


def engine_counters(db) -> Counter:
    """Cumulative public counters of one engine, flattened."""
    out = cache_counters(db)
    out.update(registry_counters(db.metrics))
    return out


def cache_counters(db) -> Counter:
    out: Counter = Counter()
    kernel = db.kernel_cache.snapshot()
    out["kernel.hits"] = kernel["hits"]
    out["kernel.misses"] = kernel["misses"]
    if db.model_cache is not None:
        model = db.model_cache.statistics()
        out["model.hits"] = model["hits"]
        out["model.misses"] = model["misses"]
    if db.storage is not None:
        pool = db.storage.buffer_pool.statistics
        out["pool.hits"] = pool.hits
        out["pool.misses"] = pool.misses
        out["pool.evictions"] = pool.evictions
    return out


def registry_counters(metrics: MetricsRegistry) -> Counter:
    out: Counter = Counter()
    for name, rendered in metrics.snapshot().items():
        if rendered["type"] == "counter":
            out[f"metric.{name}"] = rendered["value"]
        elif rendered["type"] == "histogram":
            out[f"metric.{name}.count"] = rendered["count"]
            out[f"metric.{name}.total"] = rendered["mean"] * rendered["count"]
    return out


def median_ms(function: Callable[[], Any], repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        function()
        samples.append(time.perf_counter() - started)
    return float(np.median(samples)) * 1e3


# ----------------------------------------------------------------------
# batch_narrow
# ----------------------------------------------------------------------
class BatchNarrow(Workload):
    name = "batch_narrow"
    ROWS = {"full": 500_000, "tiny": 8_192}
    TRACED_OPS = {"full": 20, "tiny": 2}
    SQL = f"SELECT id, prediction_0 FROM iris MODEL JOIN d32x2 {IRIS_USING}"

    def setup(self) -> None:
        self.db = repro.connect()
        self.data = load_iris_table(self.db, self.rows, seed=self.seed)
        self.model = make_dense_model(32, 2, seed=self.seed)
        publish_model(self.db, "d32x2", self.model)
        self.ids = np.arange(self.rows, dtype=np.int64)
        self.reference = reference_scores(self.model, self.data.features)
        self.statements = (
            Statement("narrow_mj_scan", lambda _i: self.SQL, self.check),
        )

    def check(self, _index, result) -> bool:
        return exact(result.column("id"), self.ids) and exact(
            result.column("prediction_0"), self.reference
        )

    def probes(self, untraced: dict) -> dict:
        out = floors.ratio(
            floors.scoring_floor_ms(self.model, self.data.features),
            untraced["p50_ms"],
        )
        out.update(self.parallel_probe())
        return out

    def parallel_probe(self) -> dict:
        """Serial vs ``parallel=True`` on a 2-partition copy."""
        twin = repro.connect(parallelism=2)
        try:
            load_iris_table(twin, self.rows, num_partitions=2, seed=self.seed)
            publish_model(twin, "d32x2", self.model)
            for parallel in (False, True):
                twin.execute(self.SQL, parallel=parallel)
            repeats = 7 if self.scale == "full" else 2
            serial = median_ms(lambda: twin.execute(self.SQL), repeats)
            before = registry_counters(twin.metrics)
            parallel = median_ms(
                lambda: twin.execute(self.SQL, parallel=True), repeats
            )
            after = registry_counters(twin.metrics)
            morsels = twin.last_profile.counters.get("morsels")
            waits = (
                after["metric.morsel.queue_wait.count"]
                - before["metric.morsel.queue_wait.count"]
            )
            wait_total = (
                after["metric.morsel.queue_wait.total"]
                - before["metric.morsel.queue_wait.total"]
            )
        finally:
            twin.close()
        return {
            "parallel.speedup": serial / parallel,
            "parallel.morsels": morsels,
            "parallel.queue_wait_ms": (
                wait_total / waits * 1e3 if waits else 0.0
            ),
        }


# ----------------------------------------------------------------------
# batch_heavy
# ----------------------------------------------------------------------
class BatchHeavy(Workload):
    name = "batch_heavy"
    SETUP_REPEATS = 3
    ROWS = {"full": 12_000, "tiny": 2_048}
    DENSE_SQL = (
        f"SELECT id, prediction_0 FROM iris MODEL JOIN d512x2 {IRIS_USING}"
    )
    LSTM_SQL = (
        "SELECT id, prediction_0 FROM sinus_windows "
        "MODEL JOIN lstm32 USING (x1, x2, x3)"
    )

    def setup(self) -> None:
        self.db = repro.connect()
        self.data = load_iris_table(self.db, self.rows, seed=self.seed)
        series = load_windowed_series_table(
            self.db, self.rows, time_steps=3, seed=self.seed
        )
        self.dense = make_dense_model(512, 2, seed=self.seed)
        self.lstm = make_lstm_model(32, time_steps=3, seed=self.seed)
        publish_model(self.db, "d512x2", self.dense)
        publish_model(self.db, "lstm32", self.lstm)
        self.window_ids, self.windows = series.windows()
        self.ids = np.arange(self.rows, dtype=np.int64)
        self.dense_reference = reference_scores(self.dense, self.data.features)
        self.lstm_reference = reference_scores(self.lstm, self.windows)
        self.statements = (
            Statement("heavy_dense512", lambda _i: self.DENSE_SQL,
                      self.check_dense),
            Statement("heavy_lstm32", lambda _i: self.LSTM_SQL,
                      self.check_lstm),
        )

    def check_dense(self, _index, result) -> bool:
        return exact(result.column("id"), self.ids) and exact(
            result.column("prediction_0"), self.dense_reference
        )

    def check_lstm(self, _index, result) -> bool:
        return exact(result.column("id"), self.window_ids) and close32(
            result.column("prediction_0"), self.lstm_reference
        )

    def probes(self, untraced: dict) -> dict:
        floor = floors.scoring_floor_ms(
            self.dense, self.data.features
        ) + floors.scoring_floor_ms(self.lstm, self.windows)
        return floors.ratio(floor, untraced["p50_ms"])


# ----------------------------------------------------------------------
# olap_mix
# ----------------------------------------------------------------------
class OlapMix(Workload):
    name = "olap_mix"
    ROWS = {"full": 64_000, "tiny": 4_096}
    SMALL_ROWS = {"full": 1_000, "tiny": 64}

    def setup(self) -> None:
        self.db = repro.connect()
        columns = self.columns = fact_columns(self.rng, self.rows)
        load_facts(self.db, columns)
        self.model = Sequential(
            [Dense(8, "relu"), Dense(8, "relu"), Dense(1, "sigmoid")],
            input_width=4,
            seed=self.seed,
        )
        publish_model(self.db, "d8x2", self.model)
        small = self.sized(self.SMALL_ROWS)
        self.db.execute(
            "CREATE TABLE small (id INTEGER, x1 FLOAT, x2 FLOAT, "
            "x3 FLOAT, x4 FLOAT)"
        )
        self.db.table("small").append_columns(
            id=columns["id"][:small],
            **{f"x{i}": columns[f"x{i}"][:small] for i in range(1, 5)},
        )
        relational = build_relational_model(self.model, MlToSqlOptions())
        load_model_table(self.db, "d8x2_sql", relational, replace=True)
        ml_to_sql = SqlGenerator(
            relational, "small", "id", ["x1", "x2", "x3", "x4"]
        ).inference_query(order_by_id=True)
        self.features = fact_features(columns)
        self.predictions = reference_scores(self.model, self.features)
        self.small_ids = columns["id"][:small]
        self.small_reference = self.predictions[:small]
        self.by_species = group_sums(columns["species"], columns["v"])
        self.by_k = group_sums(columns["k"], columns["v"])
        self.scored_by_species = group_sums(
            columns["species"], self.predictions.astype(np.float64)
        )
        self.filtered = self.filter_reference()
        self.top10 = np.lexsort((columns["id"], -columns["v"]))[:10]
        texts = (
            "SELECT species, SUM(v) AS s, AVG(v) AS a, COUNT(v) AS c "
            "FROM facts GROUP BY species ORDER BY species",
            "SELECT k, SUM(v) AS s, COUNT(v) AS c FROM facts "
            "GROUP BY k ORDER BY k",
            "SELECT id, x1 * x2 + x3 * x4 AS a, (x1 + x2) * (x3 - x4) AS b, "
            "v * 2.0 + x1 AS c FROM facts "
            "WHERE x1 > 0.25 AND x2 < 0.75 AND v > -100.0",
            "SELECT species, SUM(prediction_0) AS p, COUNT(prediction_0) AS c "
            f"FROM facts MODEL JOIN d8x2 {FACT_USING} "
            "GROUP BY species ORDER BY species",
            "SELECT id, v FROM facts ORDER BY v DESC, id LIMIT 10",
            ml_to_sql,
        )
        checks = (
            self.check_species, self.check_k, self.check_filter,
            self.check_mj_groupby, self.check_topk, self.check_ml_to_sql,
        )
        self.statements = tuple(
            Statement(name, (lambda _i, text=text: text), check)
            for name, text, check in zip(
                STATEMENTS[self.name], texts, checks
            )
        )

    def check_species(self, _index, result) -> bool:
        keys, sums, counts = self.by_species
        return (
            exact(result.column("species"), keys)
            and exact(result.column("s"), sums)
            and exact(result.column("a"), sums / counts)
            and exact(result.column("c"), counts)
        )

    def check_k(self, _index, result) -> bool:
        keys, sums, counts = self.by_k
        return (
            exact(result.column("k"), keys)
            and exact(result.column("s"), sums)
            and exact(result.column("c"), counts)
        )

    def filter_reference(self) -> dict:
        c = self.columns
        x1, x2, x3, x4, v = c["x1"], c["x2"], c["x3"], c["x4"], c["v"]
        keep = (x1 > np.float32(0.25)) & (x2 < np.float32(0.75)) & (v > -100.0)
        x1, x2, x3, x4, v = x1[keep], x2[keep], x3[keep], x4[keep], v[keep]
        return {
            "id": c["id"][keep],
            "a": x1 * x2 + x3 * x4,
            "b": (x1 + x2) * (x3 - x4),
            "c": v * 2.0 + x1,
        }

    def check_filter(self, _index, result) -> bool:
        return all(
            exact(result.column(name), want)
            for name, want in self.filtered.items()
        )

    def check_mj_groupby(self, _index, result) -> bool:
        keys, sums, counts = self.scored_by_species
        return (
            exact(result.column("species"), keys)
            and sum32(result.column("p"), sums)
            and exact(result.column("c"), counts)
        )

    def check_topk(self, _index, result) -> bool:
        order = self.top10
        return exact(result.column("id"), self.columns["id"][order]) and exact(
            result.column("v"), self.columns["v"][order]
        )

    def check_ml_to_sql(self, _index, result) -> bool:
        return exact(result.column("id"), self.small_ids) and bool(
            np.allclose(
                result.column("prediction_0"), self.small_reference,
                rtol=0.0, atol=1e-4,
            )
        )

    def probes(self, untraced: dict) -> dict:
        return floors.ratio(floors.olap_floor_ms(self), untraced["p50_ms"])


# ----------------------------------------------------------------------
# point_lookup
# ----------------------------------------------------------------------
class PointLookup(Workload):
    name = "point_lookup"
    ROWS = {"full": 500_000, "tiny": 8_192}
    WARMUP_OPS = {"full": 30, "tiny": 3}
    TRACED_OPS = {"full": 200, "tiny": 10}
    BATCH_SHAPE = (1, 4)
    RANGE = 64

    def __init__(self, seed, scale="full", collect_query_log=True):
        super().__init__(seed, scale)
        self.collect_query_log = collect_query_log

    def setup(self) -> None:
        self.db = repro.connect(collect_query_log=self.collect_query_log)
        self.data = load_iris_table(self.db, self.rows, seed=self.seed)
        self.model = make_dense_model(32, 2, seed=self.seed)
        publish_model(self.db, "d32x2", self.model)
        rows, rng = self.rows, self.rng
        self.points = rng.integers(0, rows, (CYCLE, 2))
        # a range never crosses a scan-vector boundary (module docstring)
        self.range_starts = rng.integers(0, rows // VECTOR, CYCLE) * VECTOR + (
            rng.integers(0, VECTOR - self.RANGE + 1, CYCLE)
        )
        self.in_lists = rng.integers(0, rows, (CYCLE, 3))
        self.statements = (
            Statement("point_select", self.sql_select, self.check_select),
            Statement("point_mj", self.sql_mj, self.check_mj),
            Statement("point_range_mj", self.sql_range, self.check_range),
            Statement("point_in3", self.sql_in, self.check_in),
        )

    def sql_select(self, index) -> str:
        key = self.points[index % CYCLE, 0]
        return f"SELECT id, sepal_length, species FROM iris WHERE id = {key}"

    def check_select(self, index, result) -> bool:
        key = self.points[index % CYCLE, 0]
        return (
            exact(result.column("id"), [key])
            and exact(result.column("sepal_length"),
                      self.data.features[key:key + 1, 0])
            and exact(result.column("species"), self.data.labels[key:key + 1])
        )

    def sql_mj(self, index) -> str:
        key = self.points[index % CYCLE, 1]
        return (
            f"SELECT id, prediction_0 FROM iris MODEL JOIN d32x2 {IRIS_USING} "
            f"WHERE id = {key}"
        )

    def check_mj(self, index, result) -> bool:
        key = self.points[index % CYCLE, 1]
        want = self.model.predict(self.data.features[key:key + 1])[:, 0]
        return exact(result.column("id"), [key]) and exact(
            result.column("prediction_0"), want
        )

    def sql_range(self, index) -> str:
        low = self.range_starts[index % CYCLE]
        return (
            f"SELECT id, prediction_0 FROM iris MODEL JOIN d32x2 {IRIS_USING} "
            f"WHERE id BETWEEN {low} AND {low + self.RANGE - 1}"
        )

    def check_range(self, index, result) -> bool:
        low = self.range_starts[index % CYCLE]
        high = low + self.RANGE
        want = self.model.predict(self.data.features[low:high])[:, 0]
        return exact(result.column("id"), np.arange(low, high)) and exact(
            result.column("prediction_0"), want
        )

    def sql_in(self, index) -> str:
        a, b, c = self.in_lists[index % CYCLE]
        return f"SELECT id, sepal_width FROM iris WHERE id IN ({a}, {b}, {c})"

    def check_in(self, index, result) -> bool:
        keys = np.unique(self.in_lists[index % CYCLE])
        return exact(result.column("id"), keys) and exact(
            result.column("sepal_width"), self.data.features[keys, 1]
        )

    def probes(self, untraced: dict) -> dict:
        """Query-log collection on (this engine) vs off (a twin)."""
        twin = PointLookup(self.seed, self.scale, collect_query_log=False)
        twin.setup()
        try:
            count = 150 if self.scale == "full" else 10
            for index in range(10):
                twin.operation(index)
            on, off = [], []
            # interleaved so drift hits both sides alike
            for index in range(count):
                for engine, sink in ((self, on), (twin, off)):
                    sink.append(sum(
                        outcome.seconds
                        for outcome in engine.operation(index)
                    ))
        finally:
            twin.teardown()
        return {
            "introspect.collect_overhead_share": (
                float(np.median(on)) / float(np.median(off)) - 1.0
            ),
        }


# ----------------------------------------------------------------------
# served_mix
# ----------------------------------------------------------------------
class ServedMix(Workload):
    name = "served_mix"
    clients = min(2, os.cpu_count() or 1)
    ROWS = {"full": 100_000, "tiny": 4_096}
    EVENT_ROWS = {"full": 20_000, "tiny": 2_000}
    WARMUP_OPS = {"full": 100, "tiny": 10}
    TRACED_OPS = {"full": 400, "tiny": 20}
    KINDS = STATEMENTS["served_mix"]
    BATCH_SHAPE = (1, 4)
    GROUPS = 64

    def setup(self) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        self.directory = tempfile.mkdtemp(prefix="served-", dir=OUT_DIR)
        self.db = repro.connect(path=os.path.join(self.directory, "db"))
        self.data = load_iris_table(self.db, self.rows, seed=self.seed)
        self.model = make_dense_model(32, 2, seed=self.seed)
        publish_model(self.db, "d32x2", self.model)
        events = self.sized(self.EVENT_ROWS)
        self.db.execute("CREATE TABLE events (id INTEGER, g INTEGER, v DOUBLE)")
        groups = self.rng.integers(0, self.GROUPS, events).astype(np.int64)
        values = self.rng.integers(-4000, 4000, events).astype(np.float64) / 8
        self.db.table("events").append_columns(
            id=np.arange(events, dtype=np.int64), g=groups, v=values
        )
        self.db.checkpoint()
        _, self.group_sums, self.group_counts = group_sums(
            groups, values, present_only=False
        )
        self.server = Server(self.db, dispatchers=2)
        self.wire = WireServer(self.server)
        self.connections = [
            WireClient(self.wire.host, self.wire.port)
            for _ in range(self.clients)
        ]
        # per client: request kind (80/15/5) and its literal
        draws = self.rng.random((self.clients, CYCLE))
        self.kinds = np.digitize(draws, [0.80, 0.95])
        self.literals = np.where(
            self.kinds == 0,
            self.rng.integers(0, self.rows, (self.clients, CYCLE)),
            self.rng.integers(0, self.GROUPS, (self.clients, CYCLE)),
        )

    def teardown(self) -> None:
        for connection in getattr(self, "connections", ()):
            connection.close()
        self.connections = []
        if self.db is not None:
            self.pins_leaked = self.db.storage.pinned_generations()
            self.wire.close()
            self.server.close()
        super().teardown()
        shutil.rmtree(self.directory, ignore_errors=True)

    def request_text(self, index: int, client: int) -> tuple[int, int, str]:
        kind = int(self.kinds[client, index % CYCLE])
        literal = int(self.literals[client, index % CYCLE])
        if kind == 0:
            text = (
                "SELECT id, prediction_0 FROM iris "
                f"MODEL JOIN d32x2 {IRIS_USING} WHERE id = {literal}"
            )
        elif kind == 1:
            text = (
                "SELECT g, SUM(v) AS s, COUNT(v) AS c FROM events "
                f"WHERE g = {literal} GROUP BY g"
            )
        else:
            # a group no reader queries, so reads stay exactly checkable
            text = (
                f"INSERT INTO events VALUES ({10_000_000 + index}, "
                f"{1000 + client}, 1.5)"
            )
        return kind, literal, text

    def operation(self, index: int, client: int = 0) -> list[Outcome]:
        kind, _, text = self.request_text(index, client)
        connection = self.connections[client]
        outcome = timed(self.KINDS[kind], lambda: connection.query(text))
        self.absorb_profile()
        return [outcome]

    def verify(self, index: int, outcomes, client: int = 0) -> bool:
        kind, literal, _ = self.request_text(index, client)
        response = outcomes[0].value
        if kind == 0:
            want = self.model.predict(self.data.features[literal:literal + 1])
            return response["rows"] == [[literal, float(want[0, 0])]]
        if kind == 1:
            return response["rows"] == [[
                literal,
                float(self.group_sums[literal]),
                int(self.group_counts[literal]),
            ]]
        return response["ok"] is True and response["row_count"] == 0

    def statement_texts(self) -> list[str]:
        first = {}
        for index in range(CYCLE):
            kind, _, text = self.request_text(index, 0)
            first.setdefault(kind, text)
            if len(first) == 3:
                break
        return [first[kind] for kind in range(3)]

    def probe_texts(self) -> list[str]:
        # one request per operation, 80 % of them this point statement
        return self.statement_texts()[:1]

    def probes(self, untraced: dict) -> dict:
        """Wire vs in-process session vs bare engine, same point statement."""
        count = 200 if self.scale == "full" else 10
        keys = self.rng.integers(0, self.rows, count)
        text = (
            f"SELECT id, prediction_0 FROM iris MODEL JOIN d32x2 {IRIS_USING} "
            "WHERE id = {}"
        )
        session = self.server.open_session()
        calls = {
            "wire": self.connections[0].query,
            "session": session.execute,
            "engine": self.db.execute,
        }
        samples = {name: [] for name in calls}
        try:
            for key in keys:
                for name, call in calls.items():
                    started = time.perf_counter()
                    call(text.format(key))
                    samples[name].append(time.perf_counter() - started)
        finally:
            session.close()
        p50 = {name: float(np.median(v)) * 1e6 for name, v in samples.items()}
        stats = self.server.sessions_snapshot()
        kinds = untraced["statement_p50_ms"]
        return {
            "serve.wire_overhead_us": p50["wire"] - p50["session"],
            "serve.session_overhead_us": p50["session"] - p50["engine"],
            "serve.rejected": sum(row["rejected"] for row in stats),
            "serve.pins_leaked": self.db.storage.pinned_generations(),
            "serve.insert_p50_ms": kinds.get("served_insert", 0.0),
            "serve.read_p50_ms": float(np.median([
                kinds[name] for name in ("served_point_mj", "served_agg")
                if name in kinds
            ] or [0.0])),
            "storage.checkpoint_ms": median_ms(self.db.checkpoint, 3),
            "storage.disk_bytes_per_raw_byte": disk_ratio(
                self.db, os.path.join(self.directory, "db")
            ),
        }


def disk_ratio(db, path: str) -> float:
    """Bytes under the checkpoint's data files / nominal table bytes."""
    on_disk = sum(
        os.path.getsize(os.path.join(folder, name))
        for folder, _, names in os.walk(path)
        for name in names
        if not name.endswith(".jsonl")
    )
    nominal = sum(
        table.nominal_bytes() for table in db.catalog.tables.values()
    )
    return on_disk / nominal if nominal else 0.0


# ----------------------------------------------------------------------
# sharded_scan
# ----------------------------------------------------------------------
class ShardedScan(Workload):
    name = "sharded_scan"
    SETUP_REPEATS = 3
    ROWS = {"full": 250_000, "tiny": 8_192}
    SHARDS = 2
    TEXTS = (
        "SELECT g, SUM(v) AS s, COUNT(v) AS c, AVG(v) AS a FROM facts "
        "GROUP BY g ORDER BY g",
        "SELECT k, SUM(prediction_0) AS p, COUNT(prediction_0) AS c "
        f"FROM facts MODEL JOIN scorer {FACT_USING} GROUP BY k ORDER BY k",
        f"SELECT id, prediction_0 FROM facts MODEL JOIN scorer {FACT_USING} "
        "WHERE x1 > 0.9",
    )

    def setup(self) -> None:
        self.columns = fact_columns(self.rng, self.rows)
        self.model = Sequential(
            [Dense(8, "relu"), Dense(1, "sigmoid")],
            input_width=4,
            seed=self.seed,
        )
        self.db = self.build(shards=self.SHARDS)
        self.predictions = reference_scores(
            self.model, fact_features(self.columns)
        )
        self.by_g = group_sums(self.columns["g"], self.columns["v"])
        self.scored_by_k = group_sums(
            self.columns["k"], self.predictions.astype(np.float64)
        )
        self.kept = np.flatnonzero(self.columns["x1"] > np.float32(0.9))
        checks = (self.check_partial, self.check_mj_groupby, self.check_concat)
        self.statements = tuple(
            Statement(name, (lambda _i, text=text: text), check)
            for name, text, check in zip(
                STATEMENTS[self.name], self.TEXTS, checks
            )
        )

    def build(self, shards: int):
        db = repro.connect(shards=shards)
        load_facts(db, self.columns, partition_by="k")
        publish_model(db, "scorer", self.model)
        return db

    def check_partial(self, _index, result) -> bool:
        keys, sums, counts = self.by_g
        return (
            exact(result.column("g"), keys)
            and exact(result.column("s"), sums)
            and exact(result.column("c"), counts)
            and exact(result.column("a"), sums / counts)
        )

    def check_mj_groupby(self, _index, result) -> bool:
        keys, sums, counts = self.scored_by_k
        return (
            exact(result.column("k"), keys)
            and sum32(result.column("p"), sums)
            and exact(result.column("c"), counts)
        )

    def check_concat(self, _index, result) -> bool:
        ids = result.column("id")
        order = np.argsort(ids, kind="stable")  # shard arrival order varies
        return exact(ids[order], self.kept) and close32(
            result.column("prediction_0")[order], self.predictions[self.kept]
        )

    def shard_rows(self) -> list[tuple]:
        return self.db.execute(
            "SELECT shard_id, rows, rows_read FROM system.shards "
            "ORDER BY shard_id"
        ).rows

    def counters(self) -> Counter:
        out = super().counters()
        out["shards.rows_read"] = sum(row[2] for row in self.shard_rows())
        return out

    def probes(self, untraced: dict) -> dict:
        """The same statements on an unsharded engine, and shard balance."""
        repeats = 5 if self.scale == "full" else 2
        single = self.build(shards=0)
        try:
            for text in self.TEXTS:
                single.execute(text)
            single_op = sum(
                median_ms(lambda text=text: single.execute(text), repeats)
                for text in self.TEXTS
            )
            explain_single = sum(
                median_ms(lambda text=text: single.explain(text), repeats)
                for text in self.TEXTS
            )
        finally:
            single.close()
        explain_sharded = sum(
            median_ms(lambda text=text: self.db.explain(text), repeats)
            for text in self.TEXTS
        )
        rows = [row[1] for row in self.shard_rows()]
        return {
            "shard.fragment_plan_us": max(
                explain_sharded - explain_single, 0.0
            ) * 1e3,
            "shard.ratio_vs_single": untraced["p50_ms"] / single_op,
            "shard.skew": max(rows) / (sum(rows) / len(rows)),
        }


# ----------------------------------------------------------------------
# disk_cold
# ----------------------------------------------------------------------
class DiskCold(Workload):
    name = "disk_cold"
    ROWS = {"full": 120_000, "tiny": 8_192}
    #: smaller than the columns one operation fetches (4.8 MB at full scale)
    POOL_BYTES = {"full": 4 * 1024 * 1024, "tiny": 128 * 1024}
    RANGE = 1000
    LIFECYCLE_STATEMENTS = ("disk_open", "disk_close")
    SCAN_SQL = f"SELECT id, prediction_0 FROM facts MODEL JOIN scorer {FACT_USING}"
    GROUP_SQL = (
        "SELECT g, SUM(v) AS s, COUNT(v) AS c FROM facts GROUP BY g ORDER BY g"
    )

    def setup(self) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        self.directory = tempfile.mkdtemp(prefix="disk-", dir=OUT_DIR)
        self.path = os.path.join(self.directory, "db")
        self.columns = fact_columns(self.rng, self.rows)
        self.model = make_dense_model(32, 2, seed=self.seed)
        #: shared by every per-operation connection, so counters and
        #: spans accumulate across opens (both are public connect kwargs)
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(enabled=False)
        self.accumulated: Counter = Counter()
        writer = repro.connect(path=self.path)
        load_facts(writer, self.columns)
        publish_model(writer, "scorer", self.model)
        writer.execute(self.SCAN_SQL)  # warm model cache, persisted on close
        self.checkpoint_ms = median_ms(writer.checkpoint, 1)
        self.disk_ratio = disk_ratio(writer, self.path)
        writer.close()
        #: the checkpointed database as set-up left it; every operation
        #: opens a fresh copy of it (see :meth:`restore`)
        self.checkpointed = os.path.join(self.directory, "checkpointed")
        shutil.copytree(self.path, self.checkpointed)
        self.predictions = reference_scores(
            self.model, fact_features(self.columns)
        )
        self.by_g = group_sums(self.columns["g"], self.columns["v"])
        self.range_starts = self.rng.integers(
            0, self.rows - self.RANGE, CYCLE
        )

    def teardown(self) -> None:
        super().teardown()
        shutil.rmtree(self.directory, ignore_errors=True)

    def open(self):
        return repro.connect(
            path=self.path,
            buffer_pool_bytes=self.sized(self.POOL_BYTES),
            tracer=self.tracer,
            metrics=self.metrics,
        )

    def range_sql(self, index: int) -> str:
        low = self.range_starts[index % CYCLE]
        return (
            "SELECT id, v FROM facts "
            f"WHERE id BETWEEN {low} AND {low + self.RANGE - 1}"
        )

    def restore(self) -> None:
        """Untimed: put the database directory back as set-up left it.

        Every session appends its queries to ``query_log.jsonl`` and the
        next open reads the whole file back, so without this an
        operation gets slower with the number of operations before it
        (open: 4 ms -> 17 ms over 400) and a run's median depends on how
        many it managed to do (README, finding 7)."""
        shutil.rmtree(self.path)
        shutil.copytree(self.checkpointed, self.path)

    def operation(self, index: int, client: int = 0) -> list[Outcome]:
        self.restore()
        outcomes = [timed("disk_open", self.open)]
        self.db = outcomes[0].value
        try:
            for name, text in (
                ("disk_mj_scan", self.SCAN_SQL),
                ("disk_groupby", self.GROUP_SQL),
                ("disk_range", self.range_sql(index)),
            ):
                outcomes.append(
                    timed(name, lambda: self.db.execute(text))
                )
                self.absorb_profile()
            self.accumulated.update(cache_counters(self.db))
        finally:
            database, self.db = self.db, None
            outcomes.append(timed("disk_close", database.close))
        return outcomes

    def verify(self, index: int, outcomes, client: int = 0) -> bool:
        scan, group, ranged = (outcome.value for outcome in outcomes[1:4])
        keys, sums, counts = self.by_g
        low = self.range_starts[index % CYCLE]
        high = low + self.RANGE
        return (
            exact(scan.column("id"), self.columns["id"])
            and exact(scan.column("prediction_0"), self.predictions)
            and exact(group.column("g"), keys)
            and exact(group.column("s"), sums)
            and exact(group.column("c"), counts)
            and exact(ranged.column("id"), self.columns["id"][low:high])
            and exact(ranged.column("v"), self.columns["v"][low:high])
        )

    def probe_texts(self) -> list[str]:
        return [self.SCAN_SQL, self.GROUP_SQL, self.range_sql(0)]

    def statement_texts(self) -> list[str]:
        return [
            "repro.connect(path=, buffer_pool_bytes=)",
            *self.probe_texts(),
            "Database.close()",
        ]

    @contextlib.contextmanager
    def probe_database(self):
        database = self.open()
        try:
            yield database
        finally:
            database.close()

    def trace_on(self) -> Tracer:
        self.tracer.enabled = True
        self.tracer.clear()
        return self.tracer

    def trace_off(self) -> None:
        self.tracer.enabled = False

    def counters(self) -> Counter:
        # registry counters are cumulative in the shared registry; the
        # per-connection cache/pool numbers were summed at each close
        out = Counter(self.accumulated)
        out.update(registry_counters(self.metrics))
        return out

    def probes(self, untraced: dict) -> dict:
        statements = untraced["statement_p50_ms"]
        return {
            "storage.open_ms": statements.get("disk_open", 0.0),
            "storage.close_ms": statements.get("disk_close", 0.0),
            "storage.checkpoint_ms": self.checkpoint_ms,
            "storage.disk_bytes_per_raw_byte": self.disk_ratio,
        }


WORKLOADS = {
    cls.name: cls
    for cls in (
        BatchNarrow, BatchHeavy, OlapMix, PointLookup, ServedMix,
        ShardedScan, DiskCold,
    )
}
