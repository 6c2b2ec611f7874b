"""The query-trace subsystem: spans, metrics, export, overhead paths."""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

import repro
from repro.core.registry import publish_model
from repro.db.engine import Database, Result
from repro.db.profiler import MemoryAccountant
from repro.db.tracing import (
    NULL_SPAN,
    NULL_TRACER,
    Histogram,
    MetricsRegistry,
    NullTracer,
    Tracer,
    flatten_metrics,
)
from repro.nn.layers import Dense
from repro.nn.model import Sequential

# runs again under `python -X dev` with ResourceWarnings as errors
pytestmark = pytest.mark.leak_guard


def _spans_by_name(tracer: Tracer) -> dict[str, list[dict]]:
    grouped: dict[str, list[dict]] = {}
    for span in tracer.finished_spans():
        grouped.setdefault(span["name"], []).append(span)
    return grouped


class TestTracerCore:
    def test_span_nesting_same_thread(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        spans = {span["name"]: span for span in tracer.finished_spans()}
        assert spans["inner"]["parent_id"] == spans["outer"]["id"]
        assert spans["outer"]["parent_id"] is None

    def test_span_intervals_nest(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        spans = {span["name"]: span for span in tracer.finished_spans()}
        outer, inner = spans["outer"], spans["inner"]
        assert outer["start_us"] <= inner["start_us"]
        assert (
            inner["start_us"] + inner["duration_us"]
            <= outer["start_us"] + outer["duration_us"] + 1
        )

    def test_explicit_parent_overrides_stack(self):
        tracer = Tracer()
        parent_id = tracer.allocate_id()
        with tracer.span("root"):
            with tracer.span("child", parent_id=parent_id):
                pass
        spans = {span["name"]: span for span in tracer.finished_spans()}
        assert spans["child"]["parent_id"] == parent_id

    def test_concurrent_threads_keep_separate_stacks(self):
        tracer = Tracer()
        barrier = threading.Barrier(4)

        def work(index: int) -> None:
            barrier.wait()
            for _ in range(50):
                with tracer.span(f"outer-{index}"):
                    with tracer.span(f"inner-{index}"):
                        pass

        threads = [
            threading.Thread(target=work, args=(index,))
            for index in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        grouped = _spans_by_name(tracer)
        for index in range(4):
            outers = {
                span["id"] for span in grouped[f"outer-{index}"]
            }
            inners = grouped[f"inner-{index}"]
            assert len(inners) == 50
            # Every inner span parents under one of ITS thread's outer
            # spans — never under another thread's.
            for span in inners:
                assert span["parent_id"] in outers

    def test_max_events_drops_and_counts(self):
        tracer = Tracer(max_events=10)
        for index in range(50):
            with tracer.span(f"s{index}"):
                pass
        assert len(tracer.finished_spans()) <= 10
        assert tracer.dropped_events >= 40
        trace = tracer.chrome_trace()
        assert trace["otherData"]["dropped_events"] >= 40

    def test_clear_resets(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        tracer.clear()
        assert tracer.finished_spans() == []


class TestDisabledTracer:
    def test_disabled_span_is_null_singleton(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("anything") is NULL_SPAN

    def test_null_tracer_cannot_be_enabled(self):
        NULL_TRACER.enabled = True
        assert NULL_TRACER.enabled is False
        assert isinstance(NULL_TRACER, NullTracer)

    def test_disabled_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        assert tracer.finished_spans() == []

    def test_default_context_pays_no_operator_timing(self, db: Database):
        db.execute("CREATE TABLE t (a FLOAT)")
        db.execute("INSERT INTO t VALUES (1.0), (2.0)")
        db.execute("SELECT a FROM t")
        # Disabled tracer → the fast next_batches path (no timing).
        assert db.tracer.enabled is False
        assert db.tracer.finished_spans() == []


class TestHistogram:
    def test_exact_stats(self):
        histogram = Histogram()
        for value in [1.0, 2.0, 3.0, 4.0]:
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.mean == pytest.approx(2.5)
        assert histogram.min == 1.0
        assert histogram.max == 4.0

    def test_nearest_rank_percentiles(self):
        histogram = Histogram()
        for value in range(1, 101):  # 1..100
            histogram.observe(float(value))
        assert histogram.percentile(50.0) == 50.0
        assert histogram.percentile(95.0) == 95.0
        assert histogram.percentile(99.0) == 99.0
        assert histogram.percentile(100.0) == 100.0

    def test_percentile_bounds_validated(self):
        histogram = Histogram()
        with pytest.raises(ValueError):
            histogram.percentile(0.0)
        with pytest.raises(ValueError):
            histogram.percentile(101.0)

    def test_reservoir_decimation_keeps_percentiles_sane(self):
        histogram = Histogram(max_samples=64)
        for value in range(10_000):
            histogram.observe(float(value))
        assert histogram.count == 10_000
        # Exact extremes survive decimation...
        assert histogram.min == 0.0
        assert histogram.max == 9_999.0
        # ...and the sampled median stays in the right neighbourhood.
        assert 3_000.0 <= histogram.percentile(50.0) <= 7_000.0

    def test_empty_percentile_is_zero(self):
        assert Histogram().percentile(50.0) == 0.0


class TestMetricsRegistry:
    def test_get_or_create_and_type_conflicts(self):
        metrics = MetricsRegistry()
        counter = metrics.counter("a")
        assert metrics.counter("a") is counter
        with pytest.raises(ValueError):
            metrics.gauge("a")
        with pytest.raises(ValueError):
            metrics.histogram("a")

    def test_snapshot_and_flatten(self):
        metrics = MetricsRegistry()
        metrics.counter("hits").increment(3)
        metrics.gauge("ratio").set(0.75)
        metrics.histogram("lat").observe(1.0)
        metrics.histogram("lat").observe(3.0)
        flat = flatten_metrics(metrics.snapshot())
        assert flat["hits"] == 3
        assert flat["ratio"] == 0.75
        assert flat["lat.count"] == 2
        assert flat["lat.mean"] == pytest.approx(2.0)
        assert "lat.p95" in flat

    def test_contains_and_reset(self):
        metrics = MetricsRegistry()
        metrics.counter("x")
        assert "x" in metrics
        metrics.reset()
        assert "x" not in metrics


class TestChromeTraceExport:
    def test_export_is_perfetto_loadable(self, tmp_path):
        tracer = Tracer()
        with tracer.span("query", category="query"):
            with tracer.span("work", category="operator"):
                pass
        path = tmp_path / "trace.json"
        count = tracer.export(str(path))
        assert count >= 2
        document = json.loads(path.read_text())
        assert isinstance(document["traceEvents"], list)
        complete = [
            event
            for event in document["traceEvents"]
            if event.get("ph") == "X"
        ]
        assert len(complete) == 2
        for event in complete:
            assert {"name", "cat", "ph", "ts", "dur", "pid", "tid"} <= set(
                event
            )
            assert event["ts"] >= 0
            assert event["dur"] >= 0
        # Thread-name metadata events for the Perfetto track labels.
        metadata = [
            event
            for event in document["traceEvents"]
            if event.get("ph") == "M"
        ]
        assert any(
            event["name"] == "thread_name" for event in metadata
        )

    def test_golden_event_shape(self, tmp_path):
        """The stable export contract, pinned field by field."""
        tracer = Tracer()
        with tracer.span(
            "morsel", category="morsel", args={"rows": 17}
        ):
            pass
        event = [
            entry
            for entry in tracer.chrome_trace()["traceEvents"]
            if entry.get("ph") == "X"
        ][0]
        assert event["name"] == "morsel"
        assert event["cat"] == "morsel"
        assert event["args"]["rows"] == 17
        assert isinstance(event["args"]["span_id"], int)
        assert event["tid"] > 0


class TestEngineTracing:
    def test_export_trace_via_database(self, tmp_path, db: Database):
        db.enable_tracing()
        db.execute("CREATE TABLE t (a FLOAT)")
        db.execute("INSERT INTO t VALUES (1.0), (2.0), (3.0)")
        db.execute("SELECT a FROM t WHERE a > 1.5")
        path = tmp_path / "query_trace.json"
        count = db.export_trace(str(path))
        assert count > 0
        document = json.loads(path.read_text())
        names = {
            event["name"]
            for event in document["traceEvents"]
            if event.get("ph") == "X"
        }
        assert "query" in names
        assert "TableScan" in names  # operator span

    def test_disable_tracing_stops_recording(self, db: Database):
        db.enable_tracing()
        db.execute("CREATE TABLE t (a FLOAT)")
        db.execute("SELECT a FROM t")
        recorded = len(db.tracer.finished_spans())
        assert recorded > 0
        db.disable_tracing()
        assert db.tracer.enabled is False
        db.execute("SELECT a FROM t WHERE a > 0")
        assert len(db.tracer.finished_spans()) == recorded

    def test_operator_spans_parent_chain(self, db: Database):
        db.enable_tracing()
        db.execute("CREATE TABLE t (a FLOAT)")
        db.execute("INSERT INTO t VALUES (1.0), (2.0)")
        db.execute("SELECT a FROM t WHERE a > 0")
        spans = {
            span["name"]: span for span in db.tracer.finished_spans()
        }
        query = spans["query"]
        scan = spans["TableScan"]
        # Walking parents from the scan must reach the query span.
        by_id = {
            span["id"]: span for span in db.tracer.finished_spans()
        }
        node = scan
        seen = set()
        while node["parent_id"] is not None:
            assert node["id"] not in seen
            seen.add(node["id"])
            node = by_id[node["parent_id"]]
        assert node["id"] == query["id"]

    def test_parallel_spans_under_concurrent_worker_pool(self):
        database = repro.connect(parallelism=4)
        database.enable_tracing()
        database.execute(
            "CREATE TABLE f (id INTEGER, a FLOAT) "
            "PARTITION BY (id) PARTITIONS 4"
        )
        n = 8192
        database.table("f").append_columns(
            id=np.arange(n),
            a=np.random.default_rng(1).random(n).astype(np.float32),
        )
        result = database.execute(
            "SELECT id, a FROM f WHERE a >= 0.0", parallel=True
        )
        assert result.row_count == n
        spans = database.tracer.finished_spans()
        grouped: dict[str, list[dict]] = {}
        for span in spans:
            grouped.setdefault(span["name"], []).append(span)
        query = grouped["query"][0]
        pipelines = grouped["pipeline"]
        assert len(pipelines) == 4
        # Cross-thread edge: every pipeline parents under the query.
        for pipeline in pipelines:
            assert pipeline["parent_id"] == query["id"]
        # Pipelines actually ran on distinct worker threads.
        assert len({span["thread"] for span in pipelines}) > 1
        # Morsel spans parent under their pipeline's scan operator.
        scans = {span["id"] for span in grouped["TableScan"]}
        assert grouped["morsel"]
        for morsel in grouped["morsel"]:
            assert morsel["parent_id"] in scans
            assert "worker" in morsel["args"]
        database.close()

    def test_modeljoin_trace_has_all_levels(self, tmp_path):
        database = repro.connect(parallelism=4)
        database.enable_tracing()
        database.execute(
            "CREATE TABLE facts (id INTEGER, a FLOAT, b FLOAT, "
            "c FLOAT, d FLOAT) PARTITION BY (id) PARTITIONS 4"
        )
        rng = np.random.default_rng(0)
        n = 4096
        database.table("facts").append_columns(
            id=np.arange(n),
            a=rng.random(n).astype(np.float32),
            b=rng.random(n).astype(np.float32),
            c=rng.random(n).astype(np.float32),
            d=rng.random(n).astype(np.float32),
        )
        model = Sequential(
            [Dense(8, "relu"), Dense(1, "sigmoid")],
            input_width=4,
            seed=5,
        )
        publish_model(database, "m", model)
        result = database.execute(
            "SELECT id, prediction_0 FROM facts MODEL JOIN m "
            "USING (a, b, c, d)",
            parallel=True,
        )
        assert result.row_count == n
        path = tmp_path / "mj_trace.json"
        database.export_trace(str(path))
        document = json.loads(path.read_text())
        events = [
            event
            for event in document["traceEvents"]
            if event.get("ph") == "X"
        ]
        categories = {event["cat"] for event in events}
        names = {event["name"] for event in events}
        assert {
            "query",
            "parallel",
            "operator",
            "phase",
            "morsel",
            "kernel",
        } <= categories
        assert "modeljoin-build" in names
        assert "modeljoin-infer" in names
        assert "gemm" in names
        metrics = flatten_metrics(database.metrics.snapshot())
        assert metrics["query.latency.count"] >= 1
        assert metrics["modeljoin.build_seconds.count"] >= 1
        database.close()

    def test_query_latency_metrics_accumulate(self, db: Database):
        db.execute("CREATE TABLE t (a FLOAT)")
        db.execute("INSERT INTO t VALUES (1.0)")
        for _ in range(3):
            db.execute("SELECT a FROM t")
        snapshot = db.metrics.snapshot()
        assert snapshot["query.latency"]["count"] >= 3
        assert snapshot["query.count"]["value"] >= 3


class TestExplainAnalyze:
    def test_serial_shows_time_and_batches(self, db: Database):
        db.execute("CREATE TABLE t (a FLOAT)")
        db.execute("INSERT INTO t VALUES (1.0), (2.0), (3.0)")
        plan, result = db.explain_analyze("SELECT a FROM t WHERE a > 1")
        assert result.row_count == 2
        assert "[rows: 2]" in plan
        assert "[batches:" in plan
        assert "[time:" in plan

    def test_parallel_merges_partition_stats(self):
        database = repro.connect(parallelism=4)
        database.execute(
            "CREATE TABLE f (id INTEGER, a FLOAT) "
            "PARTITION BY (id) PARTITIONS 4"
        )
        n = 4000
        database.table("f").append_columns(
            id=np.arange(n),
            a=np.linspace(0.0, 1.0, n).astype(np.float32),
        )
        plan, result = database.explain_analyze(
            "SELECT id, a FROM f", parallel=True
        )
        assert result.row_count == n
        assert "Parallel: 4 pipelines" in plan
        # The merged scan line carries the query-global row count, not
        # one partition's quarter share (the zeros of the old output).
        scan_line = next(
            line for line in plan.splitlines() if "TableScan" in line
        )
        assert f"[rows: {n}]" in scan_line
        assert "[time:" in scan_line
        database.close()

    def test_parallel_with_coordinator_operators(self):
        database = repro.connect(parallelism=2)
        database.execute(
            "CREATE TABLE f (id INTEGER, a FLOAT) "
            "PARTITION BY (id) PARTITIONS 2"
        )
        n = 1000
        database.table("f").append_columns(
            id=np.arange(n),
            a=np.linspace(0.0, 1.0, n).astype(np.float32),
        )
        plan, result = database.explain_analyze(
            "SELECT id, a FROM f ORDER BY id LIMIT 5", parallel=True
        )
        assert result.row_count == 5
        assert "coordinator (post-merge):" in plan
        assert "Limit" in plan
        database.close()


class TestMemoryUnderflow:
    def test_release_clamps_at_zero(self):
        accountant = MemoryAccountant()
        accountant.allocate(100, "model")
        accountant.release(150, "model")
        assert accountant.current_bytes == 0
        assert accountant.by_category["model"] == 0
        assert accountant.underflows == 1

    def test_double_release_counts_each_underflow(self):
        accountant = MemoryAccountant()
        accountant.allocate(10)
        accountant.release(10)
        accountant.release(10)
        accountant.release(10)
        assert accountant.underflows == 2
        assert accountant.current_bytes == 0

    def test_underflow_does_not_deflate_peak(self):
        accountant = MemoryAccountant()
        accountant.allocate(100)
        accountant.release(500)
        accountant.allocate(100)
        assert accountant.peak_bytes == 100
        assert accountant.current_bytes == 100

    def test_reset_clears_underflows(self):
        accountant = MemoryAccountant()
        accountant.allocate(1)
        accountant.release(2)
        accountant.reset()
        assert accountant.underflows == 0

    def test_underflow_surfaces_in_profile_and_metrics(self):
        db = Database()

        def body(context, _planner):
            context.memory.allocate(10, "x")
            context.memory.release(20, "x")
            return Result.empty(context.query.profile)

        db.run_query(db.query_context("<underflow>"), body)
        profile = db.last_profile
        assert profile.counters.get("memory.release_underflow") == 1
        assert db.metrics.counter("memory.release_underflow").value == 1
