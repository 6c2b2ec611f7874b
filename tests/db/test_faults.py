"""Fault injection and resilient execution (docs/ROBUSTNESS.md).

Covers the injector itself (determinism, policies, env spec), the new
error taxonomy, query deadlines, morsel-level retry containment, the
variant fallback chain (bit-exactness included), cache integrity
quarantine, ODBC transfer retries — and a 100-query stress run under a
10% task-fault rate.
"""

import time

import numpy as np
import pytest

import repro
from repro.core.client.external import ExternalInference
from repro.core.client.odbc import OdbcConnection
from repro.core.modeljoin.runner import NativeModelJoin
from repro.core.registry import publish_model
from repro.core.resilience import ResilientModelJoin
from repro.db import faults
from repro.db.faults import FaultInjector, parse_spec
from repro.db.parallel import WorkerPool
from repro.db.resilience import (
    CancellationToken,
    CircuitBreaker,
    backoff_seconds,
    breaker_for,
)
from repro.device import SimulatedGpu
from repro.errors import (
    CacheCorruptionError,
    ExecutionError,
    FallbackExhaustedError,
    InjectedFaultError,
    QueryTimeoutError,
    ReproError,
    WorkerCrashError,
)
from repro.workloads.iris import FEATURE_COLUMNS, load_iris_table
from repro.workloads.models import make_dense_model, make_lstm_model
from repro.workloads.timeseries import load_windowed_series_table

PARALLELISM = 4


@pytest.fixture(autouse=True)
def no_leaked_injector():
    """Every test leaves the process fault-free."""
    yield
    faults.uninstall()


@pytest.fixture
def parallel_db():
    db = repro.connect(parallelism=PARALLELISM)
    load_iris_table(db, 2_000, num_partitions=PARALLELISM)
    return db


def sorted_column(result, name):
    return np.sort(result.column(name))


def fallback_notes(db) -> list[str]:
    """Notes of the ``fallback`` marker events *db*'s tracer recorded."""
    return [
        span["args"]["note"]
        for span in db.tracer.finished_spans()
        if span["category"] == "fallback"
    ]


def exported_span_categories(db) -> set[str]:
    """Categories of the complete events in *db*'s Chrome-trace export."""
    return {
        event["cat"]
        for event in db.tracer.chrome_trace()["traceEvents"]
        if event["ph"] == "X"
    }


# ----------------------------------------------------------------------
# the injector itself
# ----------------------------------------------------------------------
class TestFaultInjector:
    def test_same_seed_same_fault_pattern(self):
        def pattern(seed):
            injector = FaultInjector(seed=seed)
            injector.raise_with_probability("worker.task", 0.3)
            fired = []
            for _ in range(200):
                try:
                    injector.fire("worker.task")
                    fired.append(False)
                except InjectedFaultError:
                    fired.append(True)
            return fired

        assert pattern(7) == pattern(7)
        assert any(pattern(7))
        assert not all(pattern(7))

    def test_sites_draw_independently(self):
        """Interleaving draws at another site must not shift a site's
        own deterministic sequence."""

        def pattern(interleave):
            injector = FaultInjector(seed=11)
            injector.raise_with_probability("device.gemm", 0.5)
            injector.raise_with_probability("odbc.fetch", 0.5)
            fired = []
            for _ in range(100):
                if interleave:
                    try:
                        injector.fire("odbc.fetch")
                    except InjectedFaultError:
                        pass
                try:
                    injector.fire("device.gemm")
                    fired.append(False)
                except InjectedFaultError:
                    fired.append(True)
            return fired

        assert pattern(False) == pattern(True)

    def test_raise_once_counts_down(self):
        injector = FaultInjector()
        injector.raise_once("worker.task", count=2)
        for _ in range(2):
            with pytest.raises(InjectedFaultError) as info:
                injector.fire("worker.task")
            assert info.value.site == "worker.task"
        injector.fire("worker.task")  # spent: no raise
        stats = injector.statistics()["worker.task"]
        assert stats["raised"] == 2
        assert stats["visits"] == 3
        assert injector.total_faults() == 2

    def test_delay_policy_sleeps(self):
        injector = FaultInjector()
        injector.delay_ms("odbc.fetch", 30)
        started = time.perf_counter()
        injector.fire("odbc.fetch")
        assert time.perf_counter() - started >= 0.02
        assert injector.statistics()["odbc.fetch"]["delayed"] == 1

    def test_corrupt_policy_answers_corrupts_not_fire(self):
        injector = FaultInjector()
        injector.corrupt_payload("cache.load")
        injector.fire("cache.load")  # corrupt policies never raise
        assert injector.corrupts("cache.load")

    def test_unarmed_site_is_silent(self):
        injector = FaultInjector()
        injector.fire("worker.task")
        assert not injector.corrupts("cache.load")

    def test_parse_spec_full_grammar(self):
        injector = parse_spec(
            "seed=5, worker.task=prob:0.25, odbc.fetch=once:3,"
            "device.gemm=delay:12:0.5, cache.load=corrupt:0.1"
        )
        assert injector.seed == 5
        for _ in range(3):
            with pytest.raises(InjectedFaultError):
                injector.fire("odbc.fetch")
        injector.fire("odbc.fetch")
        stats = injector.statistics()
        assert "worker.task" in stats
        assert "delay(12.0ms, p=0.5)" in stats["device.gemm"]["policies"]
        assert "corrupt(p=0.1)" in stats["cache.load"]["policies"]

    def test_parse_spec_rejects_garbage(self):
        with pytest.raises(ReproError):
            parse_spec("worker.task")
        with pytest.raises(ReproError):
            parse_spec("worker.task=explode")

    def test_env_hook_installs_and_uninstalls(self):
        assert faults.install_from_env({}) is None
        assert faults.ACTIVE is None
        injector = faults.install_from_env(
            {"REPRO_FAULTS": "seed=3,worker.task=once:1"}
        )
        assert faults.ACTIVE is injector
        assert injector.seed == 3
        faults.uninstall()
        assert faults.ACTIVE is None

    def test_active_context_manager_scopes_installation(self):
        with faults.active(FaultInjector()) as injector:
            assert faults.ACTIVE is injector
        assert faults.ACTIVE is None


# ----------------------------------------------------------------------
# error taxonomy
# ----------------------------------------------------------------------
class TestErrorTaxonomy:
    def test_everything_lands_under_repro_error(self):
        for error_type in (
            QueryTimeoutError,
            WorkerCrashError,
            FallbackExhaustedError,
            CacheCorruptionError,
            InjectedFaultError,
        ):
            assert issubclass(error_type, ReproError)

    def test_execution_errors_stay_execution_errors(self):
        assert issubclass(QueryTimeoutError, ExecutionError)
        assert issubclass(WorkerCrashError, ExecutionError)

    def test_injected_fault_carries_site(self):
        error = InjectedFaultError("device.gemm")
        assert error.site == "device.gemm"
        assert "device.gemm" in str(error)


# ----------------------------------------------------------------------
# resilience primitives
# ----------------------------------------------------------------------
class TestCancellationToken:
    def test_expires_and_raises(self):
        token = CancellationToken.with_timeout(0.0)
        assert token.expired
        with pytest.raises(QueryTimeoutError):
            token.check()

    def test_unexpired_token_passes(self):
        token = CancellationToken.with_timeout(60.0)
        token.check()
        assert token.remaining_seconds() > 0

    def test_explicit_cancel(self):
        token = CancellationToken()
        token.check()
        token.cancel("user abort")
        with pytest.raises(QueryTimeoutError, match="user abort"):
            token.check()


class TestCircuitBreaker:
    def test_opens_after_threshold_and_half_opens(self):
        clock = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=2, reset_seconds=10.0, clock=lambda: clock[0]
        )
        assert not breaker.is_open
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.is_open
        assert breaker.trips == 1
        clock[0] = 11.0  # cool-down passed: half-open probe allowed
        assert not breaker.is_open
        breaker.record_failure()  # probe failed: open again
        assert breaker.is_open
        clock[0] = 22.0
        assert not breaker.is_open
        breaker.record_success()
        assert not breaker.is_open

    def test_breaker_for_attaches_lazily(self):
        device = SimulatedGpu()
        assert breaker_for(device) is breaker_for(device)

    def test_backoff_doubles_and_caps(self):
        assert backoff_seconds(1, base=0.01, cap=1.0) == 0.01
        assert backoff_seconds(2, base=0.01, cap=1.0) == 0.02
        assert backoff_seconds(20, base=0.01, cap=1.0) == 1.0


# ----------------------------------------------------------------------
# worker pool containment
# ----------------------------------------------------------------------
class TestWorkerPoolContainment:
    def test_run_tasks_chains_worker_identity(self):
        pool = WorkerPool(2)
        try:
            with pytest.raises(ValueError, match="boom") as info:
                pool.run_tasks(
                    [lambda: 1, lambda: (_ for _ in ()).throw(
                        ValueError("boom")
                    )]
                )
            cause = info.value.__cause__
            assert isinstance(cause, WorkerCrashError)
            assert "task 1 of 2" in str(cause)
            assert "worker-" in str(cause)
        finally:
            pool.shutdown()

    def test_outcomes_capture_instead_of_raising(self):
        pool = WorkerPool(2)
        try:
            outcomes = pool.run_task_outcomes(
                [lambda: "ok", lambda: (_ for _ in ()).throw(
                    RuntimeError("bad")
                )]
            )
            assert outcomes[0].result == "ok"
            assert isinstance(outcomes[1].error, RuntimeError)
            assert outcomes[1].worker.startswith("worker-")
            # the pool survived the crash
            assert pool.run_tasks([lambda: 1, lambda: 2]) == [1, 2]
        finally:
            pool.shutdown()

    def test_on_error_hook_runs_on_failure(self):
        pool = WorkerPool(2)
        seen = []
        try:
            pool.run_task_outcomes(
                [lambda: (_ for _ in ()).throw(ValueError("x"))],
                on_error=lambda outcome: seen.append(outcome.worker),
            )
            assert len(seen) == 1
        finally:
            pool.shutdown()

    def test_shutdown_is_idempotent_and_bounded(self):
        pool = WorkerPool(3)
        assert pool.shutdown(drain_timeout=5.0) is True
        assert pool.shutdown(drain_timeout=5.0) is True
        assert pool.undrained == []
        with pytest.raises(ExecutionError, match="shut down"):
            pool.run_tasks([lambda: 1])


# ----------------------------------------------------------------------
# deadlines
# ----------------------------------------------------------------------
class TestQueryDeadlines:
    def test_expired_deadline_raises_and_counts(self, parallel_db):
        db = parallel_db
        with pytest.raises(QueryTimeoutError):
            db.execute("SELECT sepal_length FROM iris", timeout_seconds=0.0)
        assert db.metrics.counter("query.timeouts").value == 1

    def test_parallel_timeout_drains_pool_cleanly(self, parallel_db):
        db = parallel_db
        with pytest.raises(QueryTimeoutError):
            db.execute(
                "SELECT sepal_length + sepal_width AS s FROM iris",
                parallel=True,
                timeout_seconds=0.0,
            )
        # the pool is immediately reusable
        result = db.execute("SELECT sepal_length + sepal_width AS s FROM iris", parallel=True)
        assert result.row_count == 2_000

    def test_generous_deadline_does_not_fire(self, parallel_db):
        db = parallel_db
        result = db.execute(
            "SELECT sepal_length FROM iris", parallel=True, timeout_seconds=60.0
        )
        assert result.row_count == 2_000
        assert db.metrics.counter("query.timeouts").value == 0


# ----------------------------------------------------------------------
# morsel/task retry
# ----------------------------------------------------------------------
class TestPipelineRetry:
    def test_task_crash_retried_to_success(self, parallel_db):
        db = parallel_db
        db.enable_tracing()
        reference = sorted_column(
            db.execute("SELECT sepal_length + sepal_width AS s FROM iris"), "s"
        )
        with faults.active(FaultInjector(seed=1)) as injector:
            injector.raise_once("worker.task", count=1)
            result = db.execute(
                "SELECT sepal_length + sepal_width AS s FROM iris", parallel=True
            )
        assert np.array_equal(sorted_column(result, "s"), reference)
        assert db.metrics.counter("query.retries").value >= 1
        assert db.metrics.counter("worker.crashes").value >= 1
        assert "retry" in exported_span_categories(db)

    def test_morsel_crash_requeues_without_losing_rows(self, parallel_db):
        db = parallel_db
        reference = sorted_column(
            db.execute("SELECT sepal_length + sepal_width AS s FROM iris"), "s"
        )
        with faults.active(FaultInjector(seed=2)) as injector:
            injector.raise_once("worker.morsel", count=1)
            result = db.execute(
                "SELECT sepal_length + sepal_width AS s FROM iris", parallel=True
            )
        assert np.array_equal(sorted_column(result, "s"), reference)
        assert db.metrics.counter("query.retries").value >= 1

    def test_retry_exhaustion_chains_task_identity(self, parallel_db):
        db = parallel_db
        with faults.active(FaultInjector(seed=3)) as injector:
            injector.raise_with_probability("worker.task", 1.0)
            with pytest.raises(InjectedFaultError) as info:
                db.execute("SELECT sepal_length FROM iris", parallel=True)
        cause = info.value.__cause__
        assert isinstance(cause, WorkerCrashError)
        assert "attempt" in str(cause)
        # pool healthy after exhaustion
        result = db.execute("SELECT sepal_length FROM iris", parallel=True)
        assert result.row_count == 2_000

    def test_modeljoin_build_crash_retries_whole_group(self, parallel_db):
        db = parallel_db
        model = make_dense_model(8, 2, seed=5)
        publish_model(
            db, "rclf", model, model_table_partitions=PARALLELISM
        )
        runner = NativeModelJoin(db, "rclf")
        columns = list(FEATURE_COLUMNS)
        reference = runner.predict("iris", "id", columns, parallel=False)
        db.model_cache.clear()
        with faults.active(FaultInjector(seed=4)) as injector:
            injector.raise_once("modeljoin.build", count=1)
            faulted = runner.predict("iris", "id", columns, parallel=True)
        assert np.array_equal(faulted, reference)
        assert db.metrics.counter("query.retries").value >= 1


# ----------------------------------------------------------------------
# variant fallback
# ----------------------------------------------------------------------
class TestVariantFallback:
    def test_gpu_kernel_fault_falls_back_bit_exact(self):
        db = repro.connect()
        db.enable_tracing()
        dataset = load_iris_table(db, 1_000)
        model = make_dense_model(8, 2, seed=6)
        publish_model(db, "gclf", model)
        columns = list(FEATURE_COLUMNS)
        healthy = NativeModelJoin(
            db, "gclf", device=SimulatedGpu()
        ).predict("iris", "id", columns)
        db.model_cache.clear()
        with faults.active(FaultInjector(seed=7)) as injector:
            injector.raise_once("device.gemm", count=1)
            runner = NativeModelJoin(db, "gclf", device=SimulatedGpu())
            faulted = runner.predict("iris", "id", columns)
        assert np.array_equal(faulted, healthy)
        assert db.metrics.counter("fallback.engaged").value >= 1
        assert db.metrics.counter("fallback.device").value >= 1
        assert "fallback" in exported_span_categories(db)
        assert any("->cpu" in note for note in fallback_notes(db))
        np.testing.assert_allclose(
            faulted, model.predict(dataset.features), atol=1e-4
        )

    def test_circuit_breaker_skips_sick_device_up_front(self):
        db = repro.connect()
        db.enable_tracing()
        load_iris_table(db, 500)
        model = make_dense_model(4, 2, seed=8)
        publish_model(db, "bclf", model)
        gpu = SimulatedGpu()
        breaker = breaker_for(gpu)
        for _ in range(breaker.failure_threshold):
            breaker.record_failure()
        runner = NativeModelJoin(db, "bclf", device=gpu)
        predictions = runner.predict(
            "iris", "id", list(FEATURE_COLUMNS)
        )
        assert predictions.shape == (500, model.output_width)
        assert db.metrics.counter("fallback.circuit-breaker").value >= 1
        assert any("->cpu" in note for note in fallback_notes(db))

    def test_resilient_chain_degrades_to_ml_to_sql(self):
        db = repro.connect()
        dataset = load_iris_table(db, 500)
        model = make_dense_model(6, 2, seed=9)
        publish_model(db, "cclf", model)
        resilient = ResilientModelJoin(db, "cclf", model=model)
        with faults.active(FaultInjector(seed=10)) as injector:
            injector.raise_with_probability("modeljoin.build", 1.0)
            predictions = resilient.predict(
                "iris", "id", list(FEATURE_COLUMNS)
            )
        assert resilient.engaged  # the chain did engage
        assert db.metrics.counter("fallback.variant").value >= 1
        np.testing.assert_allclose(
            predictions, model.predict(dataset.features), atol=1e-4
        )

    def test_resilient_chain_exhaustion(self):
        db = repro.connect()
        load_iris_table(db, 200)
        model = make_dense_model(4, 2, seed=11)
        publish_model(db, "xclf", model)
        resilient = ResilientModelJoin(
            db,
            "xclf",
            model=model,
            enable_mltosql=False,
            enable_runtime_api=False,
        )
        with faults.active(FaultInjector(seed=12)) as injector:
            injector.raise_with_probability("modeljoin.build", 1.0)
            with pytest.raises(FallbackExhaustedError) as info:
                resilient.predict("iris", "id", list(FEATURE_COLUMNS))
        assert isinstance(info.value.__cause__, InjectedFaultError)

    def test_external_transfer_retries_then_degrades(self):
        db = repro.connect()
        dataset = load_iris_table(db, 300)
        model = make_dense_model(4, 2, seed=13)
        external = ExternalInference(db, model)
        with faults.active(FaultInjector(seed=14)) as injector:
            injector.raise_once("odbc.fetch", count=2)
            report = external.run("iris", "id", list(FEATURE_COLUMNS))
        # two injected failures, third attempt succeeded
        assert external.connection.last_stats.attempts == 3
        assert external.connection.last_stats.retries == 2
        assert not external.degraded
        np.testing.assert_allclose(
            report.predictions, model.predict(dataset.features), atol=1e-4
        )
        with faults.active(FaultInjector(seed=15)) as injector:
            injector.raise_with_probability("odbc.fetch", 1.0)
            report = external.run("iris", "id", list(FEATURE_COLUMNS))
        assert external.degraded
        assert db.metrics.counter("fallback.transfer").value == 1
        np.testing.assert_allclose(
            report.predictions, model.predict(dataset.features), atol=1e-4
        )


# ----------------------------------------------------------------------
# ODBC transfer resilience
# ----------------------------------------------------------------------
class TestOdbcRetries:
    def test_retry_exhaustion_raises_injected_fault(self):
        db = repro.connect()
        load_iris_table(db, 100)
        connection = OdbcConnection(db, max_retries=2)
        with faults.active(FaultInjector(seed=16)) as injector:
            injector.raise_with_probability("odbc.fetch", 1.0)
            with pytest.raises(InjectedFaultError):
                connection.fetch_arrays("SELECT id FROM iris")

    def test_deadline_cuts_retry_loop(self):
        db = repro.connect()
        load_iris_table(db, 100)
        connection = OdbcConnection(
            db, timeout_seconds=0.0, max_retries=50
        )
        with faults.active(FaultInjector(seed=17)) as injector:
            injector.raise_with_probability("odbc.fetch", 1.0)
            with pytest.raises(QueryTimeoutError):
                connection.fetch_arrays("SELECT id FROM iris")

    def test_upload_retries_without_double_insert(self):
        db = repro.connect()
        db.execute("CREATE TABLE sink (id INTEGER, v FLOAT)")
        connection = OdbcConnection(db)
        arrays = {
            "id": np.arange(10, dtype=np.int64),
            "v": np.ones(10, dtype=np.float32),
        }
        with faults.active(FaultInjector(seed=18)) as injector:
            injector.raise_once("odbc.fetch", count=1)
            stats = connection.upload_arrays("sink", arrays)
        assert stats.attempts == 2
        assert db.execute("SELECT id FROM sink").row_count == 10


# ----------------------------------------------------------------------
# cache integrity
# ----------------------------------------------------------------------
class TestCacheIntegrity:
    def _build_once(self, db, name, model):
        publish_model(db, name, model)
        runner = NativeModelJoin(db, name)
        return runner.predict("iris", "id", list(FEATURE_COLUMNS))

    def test_injected_corruption_quarantines_and_rebuilds(self):
        db = repro.connect()
        load_iris_table(db, 500)
        model = make_dense_model(6, 2, seed=19)
        first = self._build_once(db, "qclf", model)
        assert len(db.model_cache) == 1
        with faults.active(FaultInjector(seed=20)) as injector:
            injector.corrupt_payload("cache.load", probability=1.0)
            runner = NativeModelJoin(db, "qclf")
            second = runner.predict("iris", "id", list(FEATURE_COLUMNS))
        assert np.array_equal(first, second)
        stats = db.model_cache.statistics()
        assert stats["corruptions"] == 1
        assert db.metrics.counter("cache.corruption").value == 1
        # the rebuild repopulated the cache with a verified entry
        third = NativeModelJoin(db, "qclf").predict(
            "iris", "id", list(FEATURE_COLUMNS)
        )
        assert np.array_equal(first, third)
        assert db.model_cache.statistics()["corruptions"] == 1

    def test_manual_corruption_detected_without_faults(self):
        db = repro.connect()
        load_iris_table(db, 300)
        model = make_dense_model(4, 2, seed=21)
        first = self._build_once(db, "mclf", model)
        entry = next(iter(db.model_cache._entries.values()))
        entry.layers[0].kernel[0, 0] += 1.0  # silent bit rot
        runner = NativeModelJoin(db, "mclf")
        second = runner.predict("iris", "id", list(FEATURE_COLUMNS))
        assert np.array_equal(first, second)
        assert db.model_cache.statistics()["corruptions"] == 1

    @pytest.mark.parametrize("kind", ["dense", "lstm"])
    def test_flipped_byte_in_every_cached_array_detected(self, kind):
        db = repro.connect()
        if kind == "dense":
            load_iris_table(db, 300)
            model, table, inputs = (
                make_dense_model(6, 2, seed=22), "iris", list(FEATURE_COLUMNS)
            )
        else:
            load_windowed_series_table(db, 300)
            model, table, inputs = (
                make_lstm_model(5, seed=22), "sinus_windows", ["x1", "x2", "x3"]
            )
        publish_model(db, "fclf", model)

        def score():
            return NativeModelJoin(db, "fclf").predict(table, "id", inputs)

        first = score()
        (built,) = [entry for _, entry in db.model_cache.entries()]
        arrays = [
            (index, name)
            for index, layer in enumerate(built.layers)
            for name, value in vars(layer).items()
            if isinstance(value, np.ndarray)
        ]
        assert len(arrays) == (6 if kind == "dense" else 5)
        for flipped, (index, name) in enumerate(arrays, start=1):
            (built,) = [entry for _, entry in db.model_cache.entries()]
            raw = getattr(built.layers[index], name).reshape(-1).view(np.uint8)
            raw[raw.size // 2] ^= 0x10
            assert np.array_equal(score(), first)
            assert db.model_cache.statistics()["corruptions"] == flipped
        db.close()


# ----------------------------------------------------------------------
# stress: sustained fault rate
# ----------------------------------------------------------------------
class TestChaosStress:
    def test_100_queries_at_10_percent_fault_rate(self):
        db = repro.connect(parallelism=PARALLELISM, task_retries=6)
        load_iris_table(db, 1_000, num_partitions=PARALLELISM)
        reference = sorted_column(
            db.execute("SELECT sepal_length + sepal_width AS s FROM iris"), "s"
        )
        completed = 0
        with faults.active(FaultInjector(seed=42)) as injector:
            injector.raise_with_probability("worker.task", 0.1)
            for _ in range(100):
                result = db.execute(
                    "SELECT sepal_length + sepal_width AS s FROM iris", parallel=True
                )
                assert np.array_equal(
                    sorted_column(result, "s"), reference
                )
                completed += 1
        assert completed == 100
        assert injector.statistics()["worker.task"]["raised"] > 0
        assert db.metrics.counter("query.retries").value >= 1
