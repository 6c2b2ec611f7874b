"""Persistent worker pool and morsel-driven scheduling."""

import threading

import numpy as np
import pytest

from repro.db.engine import Database
from repro.db.parallel import (
    MorselSource,
    WorkerPool,
    current_worker_name,
)
from repro.db.profiler import Stopwatch
from repro.db.schema import Schema
from repro.db.table import Table
from repro.db.types import SqlType
from repro.errors import ExecutionError


def make_table(rows: int, partitions: int) -> Table:
    table = Table(
        "t",
        Schema.of(("id", SqlType.INTEGER)),
        num_partitions=partitions,
        partition_key="id",
    )
    table.append_columns(id=np.arange(rows, dtype=np.int64))
    return table


class TestWorkerPool:
    def test_results_in_task_order(self):
        pool = WorkerPool(4)
        results = pool.run_tasks([lambda i=i: i * 10 for i in range(4)])
        assert results == [0, 10, 20, 30]
        pool.shutdown()

    def test_reused_across_queries(self):
        pool = WorkerPool(2)
        for round_number in range(20):
            results = pool.run_tasks(
                [lambda: round_number, lambda: round_number + 1]
            )
            assert results == [round_number, round_number + 1]
        pool.shutdown()

    def test_tasks_run_on_named_workers(self):
        pool = WorkerPool(3)
        names = pool.run_tasks([current_worker_name] * 3)
        assert sorted(names) == ["worker-0", "worker-1", "worker-2"]
        assert current_worker_name() == "main"
        pool.shutdown()

    def test_error_propagates_after_all_tasks_finish(self):
        pool = WorkerPool(2)

        def boom():
            raise ValueError("task failed")

        with pytest.raises(ValueError, match="task failed"):
            pool.run_tasks([boom, lambda: 1])
        # The pool survives a failed query.
        assert pool.run_tasks([lambda: 2, lambda: 3]) == [2, 3]
        pool.shutdown()

    def test_too_many_tasks_rejected(self):
        pool = WorkerPool(2)
        with pytest.raises(ExecutionError):
            pool.run_tasks([lambda: None] * 3)
        pool.shutdown()

    def test_barrier_coupled_tasks_do_not_deadlock(self):
        pool = WorkerPool(4)
        barrier = threading.Barrier(4)
        results = pool.run_tasks([barrier.wait] * 4)
        assert sorted(results) == [0, 1, 2, 3]
        pool.shutdown()

    def test_shutdown_is_idempotent_and_final(self):
        pool = WorkerPool(2)
        pool.shutdown()
        pool.shutdown()
        with pytest.raises(ExecutionError):
            pool.run_tasks([lambda: 1])


class TestMorselSource:
    def test_covers_every_row_exactly_once(self):
        table = make_table(10_000, 4)
        source = MorselSource(table, morsel_rows=512)
        seen = 0
        while True:
            morsel = source.next_morsel()
            if morsel is None:
                break
            assert morsel.row_stop > morsel.row_start
            seen += morsel.row_stop - morsel.row_start
        assert seen == 10_000
        assert source.dispensed == len(source)

    def test_thread_safe_dispensing(self):
        table = make_table(20_000, 4)
        source = MorselSource(table, morsel_rows=128)
        counts = [0] * 8

        def drain(slot: int) -> None:
            while source.next_morsel() is not None:
                counts[slot] += 1

        threads = [
            threading.Thread(target=drain, args=(slot,)) for slot in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sum(counts) == len(source)


class TestMorselDrivenQueries:
    @pytest.fixture
    def pdb(self) -> Database:
        db = Database(parallelism=4)
        db.execute(
            "CREATE TABLE fact (id BIGINT, v FLOAT) "
            "PARTITION BY (id) PARTITIONS 4"
        )
        n = 30_000
        db.table("fact").append_columns(
            id=np.arange(n, dtype=np.int64),
            v=np.arange(n, dtype=np.float32),
        )
        return db

    def test_streaming_query_reports_morsel_counters(self, pdb):
        result = pdb.execute(
            "SELECT id, v FROM fact WHERE v < 20000", parallel=True
        )
        assert len(result.rows) == 20_000
        counters = pdb.last_profile.counters.snapshot()
        assert counters["morsels"] > 1
        per_worker = sum(
            count
            for name, count in counters.items()
            if name.startswith("morsels.")
        )
        assert per_worker == counters["morsels"]

    def test_streaming_results_match_serial(self, pdb):
        sql = "SELECT id, v * 2 AS w FROM fact WHERE v > 100 AND v < 25000"
        serial = sorted(pdb.execute(sql).rows)
        parallel = sorted(pdb.execute(sql, parallel=True).rows)
        assert serial == parallel

    def test_blocking_plans_fall_back_to_static_binding(self, pdb):
        result = pdb.execute(
            "SELECT id, SUM(v) AS s FROM fact GROUP BY id LIMIT 5",
            parallel=True,
        )
        assert len(result.rows) == 5
        counters = pdb.last_profile.counters.snapshot()
        # Aggregation is partition-scoped: morsel stealing would split
        # groups across workers, so the rewrite must not engage.
        assert "morsels" not in counters

    def test_engine_owns_one_pool_across_queries(self, pdb):
        pool = pdb.worker_pool
        pdb.execute("SELECT id FROM fact WHERE id < 10", parallel=True)
        assert pdb.worker_pool is pool
        pdb.close()
        with pytest.raises(ExecutionError):
            pool.run_tasks([lambda: 1])


class TestStopwatchThreadSafety:
    def test_concurrent_adds_do_not_lose_updates(self):
        stopwatch = Stopwatch()

        def hammer():
            for _ in range(1000):
                stopwatch.add("phase", 0.001)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert stopwatch.phases == {"phase": pytest.approx(8.0)}
