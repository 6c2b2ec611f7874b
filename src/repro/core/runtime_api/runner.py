"""Direct execution of the runtime-API integration (TF_CAPI variants)."""

from __future__ import annotations

import numpy as np

from repro.core.runtime_api.operator import RuntimeApiOperator
from repro.db.engine import Database
from repro.db.operators import ExecutionContext, TableScan
from repro.db.parallel import run_plans
from repro.db.profiler import QueryProfile, finalize_profile
from repro.db.vector import VectorBatch
from repro.device.base import Device, DeviceWindow
from repro.device.host import HostDevice
from repro.nn.model import Sequential
from repro.nn.runtime import MlRuntime


class RuntimeApiModelJoin:
    """Runs inference through the embedded ML runtime (paper approach 2).

    Each partition pipeline gets its own runtime session, mirroring the
    per-thread private plans of the engine; the runtime itself (and the
    device) is shared.
    """

    def __init__(
        self,
        database: Database,
        model: Sequential,
        device: Device | None = None,
    ):
        self.database = database
        self.model = model
        self.device = device or HostDevice()
        self.runtime = MlRuntime(self.device)
        self.last_profile: QueryProfile | None = None
        self.last_seconds: float = 0.0

    def execute(
        self,
        fact_table: str,
        input_columns: list[str],
        parallel: bool = False,
        timeout_seconds: float | None = None,
    ) -> tuple[list[VectorBatch], ExecutionContext]:
        table = self.database.table(fact_table)
        query = self.database.query_context(
            "<runtime-api>", parallel, timeout_seconds
        )
        context: ExecutionContext = self.database.attempt_context(query)
        parallelism = context.parallelism
        tracer = context.tracer

        def build(partition_index: int) -> RuntimeApiOperator:
            scan_partition = (
                partition_index if parallelism > 1 else None
            )
            if scan_partition is not None and table.num_partitions == 1:
                scan_partition = None
            scan = TableScan(
                context, table, partition_index=scan_partition
            )
            return RuntimeApiOperator(
                context,
                scan,
                self.model,
                input_columns=input_columns,
                runtime=self.runtime,
            )

        pool = self.database.worker_pool if parallelism > 1 else None
        with DeviceWindow(self.device) as window:
            with tracer.span(
                "query",
                category="query",
                args={
                    "kind": "runtime-api",
                    "parallel": parallelism > 1,
                },
            ):
                context.trace_parent = tracer.current_span_id()
                plans = [build(index) for index in range(parallelism)]
                _, per_pipeline = run_plans(
                    plans,
                    pool=pool,
                    morsel_driven=True,
                    plan_builder=build,
                    retries=self.database.task_retries,
                )
        batches = [batch for pipeline in per_pipeline for batch in pipeline]
        self.last_seconds = window.seconds
        profile = query.profile
        profile.wall_seconds = window.wall_seconds
        profile.rows_returned = sum(len(batch) for batch in batches)
        finalize_profile(profile, self.database.metrics)
        self.last_profile = profile
        return batches, context

    def predict(
        self,
        fact_table: str,
        id_column: str,
        input_columns: list[str],
        parallel: bool = False,
        timeout_seconds: float | None = None,
    ) -> np.ndarray:
        batches, _ = self.execute(
            fact_table,
            input_columns,
            parallel=parallel,
            timeout_seconds=timeout_seconds,
        )
        ids = np.concatenate([batch.column(id_column) for batch in batches])
        order = np.argsort(ids, kind="stable")
        outputs = []
        for index in range(self.model.output_width):
            column = np.concatenate(
                [batch.column(f"prediction_{index}") for batch in batches]
            )
            outputs.append(column[order])
        return np.column_stack(outputs)
