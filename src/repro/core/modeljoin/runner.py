"""Direct execution of the native ModelJoin (bench + API convenience).

Builds the minimal physical plan — partition scan of the fact table
feeding the ModelJoin operator — one pipeline per partition, exactly
the shape the engine's parallel executor would produce for
``SELECT * FROM fact MODEL JOIN m``, without the SQL layer in the
measured path.
"""

from __future__ import annotations

import numpy as np

from repro.core.modeljoin.operator import ModelJoinOperator
from repro.db.catalog import ModelMetadata
from repro.db.engine import Database
from repro.db.operators import ExecutionContext, TableScan
from repro.db.parallel import run_plans
from repro.db.profiler import QueryProfile, finalize_profile
from repro.db.vector import VectorBatch
from repro.device.base import Device, DeviceWindow
from repro.device.host import HostDevice


class NativeModelJoin:
    """Runs a registered model with the native operator."""

    def __init__(
        self,
        database: Database,
        model_name: str,
        device: Device | None = None,
        replicate_bias: bool = True,
    ):
        self.database = database
        self.metadata: ModelMetadata = database.catalog.model(model_name)
        #: with no explicit device the cost-based variant selector picks
        #: between the in-plan native variants per executed workload
        self._auto_device = device is None
        self.device = device or HostDevice()
        self.replicate_bias = replicate_bias
        self.last_profile: QueryProfile | None = None
        self.last_seconds: float = 0.0
        self.last_plans: list[ModelJoinOperator] = []

    def _device_from_selector(self, tuples: int) -> Device | None:
        """With no explicit device, let the database's cost-based
        variant selector pick between the in-plan native variants."""
        selector = getattr(self.database, "variant_selector", None)
        if selector is None:
            return None
        try:
            estimates = selector.rank(self.metadata, max(tuples, 1))
        except Exception:
            return None
        for estimate in estimates:
            if estimate.variant == "native-cpu":
                return HostDevice()
            if estimate.variant == "native-gpu":
                from repro.device.gpu import SimulatedGpu

                return SimulatedGpu()
        return None

    def execute(
        self,
        fact_table: str,
        input_columns: list[str] | None = None,
        parallel: bool = False,
        timeout_seconds: float | None = None,
    ) -> tuple[list[VectorBatch], ExecutionContext]:
        """Run the ModelJoin; returns output batches and the context."""
        table = self.database.table(fact_table)
        model_table = self.database.table(self.metadata.table_name)
        if self._auto_device:
            chosen = self._device_from_selector(table.row_count)
            if chosen is not None:
                self.device = chosen
        query = self.database.query_context(
            f"<native-modeljoin {self.metadata.model_name}>",
            parallel,
            timeout_seconds,
        )
        context: ExecutionContext = self.database.attempt_context(query)
        parallelism = context.parallelism
        tracer = context.tracer

        def build(partition_index: int) -> ModelJoinOperator:
            scan_partition = (
                partition_index if parallelism > 1 else None
            )
            if scan_partition is not None and table.num_partitions == 1:
                scan_partition = None
            scan = TableScan(
                context, table, partition_index=scan_partition
            )
            return ModelJoinOperator(
                context,
                scan,
                self.metadata,
                model_table,
                input_columns=input_columns,
                device=self.device,
                partition_index=partition_index if parallelism > 1 else 0,
                replicate_bias=self.replicate_bias,
                model_cache=self.database.model_cache,
            )

        pool = self.database.worker_pool if parallelism > 1 else None
        with DeviceWindow(self.device) as window:
            with tracer.span(
                "query",
                category="query",
                args={
                    "kind": "native-modeljoin",
                    "model": self.metadata.model_name,
                    "parallel": parallelism > 1,
                },
            ):
                context.trace_parent = tracer.current_span_id()
                plans = [build(index) for index in range(parallelism)]
                self.last_plans = plans
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
        input_columns: list[str] | None = None,
        parallel: bool = False,
        timeout_seconds: float | None = None,
    ) -> np.ndarray:
        """Predictions ordered by the fact table's unique ID."""
        batches, _ = self.execute(
            fact_table,
            input_columns=input_columns,
            parallel=parallel,
            timeout_seconds=timeout_seconds,
        )
        ids = np.concatenate([batch.column(id_column) for batch in batches])
        order = np.argsort(ids, kind="stable")
        outputs = []
        for index in range(self.metadata.output_width):
            column = np.concatenate(
                [batch.column(f"prediction_{index}") for batch in batches]
            )
            outputs.append(column[order])
        return np.column_stack(outputs)
