"""Direct execution of the in-engine inference operators.

A direct runner puts one inference operator straight on a scan of the
fact table — the plan the engine lowers for ``SELECT * FROM fact MODEL
JOIN m`` — without the SQL layer in the measured path.  It is still one
logged query: :func:`run_inference` runs it through
:meth:`~repro.db.engine.Database.run_query`, so it lands a
``system.queries`` row under the runner's label, shows in
``system.active_queries`` (``close()`` can cancel it), counts in
``query.count`` and leaves ``database.last_profile``.  It splits over
the fact table's partitions exactly when the fragment planner would
split the SQL statement.

The native runner (here) and the runtime-API runner
(:mod:`repro.core.runtime_api.runner`) differ only in that operator.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.core.modeljoin.operator import ModelJoinOperator
from repro.core.predictions import predictions_by_id
from repro.db.catalog import ModelMetadata
from repro.db.compile import KernelCompiler
from repro.db.engine import Database, Result
from repro.db.operators import ExecutionContext, TableScan
from repro.db.operators.base import PhysicalOperator
from repro.db.parallel import run_plans
from repro.device.base import Device, DeviceWindow
from repro.device.host import HostDevice
from repro.errors import ShardError

#: ``(context, scan, partition_index, compiler) -> operator`` per pipeline
OperatorFactory = Callable[
    [ExecutionContext, TableScan, int, KernelCompiler], PhysicalOperator
]


def run_inference(
    database: Database,
    label: str,
    fact_table: str,
    make_operator: OperatorFactory,
    device: Device,
    parallel: bool = False,
    timeout_seconds: float | None = None,
) -> tuple[Result, float]:
    """Run ``TableScan(fact_table) -> make_operator(...)`` as one query.

    *label* is the statement text of its ``system.queries`` row.  One
    pipeline runs per partition of the fact table when ``parallel`` is
    set and the table has more than one partition but no more than
    ``database.parallelism`` — the rule the fragment planner applies to
    a MODEL JOIN over one local table; otherwise one pipeline scans it
    all.  Returns the result and the device time of the run (the
    modeled clock on a simulated GPU).
    """
    query = database.query_context(label, parallel, timeout_seconds)

    def body(context: ExecutionContext, planner) -> Result:
        table = query.catalog.table(fact_table)
        if getattr(table, "shard_count", 0):
            raise ShardError(
                f"table {table.name!r} is sharded; the direct runners "
                "read local tables only — run the inference as "
                f"SELECT ... FROM {table.name} MODEL JOIN <model> "
                "through Database.execute"
            )
        partitions = table.num_partitions
        pipelines = partitions if 1 < partitions <= context.parallelism else 1
        # The ModelJoin build barrier waits for context.parallelism
        # pipelines: the ones that actually run.
        context.parallelism = pipelines
        query.profile.parallel = pipelines > 1

        def lower(index: int) -> PhysicalOperator:
            scan = TableScan(
                context, table, partition_index=index if pipelines > 1 else None
            )
            compiler = planner.kernel_compiler()
            return make_operator(context, scan, index, compiler)

        schema, per_pipeline = run_plans(
            [lower(index) for index in range(pipelines)],
            pool=database.worker_pool if pipelines > 1 else None,
            plan_builder=lower,
            retries=database.task_retries,
        )
        batches = [batch for pipeline in per_pipeline for batch in pipeline]
        return Result(schema, batches, query.profile)

    with DeviceWindow(device) as window:
        result = database.run_query(query, body)
    return result, window.seconds


class DirectRunner:
    """``execute`` / ``predict`` of a direct runner; a subclass sets the
    attributes below in its constructor and supplies :meth:`operator`."""

    database: Database
    device: Device
    #: statement text of the runner's ``system.queries`` rows
    label: str
    #: number of ``prediction_<i>`` columns the operator appends
    output_width: int
    #: device time of the last :meth:`execute` (the modeled clock on a
    #: simulated GPU, which the lifecycle's wall time does not see)
    last_seconds: float = 0.0

    def operator(
        self,
        context: ExecutionContext,
        scan: TableScan,
        partition_index: int,
        input_columns: list[str] | None,
        compiler: KernelCompiler,
    ) -> PhysicalOperator:
        raise NotImplementedError

    def execute(
        self,
        fact_table: str,
        input_columns: list[str] | None = None,
        parallel: bool = False,
        timeout_seconds: float | None = None,
    ) -> Result:
        """Run the inference over *fact_table* as one logged query."""
        result, self.last_seconds = run_inference(
            self.database,
            self.label,
            fact_table,
            lambda context, scan, index, compiler: self.operator(
                context, scan, index, input_columns, compiler
            ),
            self.device,
            parallel,
            timeout_seconds,
        )
        return result

    def predict(
        self,
        fact_table: str,
        id_column: str,
        input_columns: list[str] | None = None,
        parallel: bool = False,
        timeout_seconds: float | None = None,
    ) -> np.ndarray:
        """Predictions ordered by the fact table's unique ID."""
        result = self.execute(
            fact_table, input_columns, parallel, timeout_seconds
        )
        return predictions_by_id(result, id_column, self.output_width)


class NativeModelJoin(DirectRunner):
    """Runs a registered model with the native operator.

    With no explicit *device* the database's cost-based variant selector
    picks between the in-plan native variants per executed workload.
    """

    def __init__(
        self,
        database: Database,
        model_name: str,
        device: Device | None = None,
        replicate_bias: bool = True,
    ):
        self.database = database
        self.metadata: ModelMetadata = database.catalog.model(model_name)
        self.label = f"<native-modeljoin {self.metadata.model_name}>"
        self.output_width = self.metadata.output_width
        self._auto_device = device is None
        self.device = device or HostDevice()
        self.replicate_bias = replicate_bias

    def _device_from_selector(self, fact_table: str) -> Device | None:
        selector = self.database.variant_selector
        if selector is None:
            return None
        try:
            tuples = self.database.table(fact_table).row_count
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

    def execute(self, fact_table: str, *args, **kwargs) -> Result:
        if self._auto_device:
            self.device = self._device_from_selector(fact_table) or self.device
        return super().execute(fact_table, *args, **kwargs)

    def operator(self, context, scan, index, input_columns, compiler):
        return ModelJoinOperator(
            context,
            scan,
            self.metadata,
            context.query.catalog.table(self.metadata.table_name),
            compiler,
            input_columns=input_columns,
            device=self.device,
            partition_index=index,
            replicate_bias=self.replicate_bias,
            model_cache=self.database.model_cache,
        )
