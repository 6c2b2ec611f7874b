"""The eight evaluated approaches behind one interface.

Variant names match the legend of the paper's Figures 8 and 9:
``ModelJoin_CPU``, ``ModelJoin_GPU``, ``TF_CAPI_CPU``, ``TF_CAPI_GPU``,
``TF_CPU``, ``TF_GPU``, ``UDF`` and ``ML-To-SQL``.

Timing rules (DESIGN.md Section 6): CPU variants report wall-clock;
GPU variants report wall-clock with the measured kernel time swapped
for the simulated device's modeled time.  Memory: in-engine variants
report the engine accountant's peak; the external baseline reports the
client process's traced allocation peak.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

from repro.core.client.external import ExternalInference
from repro.core.ml_to_sql.generator import MlToSqlModelJoin
from repro.core.ml_to_sql.representation import MlToSqlOptions
from repro.core.modeljoin.runner import DirectRunner, NativeModelJoin
from repro.core.registry import publish_model
from repro.core.runtime_api.runner import RuntimeApiModelJoin
from repro.core.udf_integration.inference_udf import UdfModelJoin
from repro.db.engine import Database
from repro.db.tracing import flatten_metrics
from repro.device.gpu import SimulatedGpu
from repro.device.host import HostDevice
from repro.errors import ModelJoinError
from repro.nn.model import Sequential

ALL_VARIANT_NAMES = (
    "ModelJoin_CPU",
    "ModelJoin_GPU",
    "TF_CAPI_CPU",
    "TF_CAPI_GPU",
    "TF_CPU",
    "TF_GPU",
    "UDF",
    "ML-To-SQL",
)

#: optimizer variant name (repro.db.plan.physical.ALL_VARIANTS) ->
#: Figure-8/9 legend name used by this module and the bench output.
VARIANT_LEGEND = {
    "native-cpu": "ModelJoin_CPU",
    "native-gpu": "ModelJoin_GPU",
    "runtime-api": "TF_CAPI_CPU",
    "udf": "UDF",
    "ml-to-sql": "ML-To-SQL",
    "external": "TF_CPU",
}

#: legend name -> optimizer variant name (GPU legends collapse onto the
#: same optimizer variant as their CPU twin where the optimizer does
#: not distinguish them).
LEGEND_VARIANT = {
    **{legend: name for name, legend in VARIANT_LEGEND.items()},
    "TF_CAPI_GPU": "runtime-api",
    "TF_GPU": "external",
}


@dataclass
class RunMeasurement:
    """One (variant, workload) measurement."""

    variant: str
    seconds: float
    wall_seconds: float
    peak_memory_bytes: int = 0
    rows: int = 0
    predictions: np.ndarray | None = None
    extra: dict = field(default_factory=dict)


@dataclass
class BenchEnvironment:
    """Everything a variant needs to run one workload."""

    database: Database
    model: Sequential
    fact_table: str
    id_column: str
    input_columns: list[str]
    parallel: bool = False
    keep_predictions: bool = False
    model_name: str = "bench_model"


class Variant:
    """Base class: ``prepare`` once per environment, ``run`` repeatedly."""

    name = "abstract"

    def prepare(self, env: BenchEnvironment) -> None:
        """Load model tables / register UDFs — not part of the timing."""

    def run(self, env: BenchEnvironment) -> RunMeasurement:
        raise NotImplementedError


class _DirectVariant(Variant):
    """A variant run by a direct runner: its device time (the modeled
    clock on the simulated GPU) plus the lifecycle's profile."""

    _runner: DirectRunner

    def run(self, env: BenchEnvironment) -> RunMeasurement:
        predictions = self._runner.predict(
            env.fact_table,
            env.id_column,
            env.input_columns,
            parallel=env.parallel,
        )
        profile = env.database.last_profile
        return RunMeasurement(
            variant=self.name,
            seconds=self._runner.last_seconds,
            wall_seconds=profile.wall_seconds,
            peak_memory_bytes=profile.peak_memory_bytes,
            rows=profile.rows_returned,
            predictions=predictions if env.keep_predictions else None,
            extra={
                "phases": dict(profile.stopwatch.phases),
                "counters": profile.counters.snapshot(),
                "metrics": flatten_metrics(
                    env.database.metrics.snapshot()
                ),
            },
        )


class _NativeVariant(_DirectVariant):
    def __init__(self, gpu: bool):
        self.gpu = gpu
        self.name = "ModelJoin_GPU" if gpu else "ModelJoin_CPU"

    def prepare(self, env: BenchEnvironment) -> None:
        partitions = (
            env.database.parallelism if env.parallel else 1
        )
        publish_model(
            env.database,
            env.model_name,
            env.model,
            model_table_partitions=partitions,
            replace=True,
        )
        device = SimulatedGpu() if self.gpu else HostDevice()
        self._runner = NativeModelJoin(
            env.database, env.model_name, device=device
        )


class _RuntimeApiVariant(_DirectVariant):
    def __init__(self, gpu: bool):
        self.gpu = gpu
        self.name = "TF_CAPI_GPU" if gpu else "TF_CAPI_CPU"

    def prepare(self, env: BenchEnvironment) -> None:
        device = SimulatedGpu() if self.gpu else HostDevice()
        self._runner = RuntimeApiModelJoin(
            env.database, env.model, device=device
        )


class _ExternalVariant(Variant):
    def __init__(self, gpu: bool):
        self.gpu = gpu
        self.name = "TF_GPU" if gpu else "TF_CPU"
        self._runner: ExternalInference | None = None

    def prepare(self, env: BenchEnvironment) -> None:
        device = SimulatedGpu() if self.gpu else None
        self._runner = ExternalInference(
            env.database, env.model, device=device
        )

    def run(self, env: BenchEnvironment) -> RunMeasurement:
        tracemalloc.start()
        started = time.perf_counter()
        report = self._runner.run(
            env.fact_table, env.id_column, env.input_columns
        )
        wall = time.perf_counter() - started
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return RunMeasurement(
            variant=self.name,
            seconds=report.total_seconds,
            wall_seconds=wall,
            peak_memory_bytes=peak,
            rows=len(report.predictions),
            predictions=(
                report.predictions if env.keep_predictions else None
            ),
            extra={
                "fetch_seconds": report.fetch_seconds,
                "inference_seconds": report.inference_seconds,
                "bytes_on_wire": report.transfer.bytes_on_wire,
            },
        )


class _UdfVariant(Variant):
    name = "UDF"

    def __init__(self, vectorized: bool = True, marshal: bool = True):
        self.vectorized = vectorized
        self.marshal = marshal
        if not vectorized:
            self.name = "UDF_per_tuple"
        self._runner: UdfModelJoin | None = None

    def prepare(self, env: BenchEnvironment) -> None:
        self._runner = UdfModelJoin(
            env.database,
            env.model,
            name=f"predict_{env.model_name}",
            vectorized=self.vectorized,
            marshal=self.marshal,
        )

    def run(self, env: BenchEnvironment) -> RunMeasurement:
        predictions = self._runner.predict(
            env.fact_table,
            env.id_column,
            env.input_columns,
            parallel=env.parallel,
        )
        profile = env.database.last_profile
        return RunMeasurement(
            variant=self.name,
            seconds=profile.wall_seconds,
            wall_seconds=profile.wall_seconds,
            peak_memory_bytes=profile.peak_memory_bytes,
            rows=profile.rows_returned,
            predictions=predictions if env.keep_predictions else None,
            extra={
                "udf_calls": sum(
                    udf.statistics.calls for udf in self._runner.udfs
                )
            },
        )


class _MlToSqlVariant(Variant):
    name = "ML-To-SQL"

    def __init__(self, options: MlToSqlOptions | None = None):
        self.options = options
        self._runner: MlToSqlModelJoin | None = None

    def prepare(self, env: BenchEnvironment) -> None:
        self._runner = MlToSqlModelJoin(
            env.database,
            env.model,
            options=self.options,
            model_table=f"{env.model_name}_mlsql",
        )

    def run(self, env: BenchEnvironment) -> RunMeasurement:
        predictions = self._runner.predict(
            env.fact_table,
            env.id_column,
            env.input_columns,
            parallel=env.parallel,
        )
        profile = env.database.last_profile
        return RunMeasurement(
            variant=self.name,
            seconds=profile.wall_seconds,
            wall_seconds=profile.wall_seconds,
            peak_memory_bytes=profile.peak_memory_bytes,
            rows=profile.rows_returned,
            predictions=predictions if env.keep_predictions else None,
        )


def make_variant(name: str, **kwargs) -> Variant:
    """Instantiate a variant by its Figure-8/9 legend name."""
    factories = {
        "ModelJoin_CPU": lambda: _NativeVariant(gpu=False),
        "ModelJoin_GPU": lambda: _NativeVariant(gpu=True),
        "TF_CAPI_CPU": lambda: _RuntimeApiVariant(gpu=False),
        "TF_CAPI_GPU": lambda: _RuntimeApiVariant(gpu=True),
        "TF_CPU": lambda: _ExternalVariant(gpu=False),
        "TF_GPU": lambda: _ExternalVariant(gpu=True),
        "UDF": lambda: _UdfVariant(**kwargs),
        "UDF_per_tuple": lambda: _UdfVariant(vectorized=False),
        "ML-To-SQL": lambda: _MlToSqlVariant(**kwargs),
    }
    factory = factories.get(name)
    if factory is None:
        raise ModelJoinError(
            f"unknown variant {name!r}; choose from {ALL_VARIANT_NAMES}"
        )
    return factory()
