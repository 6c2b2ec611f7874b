"""Sweep runners for the paper's experiments.

Python being ~two orders of magnitude slower per operation than the
paper's C++ engine, the *default* preset scales the sweep sizes down
while keeping the paper's parameter grid identity; the *paper* preset
runs the original sizes (documented as a long run); *smoke* is the CI
preset.  ML-To-SQL cells whose estimated intermediate-result volume
exceeds the work cap are skipped and recorded as such — the same
blow-up the paper reports as that approach's poor scalability, hit
sooner on a Python substrate.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace

import numpy as np

from repro.bench.variants import (
    ALL_VARIANT_NAMES,
    BenchEnvironment,
    RunMeasurement,
    make_variant,
)
from repro.core.attach import connect
from repro.core.ml_to_sql.generator import dense_join_work, lstm_join_work
from repro.errors import ReproError
from repro.nn.model import Sequential
from repro.workloads.iris import FEATURE_COLUMNS, load_iris_table
from repro.workloads.models import (
    TABLE3_MODELS,
    make_dense_model,
    make_lstm_model,
)
from repro.workloads.timeseries import load_windowed_series_table


@dataclass(frozen=True)
class BenchConfig:
    """Parameters of one sweep (see module docstring for presets)."""

    preset: str = "default"
    fact_rows: tuple[int, ...] = (2_000, 10_000, 30_000)
    dense_grid: tuple[tuple[int, int], ...] = tuple(
        (width, depth) for width in (32, 128, 512) for depth in (2, 4, 8)
    )
    lstm_widths: tuple[int, ...] = (32, 128, 512)
    time_steps: int = 3
    variants: tuple[str, ...] = ALL_VARIANT_NAMES
    parallel: bool = False
    parallelism: int = 4
    #: skip ML-To-SQL cells whose estimated join volume exceeds this
    mltosql_work_cap: int = 40_000_000
    table3_rows: int = 20_000
    verify_predictions: bool = False

    @classmethod
    def from_preset(cls, preset: str) -> "BenchConfig":
        if preset == "smoke":
            return cls(
                preset="smoke",
                fact_rows=(500, 2_000),
                dense_grid=((8, 2), (16, 4)),
                lstm_widths=(8, 16),
                mltosql_work_cap=10_000_000,
                table3_rows=2_000,
                verify_predictions=True,
            )
        if preset == "default":
            return cls()
        if preset == "paper":
            return cls(
                preset="paper",
                fact_rows=(100_000, 250_000, 500_000),
                table3_rows=100_000,
                mltosql_work_cap=200_000_000,
                parallel=True,
                parallelism=12,
            )
        raise ReproError(f"unknown preset {preset!r}")

    def with_variants(self, names: tuple[str, ...]) -> "BenchConfig":
        return replace(self, variants=names)


@dataclass
class SweepPoint:
    """One measurement (or skip record) of a sweep."""

    experiment: str
    variant: str
    rows: int
    width: int
    depth: int
    seconds: float | None
    wall_seconds: float | None = None
    peak_memory_bytes: int | None = None
    skipped: bool = False
    note: str = ""
    extra: dict = field(default_factory=dict)
    #: SHA-256 of the predictions' bytes (kept only when the config
    #: verifies predictions); the ``digest`` command prints it per cell
    digest: str = ""


def _verify(
    model: Sequential,
    inputs: np.ndarray,
    measurement: RunMeasurement,
) -> str:
    if measurement.predictions is None:
        return ""
    reference = model.predict(inputs)
    error = float(np.abs(measurement.predictions - reference).max())
    if error > 1e-3:
        raise ReproError(
            f"{measurement.variant} diverged from the reference "
            f"(max abs err {error})"
        )
    return f"max_err={error:.2e}"


def run_dense_sweep(
    config: BenchConfig, tracer=None
) -> list[SweepPoint]:
    """Figure 8: dense models, all variants, fact-tuple sweep.

    With *tracer* (an enabled :class:`repro.db.tracing.Tracer`) every
    swept engine records into one shared timeline, which the CLI's
    ``--trace`` flag exports after the sweep.
    """
    points: list[SweepPoint] = []
    for width, depth in config.dense_grid:
        model = make_dense_model(width, depth, input_width=4, seed=width + depth)
        for rows in config.fact_rows:
            database = connect(
                parallelism=config.parallelism, tracer=tracer
            )
            dataset = load_iris_table(
                database,
                rows,
                num_partitions=(
                    config.parallelism if config.parallel else 1
                ),
            )
            env = BenchEnvironment(
                database=database,
                model=model,
                fact_table="iris",
                id_column="id",
                input_columns=list(FEATURE_COLUMNS),
                parallel=config.parallel,
                keep_predictions=config.verify_predictions,
            )
            for name in config.variants:
                point = _run_cell(
                    "fig8",
                    name,
                    env,
                    rows,
                    width,
                    depth,
                    work=dense_join_work(rows, width, depth, 4),
                    config=config,
                    verify_inputs=dataset.features,
                )
                points.append(point)
    return points


def run_lstm_sweep(
    config: BenchConfig, tracer=None
) -> list[SweepPoint]:
    """Figure 9: LSTM models, all variants, fact-tuple sweep."""
    points: list[SweepPoint] = []
    for width in config.lstm_widths:
        model = make_lstm_model(
            width, time_steps=config.time_steps, seed=width
        )
        for rows in config.fact_rows:
            database = connect(
                parallelism=config.parallelism, tracer=tracer
            )
            series = load_windowed_series_table(
                database,
                rows,
                time_steps=config.time_steps,
                num_partitions=(
                    config.parallelism if config.parallel else 1
                ),
            )
            _, windows = series.windows()
            env = BenchEnvironment(
                database=database,
                model=model,
                fact_table="sinus_windows",
                id_column="id",
                input_columns=[
                    f"x{step}" for step in range(1, config.time_steps + 1)
                ],
                parallel=config.parallel,
                keep_predictions=config.verify_predictions,
            )
            for name in config.variants:
                point = _run_cell(
                    "fig9",
                    name,
                    env,
                    rows,
                    width,
                    depth=1,
                    work=lstm_join_work(
                        rows, width, config.time_steps
                    ),
                    config=config,
                    verify_inputs=windows,
                )
                points.append(point)
    return points


def _run_cell(
    experiment: str,
    variant_name: str,
    env: BenchEnvironment,
    rows: int,
    width: int,
    depth: int,
    work: int,
    config: BenchConfig,
    verify_inputs: np.ndarray,
) -> SweepPoint:
    if variant_name == "ML-To-SQL" and work > config.mltosql_work_cap:
        return SweepPoint(
            experiment=experiment,
            variant=variant_name,
            rows=rows,
            width=width,
            depth=depth,
            seconds=None,
            skipped=True,
            note=(
                f"skipped: estimated join volume {work:.2e} rows exceeds "
                f"work cap {config.mltosql_work_cap:.2e} (the approach's "
                "quadratic intermediate-result growth, paper §6.2.1)"
            ),
        )
    variant = make_variant(variant_name)
    variant.prepare(env)
    measurement = variant.run(env)
    note = digest = ""
    if config.verify_predictions:
        note = _verify(env.model, verify_inputs, measurement)
    if measurement.predictions is not None:
        digest = hashlib.sha256(
            np.ascontiguousarray(measurement.predictions).tobytes()
        ).hexdigest()
    return SweepPoint(
        experiment=experiment,
        variant=variant_name,
        rows=rows,
        width=width,
        depth=depth,
        seconds=measurement.seconds,
        wall_seconds=measurement.wall_seconds,
        peak_memory_bytes=measurement.peak_memory_bytes,
        note=note,
        extra=measurement.extra,
        digest=digest,
    )


def measure_memory_table(
    config: BenchConfig, tracer=None
) -> list[SweepPoint]:
    """Table 3: peak memory for inference of the representative models."""
    points: list[SweepPoint] = []
    # The four columns of the paper's Table 3.
    variants = ("ModelJoin_CPU", "TF_CAPI_CPU", "TF_CPU", "ML-To-SQL")
    rows = config.table3_rows
    for kind, width, depth in TABLE3_MODELS:
        if kind == "dense":
            model = make_dense_model(width, depth, seed=width)
            work = dense_join_work(rows, width, depth, 4)
        else:
            model = make_lstm_model(
                width, time_steps=config.time_steps, seed=width
            )
            work = lstm_join_work(rows, width, config.time_steps)
        for name in variants:
            database = connect(
                parallelism=config.parallelism, tracer=tracer
            )
            if kind == "dense":
                dataset = load_iris_table(database, rows)
                env = BenchEnvironment(
                    database=database,
                    model=model,
                    fact_table="iris",
                    id_column="id",
                    input_columns=list(FEATURE_COLUMNS),
                )
                inputs = dataset.features
            else:
                series = load_windowed_series_table(
                    database, rows, time_steps=config.time_steps
                )
                _, inputs = series.windows()
                env = BenchEnvironment(
                    database=database,
                    model=model,
                    fact_table="sinus_windows",
                    id_column="id",
                    input_columns=[
                        f"x{step}"
                        for step in range(1, config.time_steps + 1)
                    ],
                )
            # Memory measurement tolerates somewhat slower runs: allow
            # ML-To-SQL three times the sweep work cap before skipping.
            relaxed = replace(
                config, mltosql_work_cap=config.mltosql_work_cap * 3
            )
            point = _run_cell(
                "table3",
                name,
                env,
                rows,
                width,
                depth,
                work=work,
                config=relaxed,
                verify_inputs=inputs,
            )
            points.append(point)
    return points


def geometric_midpoint(values: list[float]) -> float:
    """Geometric mean helper used by the qualitative classifier."""
    positive = [value for value in values if value > 0]
    if not positive:
        return 0.0
    return math.exp(sum(math.log(value) for value in positive) / len(positive))
