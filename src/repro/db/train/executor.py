"""Executing ``CREATE MODEL`` / ``ALTER MODEL`` statements.

Locking protocol (critical for retrain-and-swap under live traffic):
the catalog lock is held only to *resolve* the target version and,
after training finishes, to *publish* (write the weight table +
register the catalog record) — never across the training loop itself.
Serving admissions and snapshot captures therefore proceed normally
while a retrain runs; in-flight snapshot-pinned queries keep the old
version, and the publish (or an explicit ``ALTER MODEL ... SET
VERSION``) is a single atomic cut.

Publication is all-or-nothing: a failure between the weight-table
write and the catalog registration drops the table again, so a failed
``CREATE MODEL`` never leaves a partial model behind (tested with the
``train.step`` fault site and a crash-kill between the two steps).
"""

from __future__ import annotations

import time
import zlib
from functools import partial

import numpy as np

from repro.db.catalog import Catalog, ModelVersionRecord
from repro.db.schema import Column, Schema
from repro.db.sql.ast import AlterModel, CreateModel
from repro.db.train.operator import TrainOperator
from repro.db.train.spec import (
    TrainingSpec,
    describe_arch,
    validate_layers,
)
from repro.db.types import SqlType
from repro.db.vector import VectorBatch
from repro.errors import TrainingError
from repro.nn.layers import Dense
from repro.nn.model import Sequential


def version_table_name(model_name: str, version: int) -> str:
    """The per-version weight table: distinct table per version, so the
    ModelJoin build cache keys per version for free (distinct uid)."""
    return f"{model_name.lower()}__v{version}"


def weight_checksum(model: Sequential) -> int:
    """CRC32 chained over every layer's kernel and bias bytes."""
    value = 0
    for layer in model.layers:
        value = zlib.crc32(
            np.ascontiguousarray(layer.kernel).tobytes(), value
        )
        value = zlib.crc32(
            np.ascontiguousarray(layer.bias).tobytes(), value
        )
    return value


def source_fingerprint(statement: CreateModel) -> str:
    """A stable fingerprint of the training source query."""
    return f"{zlib.crc32(repr(statement.query).encode()):08x}"


def _resolve_version(catalog: Catalog, statement: CreateModel) -> int:
    """Pick (and validate) the version this run will produce.

    ``AS TRAIN`` requires a free model name and defaults to version 1;
    ``AS RETRAIN`` requires an existing model and defaults to
    ``latest + 1``.  Called under the catalog lock.
    """
    key = statement.model_name.lower()
    versions = catalog.model_versions.get(key, {})
    if statement.retrain:
        if not versions and not catalog.has_model(key):
            raise TrainingError(
                f"cannot RETRAIN {statement.model_name!r}: "
                "model is not registered (use CREATE MODEL ... AS TRAIN)"
            )
        if statement.version is not None:
            version = statement.version
        else:
            version = (max(versions) + 1) if versions else 1
    else:
        if versions or catalog.has_model(key):
            raise TrainingError(
                f"model {statement.model_name!r} already exists; "
                "use CREATE MODEL ... AS RETRAIN to train a new version"
            )
        version = statement.version if statement.version is not None else 1
    if version < 1:
        raise TrainingError(f"model version must be >= 1, got {version}")
    if version in versions:
        raise TrainingError(
            f"model {statement.model_name!r} already has a "
            f"version {version}"
        )
    return version


def _training_data(result) -> tuple[np.ndarray, np.ndarray]:
    """Split the source result: last column = label, rest = features."""
    names = list(result.schema.names)
    if len(names) < 2:
        raise TrainingError(
            "CREATE MODEL source query must produce at least two "
            "columns (features..., label)"
        )
    for name in names:
        if not result.schema.type_of(name).is_numeric:
            raise TrainingError(
                f"training column {name!r} is not numeric"
            )
    features = np.column_stack(
        [result.column(name) for name in names[:-1]]
    ).astype(np.float32)
    labels = np.asarray(
        result.column(names[-1]), dtype=np.float32
    ).reshape(-1, 1)
    return features, labels


def _build_model(
    statement: CreateModel, input_width: int, seed: int
) -> Sequential:
    layers = [
        Dense(layer.units, activation=layer.activation)
        for layer in statement.layers
    ]
    return Sequential(layers, input_width=input_width, seed=seed)


def _summary_result(record: ModelVersionRecord, batches: int, profile):
    from repro.db.engine import Result

    schema = Schema(
        (
            Column("model", SqlType.VARCHAR),
            Column("version", SqlType.INTEGER),
            Column("table_name", SqlType.VARCHAR),
            Column("epochs", SqlType.INTEGER),
            Column("batches", SqlType.INTEGER),
            Column("final_loss", SqlType.DOUBLE),
            Column("weight_checksum", SqlType.VARCHAR),
        )
    )
    batch = VectorBatch(
        schema,
        [
            np.array([record.model_name], dtype=object),
            np.array([record.version], dtype=np.int64),
            np.array([record.metadata.table_name], dtype=object),
            np.array([record.epochs], dtype=np.int64),
            np.array([batches], dtype=np.int64),
            np.array([record.final_loss], dtype=np.float64),
            np.array([f"{record.weight_checksum:08x}"], dtype=object),
        ],
    )
    return Result(schema, [batch], profile)


def execute_create_model(database, statement: CreateModel, query):
    try:
        return database.run_query(
            query, partial(_run_create_model, database, statement)
        )
    except Exception:
        database.metrics.counter("training.failures").increment()
        raise


def _run_create_model(database, statement: CreateModel, context, planner):
    validate_layers(statement.layers)
    spec = TrainingSpec.from_options(statement.options)
    with database.catalog_lock:
        version = _resolve_version(database.catalog, statement)

    # 1. Source query through the regular pipeline (unlocked), on the
    #    statement's own context: one log row, one token.
    source = database.run_select(statement.query, context, planner)
    # Counted once the source is in: this body is the compile-fallback
    # retry unit, and a retried source scan is still one training run.
    database.metrics.counter("training.runs").increment()
    features, labels = _training_data(source)

    # 2. Train (unlocked — serving traffic proceeds meanwhile).
    model = _build_model(statement, features.shape[1], spec.seed)
    operator = TrainOperator(
        model,
        spec,
        tracer=database.tracer,
        metrics=database.metrics,
        retries=database.task_retries,
        cancellation=context.query.cancellation,
    )
    losses = operator.run(features, labels)

    # 3. Publish atomically (brief lock).
    table_name = version_table_name(statement.model_name, version)
    with database.catalog_lock:
        # A concurrent CREATE MODEL may have claimed the version while
        # we trained: re-validate before touching the catalog.
        versions = database.catalog.model_versions.get(
            statement.model_name.lower(), {}
        )
        if version in versions:
            raise TrainingError(
                f"model {statement.model_name!r} version {version} was "
                "created concurrently; retry with a fresh version"
            )
        record = _publish(
            database, statement, spec, model, table_name, version, losses
        )
    return _summary_result(
        record, operator.total_batches, context.query.profile
    )


def _publish(
    database,
    statement: CreateModel,
    spec: TrainingSpec,
    model: Sequential,
    table_name: str,
    version: int,
    losses: list[float],
) -> ModelVersionRecord:
    """Weight table + catalog record, all-or-nothing (lock held)."""
    try:
        from repro.core.ml_to_sql.loader import load_model_table
        from repro.core.registry import model_metadata
    except ImportError as error:  # pragma: no cover - core ships with db
        raise TrainingError(
            "CREATE MODEL requires the repro.core runtime "
            "(connect through repro.connect)"
        ) from error
    load_model_table(database, table_name, model)
    try:
        metadata = model_metadata(
            statement.model_name.lower(), table_name, model
        )
        record = ModelVersionRecord(
            model_name=statement.model_name.lower(),
            version=version,
            metadata=metadata,
            created_at=time.time(),
            epochs=spec.epochs,
            batch_size=spec.batch_size,
            learning_rate=spec.learning_rate,
            seed=spec.seed,
            loss_name=spec.loss,
            final_loss=losses[-1],
            weight_checksum=weight_checksum(model),
            source_fingerprint=source_fingerprint(statement),
            arch=describe_arch(statement),
        )
        database.catalog.register_model_version(
            record, make_current=not statement.retrain
        )
    except BaseException:
        # Never leave a weight table without its catalog entry: drop
        # what we just wrote, then surface the original failure.
        database.catalog.drop_table(table_name, if_exists=True)
        raise
    return record


def execute_alter_model(database, statement: AlterModel, query):
    from repro.db.engine import Result

    def swap(context, _planner):
        with database.catalog_lock:
            database.catalog.set_current_version(
                statement.model_name, statement.version
            )
        database.metrics.counter("training.swaps").increment()
        return Result.empty(context.query.profile)

    return database.run_query(query, swap)


def render_create_model_explain(
    database, statement: CreateModel, source_lines: list[str]
):
    """EXPLAIN lines for a CREATE MODEL: the training plan on top of
    *source_lines*, the source query's regular EXPLAIN (incl.
    ``== Compiled Code ==``)."""
    validate_layers(statement.layers)
    spec = TrainingSpec.from_options(statement.options)
    with database.catalog_lock:
        version = _resolve_version(database.catalog, statement)
    mode = "retrain" if statement.retrain else "train"
    lines = [
        f"CreateModel(name={statement.model_name.lower()}, "
        f"version={version}, mode={mode})",
        f"  TrainOperator(arch={describe_arch(statement)}, "
        f"{spec.describe()})",
        "  Source:",
    ]
    lines.extend("    " + line for line in source_lines)
    return lines
