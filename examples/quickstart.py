"""Quickstart: every in-database inference approach on one model.

Trains a tiny classifier on the synthetic Iris data, then runs the same
inference through all five approaches of the paper and shows they agree
with the framework reference:

1. ML-To-SQL          — generated nested SQL (paper Section 4)
2. native ModelJoin   — the engine operator, via MODEL JOIN SQL (Section 5)
3. TF(C-API)          — runtime integrated over its native API
4. Python UDF         — vectorized UDF inside the engine
5. TF(Python)         — baseline: data out over ODBC, infer client-side

Run:  python examples/quickstart.py
"""

import numpy as np

import repro
from repro.core.client.external import ExternalInference
from repro.core.ml_to_sql.generator import MlToSqlModelJoin
from repro.core.registry import publish_model
from repro.core.runtime_api.runner import RuntimeApiModelJoin
from repro.core.udf_integration.inference_udf import UdfModelJoin
from repro.db.train import TrainOperator, TrainingSpec
from repro.nn import Dense, Sequential
from repro.workloads.iris import FEATURE_COLUMNS, load_iris_table


def main() -> None:
    # 1. A database with 2 000 fact rows.
    db = repro.connect()
    dataset = load_iris_table(db, rows=2_000)
    features = list(FEATURE_COLUMNS)

    # 2. Train a small model (is this row a 'virginica'?) on arrays with
    #    the engine's training loop: the approaches below all take the
    #    network itself, not a catalog entry.
    model = Sequential(
        [Dense(8, "tanh"), Dense(1, "sigmoid")], input_width=4, seed=7
    )
    targets = (dataset.labels == 2).astype(np.float32)[:, np.newaxis]
    spec = TrainingSpec(epochs=60, learning_rate=0.05)
    losses = TrainOperator(model, spec).run(dataset.features, targets)
    print(f"trained: loss {losses[0]:.3f} -> {losses[-1]:.3f}")
    reference = model.predict(dataset.features)

    # 3. ML-To-SQL: the model becomes a table + one nested SQL query.
    ml_to_sql = MlToSqlModelJoin(db, model)
    query = ml_to_sql.generator("iris", "id", features).inference_query()
    print(f"\nML-To-SQL generated {len(query)} characters of SQL, e.g.:")
    print(" ", query[:120], "...")
    predictions = ml_to_sql.predict("iris", "id", features)
    print("  max |err| vs reference:", np.abs(predictions - reference).max())

    # 4. Native ModelJoin through the MODEL JOIN SQL syntax.
    publish_model(db, "virginica", model)
    result = db.execute(
        "SELECT id, prediction_0 FROM iris "
        "MODEL JOIN virginica USING "
        "(sepal_length, sepal_width, petal_length, petal_width) "
        "ORDER BY id"
    )
    native = result.column("prediction_0")
    print("\nnative MODEL JOIN:")
    print("  max |err| vs reference:", np.abs(native - reference[:, 0]).max())

    # 5. Runtime C-API integration.
    capi = RuntimeApiModelJoin(db, model)
    predictions = capi.predict("iris", "id", features)
    print("\nTF(C-API)-style runtime integration:")
    print("  max |err| vs reference:", np.abs(predictions - reference).max())

    # 6. Vectorized Python UDF.
    udf = UdfModelJoin(db, model, name="score")
    print("\nUDF query:", udf.query("iris", "id", features))
    predictions = udf.predict("iris", "id", features)
    print("  max |err| vs reference:", np.abs(predictions - reference).max())

    # 7. The baseline: ship everything to the client over ODBC.
    external = ExternalInference(db, model)
    run = external.run("iris", "id", features)
    print("\nTF(Python) baseline:")
    print(f"  transfer: {run.transfer.bytes_on_wire} bytes on the wire")
    print(f"  fetch {run.fetch_seconds * 1e3:.1f} ms, "
          f"inference {run.inference_seconds * 1e3:.1f} ms")
    print(
        "  max |err| vs reference:",
        np.abs(run.predictions - reference).max(),
    )


if __name__ == "__main__":
    main()
