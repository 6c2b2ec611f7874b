"""Iris classification end-to-end, entirely in the database.

The paper's dense-layer workload (Section 6.1) as a complete
application: encode features and labels in SQL, train a multi-output
classifier with ``CREATE MODEL``, classify with the native ModelJoin,
and aggregate the predictions inside the same query — the "query
integration" advantage of in-DBMS inference (Section 1).

Run:  python examples/iris_classification.py
"""

import numpy as np

import repro
from repro.core.encoding import min_max_encode_query, one_hot_expressions
from repro.workloads.iris import FEATURE_COLUMNS, load_iris_table

SCALED = ", ".join(f"{name}_scaled" for name in FEATURE_COLUMNS)


def main() -> None:
    db = repro.connect()
    dataset = load_iris_table(db, rows=3_000)

    # --- feature scaling in SQL (paper Section 4: "Min-Max-Encoding
    # can be implemented in SQL in a straight-forward way") ----------
    scaled_query = min_max_encode_query(
        db, "iris", "id", list(FEATURE_COLUMNS)
    )
    print("scaling SQL:", scaled_query[:110], "...")

    # --- train a 3-class classifier in the engine: the last three
    # source columns are the one-hot labels, one per output unit -----
    labels = ", ".join(one_hot_expressions("species", [0, 1, 2]))
    (summary,) = db.execute(
        "CREATE MODEL iris_clf AS TRAIN DENSE(16 tanh, 3 sigmoid) "
        f"ON (SELECT {SCALED}, {labels} "
        f"    FROM ({scaled_query}) AS s, iris AS i WHERE s.id = i.id) "
        "WITH (epochs=80, lr=0.1, seed=1)"
    ).rows
    print(f"trained {summary[3]} epochs, final loss {summary[5]:.4f}")

    # --- classify with the native operator over the scaled query ----
    result = db.execute(
        "SELECT id, prediction_0, prediction_1, prediction_2 "
        f"FROM ({scaled_query}) AS s MODEL JOIN iris_clf USING ({SCALED}) "
        "ORDER BY id"
    )
    scores = np.column_stack(
        [result.column(f"prediction_{k}") for k in range(3)]
    )
    predicted_class = scores.argmax(axis=1)
    in_db_accuracy = float(np.mean(predicted_class == dataset.labels))
    print("in-database accuracy:", round(in_db_accuracy, 3))

    # --- aggregate predictions inside the engine ---------------------
    # Average class-2 score per true species, without moving data out.
    summary = db.execute(
        "SELECT i.species AS species, AVG(p.prediction_2) AS virginica_score "
        f"FROM (SELECT id, prediction_2 FROM ({scaled_query}) AS s "
        f"      MODEL JOIN iris_clf USING ({SCALED})) AS p, "
        "     iris AS i "
        "WHERE p.id = i.id GROUP BY i.species ORDER BY species"
    )
    print("\navg virginica score by true species:")
    for species, score in summary.rows:
        print(f"  species {species}: {score:.3f}")


if __name__ == "__main__":
    main()
