"""Inference UDFs (paper Section 6.1, "UDF" variant).

"In the Python UDF, we load the saved model, apply it to the data
using Tensorflow on the CPU and return the predictions.  Additionally,
we optimize the UDF by using Actian Vector's parallel and vectorized
UDFs, i.e. calling the UDF once per vector instead of once per tuple."

The UDF body loads the model from its serialized form on first call
(as a saved model would be), and predictions cross the explicit
engine/interpreter marshalling boundary of :mod:`repro.db.udf` in both
directions.  ``vectorized=False`` gives the unoptimized per-tuple
variant for the ablation bench.
"""

from __future__ import annotations

import numpy as np

from repro.core.predictions import predictions_by_id
from repro.db.engine import Database, Result
from repro.db.types import SqlType
from repro.db.udf import PythonUdf
from repro.errors import UnsupportedModelError
from repro.nn.model import Sequential
from repro.nn.serialization import model_from_dict, model_to_dict


def make_inference_udf(
    model: Sequential,
    name: str = "predict",
    output_index: int = 0,
    vectorized: bool = True,
    marshal: bool = True,
) -> PythonUdf:
    """Build the UDF computing output *output_index* of *model*.

    The model is round-tripped through its serialized representation so
    the UDF is self-contained, like loading a saved model file inside
    the UDF body.
    """
    if not 0 <= output_index < model.output_width:
        raise UnsupportedModelError(
            f"model has {model.output_width} outputs, "
            f"index {output_index} is out of range"
        )
    saved = model_to_dict(model)
    state: dict[str, Sequential] = {}

    def load() -> Sequential:
        if "model" not in state:
            state["model"] = model_from_dict(saved)
        return state["model"]

    if vectorized:

        def predict(*columns):
            loaded = load()
            matrix = np.column_stack(
                [np.asarray(column, dtype=np.float32) for column in columns]
            )
            return loaded.predict(matrix)[:, output_index].tolist()

    else:

        def predict(*values):
            loaded = load()
            row = np.asarray(values, dtype=np.float32)[np.newaxis, :]
            return float(loaded.predict(row)[0, output_index])

    return PythonUdf(
        name=name,
        arity=model.input_width,
        function=predict,
        result_type=SqlType.FLOAT,
        vectorized=vectorized,
        marshal=marshal,
    )


class UdfModelJoin:
    """End-to-end UDF runner: register the UDF, query with it."""

    def __init__(
        self,
        database: Database,
        model: Sequential,
        name: str = "predict",
        vectorized: bool = True,
        marshal: bool = True,
    ):
        self.database = database
        self.model = model
        self.name = name
        self.udfs = [
            database.register_udf(
                make_inference_udf(
                    model,
                    name=f"{name}_{index}" if model.output_width > 1 else name,
                    output_index=index,
                    vectorized=vectorized,
                    marshal=marshal,
                )
            )
            for index in range(model.output_width)
        ]

    def query(
        self,
        fact_table: str,
        id_column: str,
        input_columns: list[str],
        prediction_prefix: str = "prediction",
    ) -> str:
        arguments = ", ".join(input_columns)
        calls = ", ".join(
            f"{udf.name}({arguments}) AS {prediction_prefix}_{index}"
            for index, udf in enumerate(self.udfs)
        )
        return f"SELECT {id_column}, {calls} FROM {fact_table}"

    def execute(
        self,
        fact_table: str,
        id_column: str,
        input_columns: list[str],
        parallel: bool = False,
    ) -> Result:
        return self.database.execute(
            self.query(fact_table, id_column, input_columns),
            parallel=parallel,
        )

    def predict(
        self,
        fact_table: str,
        id_column: str,
        input_columns: list[str],
        parallel: bool = False,
    ) -> np.ndarray:
        result = self.execute(
            fact_table, id_column, input_columns, parallel=parallel
        )
        return predictions_by_id(result, id_column, self.model.output_width)
