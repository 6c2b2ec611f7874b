"""The prediction matrix every inference runner returns from ``predict``."""

from __future__ import annotations

import numpy as np

from repro.db.engine import Result


def predictions_by_id(
    result: Result, id_column: str, width: int
) -> np.ndarray:
    """The ``prediction_<i>`` columns of *result* as one matrix, rows
    ordered by the fact table's unique *id_column*."""
    order = np.argsort(result.column(id_column), kind="stable")
    return np.column_stack(
        [result.column(f"prediction_{index}")[order] for index in range(width)]
    )
