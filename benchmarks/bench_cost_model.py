"""Cost-model validation (paper Section 7).

"our evaluation showed that costs increase linearly with model size" —
measures the native operator across model sizes, fits the
:class:`~repro.core.cost.model.InferenceCostModel`, and asserts the
linear fit predicts a held-out configuration within a factor of ~2
(Python timing noise included).  A second check measures every
in-engine variant per dense cell and asserts the variant the cost-based
selector picks is at most 2x slower than the fastest one.
"""

import time

import numpy as np
import pytest

import repro
from benchmarks.conftest import dense_environment
from repro.bench.variants import LEGEND_VARIANT, make_variant
from repro.core.cost.model import (
    InferenceCostModel,
    flops_per_tuple_of_model,
)
from repro.core.modeljoin.runner import NativeModelJoin
from repro.core.registry import publish_model
from repro.workloads.iris import FEATURE_COLUMNS, load_iris_table
from repro.workloads.models import make_dense_model


def _measure(db, model, name, rows):
    publish_model(db, name, model, replace=True)
    runner = NativeModelJoin(db, name)
    # median of 3 to tame scheduler noise
    samples = []
    for _ in range(3):
        started = time.perf_counter()
        runner.execute("iris", list(FEATURE_COLUMNS))
        samples.append(time.perf_counter() - started)
    return float(np.median(samples))


def test_cost_model_linearity(benchmark):
    db = repro.connect()
    rows = 3_000
    load_iris_table(db, rows)
    train_widths = [16, 48, 96, 160]
    observations = []
    for width in train_widths:
        model = make_dense_model(width, 4, seed=width)
        seconds = _measure(db, model, f"cm_{width}", rows)
        observations.append(
            (rows, flops_per_tuple_of_model(model), seconds)
        )
    cost_model = InferenceCostModel()
    cost_model.calibrate(observations)

    held_out = make_dense_model(128, 4, seed=99)

    def predict_and_measure():
        estimate = cost_model.estimate(held_out, rows)
        actual = _measure(db, held_out, "cm_held_out", rows)
        return estimate.predicted_seconds, actual

    predicted, actual = benchmark.pedantic(
        predict_and_measure, rounds=1, iterations=1
    )
    benchmark.extra_info["predicted_seconds"] = predicted
    benchmark.extra_info["actual_seconds"] = actual
    assert predicted > 0
    assert 0.4 < predicted / actual < 2.5


#: Figure-8 legends measured per cell.  ML-To-SQL and the external
#: baseline are predicted and measured orders of magnitude slower, so
#: the selector never picks them and measuring them buys nothing.
MEASURED_LEGENDS = ("ModelJoin_CPU", "ModelJoin_GPU", "TF_CAPI_CPU", "UDF")


@pytest.mark.parametrize("width,depth", [(32, 2), (128, 4), (512, 2)])
def test_selected_variant_within_2x_of_best(benchmark, width, depth):
    rows = 10_000
    env = dense_environment(width, depth, rows=rows)

    def measure_all():
        variants = {
            LEGEND_VARIANT[legend]: make_variant(legend)
            for legend in MEASURED_LEGENDS
        }
        for variant in variants.values():
            variant.prepare(env)
        # Fastest of three interleaved rounds: the first pays the model
        # build, and a slow stretch of a shared box hits every variant
        # of a round alike instead of all runs of one variant.
        measured = dict.fromkeys(variants, float("inf"))
        for _ in range(3):
            for name, variant in variants.items():
                seconds = variant.run(env).seconds
                measured[name] = min(measured[name], seconds)
        return measured

    measured = benchmark.pedantic(measure_all, rounds=1, iterations=1)
    selector = env.database.variant_selector
    metadata = env.database.catalog.model(env.model_name)
    chosen = min(
        measured, key=lambda name: selector.predict(name, metadata, rows)
    )
    benchmark.extra_info["chosen"] = chosen
    benchmark.extra_info["measured_seconds"] = measured
    assert measured[chosen] <= 2.0 * min(measured.values())
