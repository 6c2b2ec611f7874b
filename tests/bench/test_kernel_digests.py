"""Generated and interpreted kernels agree on the paper's cells.

The smoke Figure 8/9 sweep runs twice — as it is, and with every engine
planning interpreted kernels — and each cell's SHA-256 of its
predictions (``python -m repro.bench digest``) must not move.
"""

from dataclasses import replace

import repro.bench.harness as harness
from repro.bench.harness import BenchConfig, run_dense_sweep, run_lstm_sweep
from repro.db.planner import PlannerOptions


def digests() -> dict:
    config = replace(
        BenchConfig.from_preset("smoke"), verify_predictions=True
    )
    return {
        (p.experiment, p.variant, p.rows, p.width, p.depth): p.digest
        for p in run_dense_sweep(config) + run_lstm_sweep(config)
    }


def test_smoke_digests_match_interpreted_kernels(monkeypatch):
    generated = digests()
    connect = harness.connect
    interpreted = PlannerOptions(use_compiled_kernels=False)
    monkeypatch.setattr(
        harness,
        "connect",
        lambda **kwargs: connect(planner_options=interpreted, **kwargs),
    )
    assert digests() == generated
    assert len(generated) == 64
    assert all(generated.values())  # no smoke cell is skipped
