"""Bare-NumPy floors: what the same shapes cost outside the engine.

The floor positions in-engine inference against an out-of-engine array
baseline the way The Duck's Brain (arXiv 2312.17355) does.  Scoring
floors call ``repro.nn``'s ``Sequential.predict`` (plain NumPy) at the
best of three batch sizes; aggregate floors are ``np.bincount``-style
one-liners over the same columns.  A floor does no SQL, no planning,
no result materialisation — the ratio says how much the engine adds.
"""

from __future__ import annotations

import time

import numpy as np

BATCHES = (1024, 8192, None)  # None = the whole input at once
REPEATS = 3


def best_ms(function, repeats: int = REPEATS) -> float:
    """Fastest of *repeats* calls, in milliseconds (a floor is a minimum)."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - started)
    return best * 1e3


def dense_forward(model, inputs: np.ndarray, batch: int) -> np.ndarray:
    """Allocation-free dense forward: one buffer per layer, reused per batch."""
    buffers = [
        np.empty((batch, layer.units), dtype=np.float32)
        for layer in model.layers
    ]
    out = np.empty((len(inputs), model.output_width), dtype=np.float32)
    for start in range(0, len(inputs), batch):
        current = inputs[start:start + batch]
        rows = len(current)
        for layer, buffer in zip(model.layers, buffers):
            target = buffer[:rows]
            np.matmul(current, layer.kernel, out=target)
            np.add(target, layer.bias, out=target)
            current = layer.activation.apply(target, out=target)
        out[start:start + rows] = current
    return out


def scoring_floor_ms(model, inputs: np.ndarray) -> float:
    """Forward pass over *inputs*, best of batch 1024 / 8192 / full and of
    ``Sequential.predict`` vs the buffer-reusing dense forward."""
    inputs = np.ascontiguousarray(inputs, dtype=np.float32)
    candidates = []
    for batch in BATCHES:
        size = min(batch or len(inputs), len(inputs))
        candidates.append(lambda size=size: [
            model.predict(inputs[start:start + size])
            for start in range(0, len(inputs), size)
        ])
        if not model.has_recurrent_first:
            candidates.append(
                lambda size=size: dense_forward(model, inputs, size)
            )
    return min(best_ms(candidate) for candidate in candidates)


def olap_floor_ms(workload) -> float:
    """The olap_mix operation as array code over the same columns."""
    columns = workload.columns
    features = workload.features
    small = len(workload.small_ids)

    def group_by(keys, values):
        np.bincount(keys, weights=values)
        np.bincount(keys)

    def top_k():
        v, ids = columns["v"], columns["id"]
        candidates = np.argpartition(-v, 10)[:64]
        candidates[np.lexsort((ids[candidates], -v[candidates]))][:10]

    def scored_group_by():
        predictions = workload.model.predict(features)[:, 0]
        group_by(columns["species"], predictions)

    parts = (
        lambda: group_by(columns["species"], columns["v"]),
        lambda: group_by(columns["k"], columns["v"]),
        workload.filter_reference,
        scored_group_by,
        top_k,
        # the ML-To-SQL query computes exactly this forward pass
        lambda: workload.model.predict(features[:small]),
    )
    return sum(best_ms(part) for part in parts)


def ratio(floor_ms: float, operation_p50_ms: float) -> dict:
    return {
        "floor.numpy_ms": floor_ms,
        "floor.ratio": operation_p50_ms / floor_ms if floor_ms else 0.0,
    }
