"""The native minibatch-SGD training operator: the engine's one loop.

Two entry points: ``CREATE MODEL`` (the executor materializes the
source query's columns) and ``TrainOperator(model, spec).run(features,
labels)`` on arrays.  It trains a dense stack with the
:class:`repro.nn.backward.DenseBackward` device-kernel stepper.

Contract: ``features`` is ``(rows, input_width)`` and ``labels``
``(rows, k)`` for a final layer of *k* units, all finite — else
:class:`TrainingError` before the first step.  The minibatch schedule
is one ``np.random.default_rng(seed).permutation`` per epoch, every
kernel is float32 NumPy, and the ``train.step`` fault site fires
*before* the forward pass, so a retried batch reruns against untouched
weights and training is a pure function of (model, spec, data).  An
epoch that leaves the loss or a weight non-finite raises
:class:`TrainingError` naming the epoch, with no ``RuntimeWarning``.
"""

from __future__ import annotations

import math
import time
from collections.abc import Sequence

import numpy as np

from repro.db import faults
from repro.db.tracing import NULL_TRACER, MetricsRegistry
from repro.db.train.spec import TrainingSpec
from repro.device.arena import BufferArena
from repro.errors import InjectedFaultError, TrainingError
from repro.nn.backward import DenseBackward
from repro.nn.model import Sequential


def check_finite(values: np.ndarray, names: Sequence[str]) -> None:
    """Raise :class:`TrainingError` naming the first column of *values*
    (``names[i]`` names column *i*) that holds NaN or ±inf."""
    finite = np.isfinite(values).all(axis=0)
    if not finite.all():
        name = names[int(np.argmin(finite))]
        raise TrainingError(f"training column {name!r} holds NaN or infinity")


class TrainOperator:
    """Runs one training loop to completion: mutates *model*'s weights
    in place and returns the per-epoch losses.  ``retries`` bounds the
    injected/transient batch failures retried (bit-exact) before the
    run fails; a failed ``CREATE MODEL`` publishes nothing.
    """

    def __init__(
        self,
        model: Sequential,
        spec: TrainingSpec,
        device=None,
        tracer=None,
        metrics=None,
        retries: int = 2,
        cancellation=None,
    ):
        if device is None:
            from repro.device.host import HostDevice

            device = HostDevice()
        self.model = model
        self.spec = spec
        self.device = device
        self.arena = BufferArena(max(spec.batch_size, 1))
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.retries = retries
        self.cancellation = cancellation
        self.total_batches = 0

    def run(self, features: np.ndarray, labels: np.ndarray) -> list[float]:
        spec = self.spec
        model = self.model
        features = np.asarray(features, dtype=np.float32)
        labels = np.asarray(labels, dtype=np.float32)
        count = len(features)
        if count < 1:
            raise TrainingError("the training source returned no rows")
        for kind, values, width in (
            ("feature", features, model.input_width),
            ("label", labels, model.output_width),
        ):
            if values.shape != (count, width):
                raise TrainingError(
                    f"{kind}s must have shape ({count}, {width}) for this "
                    f"model, got {values.shape}"
                )
            check_finite(
                values, [f"{kind} {index}" for index in range(width)]
            )
        stepper = DenseBackward(
            model,
            self.device,
            self.arena,
            learning_rate=spec.learning_rate,
            momentum=spec.momentum,
            loss=spec.loss,
        )
        rng = np.random.default_rng(spec.seed)
        losses: list[float] = []
        with self.tracer.span(
            "train",
            category="train",
            args={
                "rows": count,
                "epochs": spec.epochs,
                "batch_size": spec.batch_size,
                "loss": spec.loss,
            },
        ), np.errstate(all="ignore"):
            for epoch in range(spec.epochs):
                started = time.perf_counter()
                order = rng.permutation(count)
                epoch_loss = 0.0
                batches = 0
                with self.tracer.span(
                    "train.epoch", category="train", args={"epoch": epoch}
                ):
                    for start in range(0, count, spec.batch_size):
                        index = order[start : start + spec.batch_size]
                        x = np.ascontiguousarray(features[index])
                        y = np.ascontiguousarray(labels[index])
                        epoch_loss += self._step(stepper, x, y)
                        batches += 1
                losses.append(epoch_loss / max(batches, 1))
                if not math.isfinite(losses[-1]) or not all(
                    np.isfinite(layer.kernel).all()
                    and np.isfinite(layer.bias).all()
                    for layer in model.layers
                ):
                    raise TrainingError(
                        f"training diverged in epoch {epoch + 1} of "
                        f"{spec.epochs}: the loss ({losses[-1]}) or a "
                        "weight is not finite; lower the learning rate "
                        "or rescale the features"
                    )
                self.metrics.counter("training.epochs").increment()
                self.metrics.counter("training.batches").increment(batches)
                self.metrics.histogram("training.epoch_seconds").observe(
                    time.perf_counter() - started
                )
        return losses

    def _step(
        self, stepper: DenseBackward, x: np.ndarray, y: np.ndarray
    ) -> float:
        """One minibatch step behind the ``train.step`` fault site."""
        attempts = 0
        while True:
            if self.cancellation is not None:
                self.cancellation.check()
            if faults.ACTIVE is not None:
                try:
                    faults.ACTIVE.fire("train.step")
                except InjectedFaultError:
                    attempts += 1
                    self.metrics.counter("training.retries").increment()
                    self.tracer.instant(
                        "train-step-retry",
                        category="train",
                        args={"attempt": attempts},
                    )
                    if attempts > self.retries:
                        raise
                    continue
            self.total_batches += 1
            return stepper.train_batch(x, y)
