"""The native minibatch-SGD training operator.

Consumes the materialized feature/label arrays of the source query
(planned and executed by the regular pipeline — pushdown, compiled
kernels and persistent scans all apply) and trains a dense stack with
the :class:`repro.nn.backward.DenseBackward` device-kernel stepper.

Determinism contract: the minibatch schedule is drawn from
``np.random.default_rng(seed)`` exactly like
:func:`repro.nn.training.fit` (one ``permutation`` per epoch), every
kernel is float32 NumPy, and the ``train.step`` fault site fires
*before* the forward pass — so a retried batch reruns against
untouched weights and an injected fault never perturbs the result.
"""

from __future__ import annotations

import time

import numpy as np

from repro.db import faults
from repro.db.train.spec import TrainingSpec
from repro.device.arena import BufferArena
from repro.errors import InjectedFaultError, TrainingError
from repro.nn.backward import DenseBackward
from repro.nn.model import Sequential


class TrainOperator:
    """Runs one ``CREATE MODEL`` training loop to completion.

    Mutates *model*'s weights in place and returns the per-epoch loss
    trajectory.  ``retries`` bounds how many injected/transient batch
    failures are retried (bit-exact — see module docstring) before the
    whole run fails; the executor guarantees a failed run publishes
    nothing.
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
        self.tracer = tracer
        self.metrics = metrics
        self.retries = retries
        self.cancellation = cancellation
        self.retried_batches = 0
        self.total_batches = 0

    def run(self, features: np.ndarray, labels: np.ndarray) -> list[float]:
        spec = self.spec
        count = len(features)
        if count < 1:
            raise TrainingError(
                "CREATE MODEL source query returned no rows"
            )
        stepper = DenseBackward(
            self.model,
            self.device,
            self.arena,
            learning_rate=spec.learning_rate,
            momentum=spec.momentum,
            loss=spec.loss,
        )
        rng = np.random.default_rng(spec.seed)
        losses: list[float] = []
        with self._span(
            "train",
            args={
                "rows": count,
                "epochs": spec.epochs,
                "batch_size": spec.batch_size,
                "loss": spec.loss,
            },
        ):
            for epoch in range(spec.epochs):
                started = time.perf_counter()
                order = rng.permutation(count)
                epoch_loss = 0.0
                batches = 0
                with self._span("train.epoch", args={"epoch": epoch}):
                    for start in range(0, count, spec.batch_size):
                        index = order[start : start + spec.batch_size]
                        x = np.ascontiguousarray(features[index])
                        y = np.ascontiguousarray(labels[index])
                        epoch_loss += self._step(stepper, x, y)
                        batches += 1
                losses.append(epoch_loss / max(batches, 1))
                if self.metrics is not None:
                    self.metrics.counter("training.epochs").increment()
                    self.metrics.counter(
                        "training.batches"
                    ).increment(batches)
                    self.metrics.histogram(
                        "training.epoch_seconds"
                    ).observe(time.perf_counter() - started)
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
                    self.retried_batches += 1
                    if self.metrics is not None:
                        self.metrics.counter(
                            "training.retries"
                        ).increment()
                    if self.tracer is not None:
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

    def _span(self, name: str, args: dict):
        if self.tracer is not None:
            return self.tracer.span(name, category="train", args=args)
        import contextlib

        return contextlib.nullcontext()
