"""Device-kernel backward pass for dense stacks (in-database training).

:class:`DenseBackward` runs forward, backward and the momentum-SGD
update of one minibatch through the :mod:`repro.device` kernel set
(``gemm`` / ``multiply`` / ``activation``) over reusable arena views,
so training shares the accounting, tracing and cancellation machinery
of the inference kernels.  All arithmetic is float32 and a pure
function of the weights and the batch.  Its one driver is
:class:`repro.db.train.TrainOperator`, the loop behind ``CREATE MODEL
... AS TRAIN`` and the array entry point.

Dense-only (else :class:`~repro.errors.ModelError`): LSTM
backpropagation through time is out of scope, as in the paper.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.nn.layers import Dense
from repro.nn.model import Sequential


def mse_loss_and_grad(
    predicted: np.ndarray, targets: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean squared error and its gradient wrt the predictions."""
    error = predicted - targets
    loss = float(np.mean(error * error))
    grad = (np.float32(2.0) / np.float32(len(predicted))) * error
    return loss, grad


def bce_loss_and_grad(
    predicted: np.ndarray, targets: np.ndarray
) -> tuple[float, np.ndarray]:
    """Binary cross-entropy (clipped for stability) and its gradient.

    With a sigmoid output layer the ``p * (1 - p)`` denominator cancels
    against the activation derivative during backprop, giving the
    familiar ``(p - y) / n`` logit gradient.
    """
    eps = np.float32(1e-7)
    clipped = np.clip(predicted, eps, np.float32(1.0) - eps)
    loss = float(
        -np.mean(
            targets * np.log(clipped)
            + (np.float32(1.0) - targets) * np.log(np.float32(1.0) - clipped)
        )
    )
    grad = (clipped - targets) / (
        clipped * (np.float32(1.0) - clipped)
    ) / np.float32(len(predicted))
    return loss, grad.astype(np.float32, copy=False)


LOSS_FUNCTIONS = {
    "mse": mse_loss_and_grad,
    "bce": bce_loss_and_grad,
}


class DenseBackward:
    """Momentum-SGD stepper over device kernels and arena views.

    One instance owns the velocity state for one training run;
    :meth:`train_batch` runs forward + backward + update for a single
    minibatch and returns the batch loss.  All arithmetic is float32
    and fully deterministic given the batch sequence.
    """

    def __init__(
        self,
        model: Sequential,
        device,
        arena,
        learning_rate: float = 0.01,
        momentum: float = 0.9,
        loss: str = "mse",
    ):
        for layer in model.layers:
            if not isinstance(layer, Dense):
                raise ModelError(
                    "in-database training supports dense-only models"
                )
        loss_function = LOSS_FUNCTIONS.get(loss.lower())
        if loss_function is None:
            raise ModelError(
                f"unknown loss {loss!r}; "
                f"supported: {sorted(LOSS_FUNCTIONS)}"
            )
        self.model = model
        self.device = device
        self.arena = arena
        self.learning_rate = np.float32(learning_rate)
        self.momentum = np.float32(momentum)
        self.loss_name = loss.lower()
        self._loss = loss_function
        self._velocity = [
            (np.zeros_like(layer.kernel), np.zeros_like(layer.bias))
            for layer in model.layers
        ]

    def train_batch(self, x: np.ndarray, y: np.ndarray) -> float:
        device = self.device
        arena = self.arena
        rows = len(x)
        # Forward, keeping every activated output for backprop.
        outputs = [x]
        current = x
        for index, layer in enumerate(self.model.layers):
            pre = arena.take(f"train:pre:{index}", rows, layer.units)
            device.gemm(current, layer.kernel, out=pre)
            device.add(pre, layer.bias, out=pre)
            activated = arena.take(f"train:act:{index}", rows, layer.units)
            device.activation(layer.activation.name, pre, out=activated)
            outputs.append(activated)
            current = activated
        loss, grad = self._loss(outputs[-1], y)
        # Backward: chain rule layer by layer, updating as we go.
        for position in range(len(self.model.layers) - 1, -1, -1):
            layer = self.model.layers[position]
            activated = outputs[position + 1]
            derivative = layer.activation.derivative(activated)
            grad_pre = arena.take(
                f"train:gpre:{position}", rows, layer.units
            )
            device.multiply(grad, derivative, out=grad_pre)
            layer_input = outputs[position]
            grad_kernel = device.gemm(
                device.transpose(layer_input), grad_pre
            )
            grad_bias = grad_pre.sum(axis=0)
            if position > 0:
                grad_next = arena.take(
                    f"train:gin:{position}", rows, layer.kernel.shape[0]
                )
                device.gemm(
                    grad_pre, device.transpose(layer.kernel), out=grad_next
                )
                grad = grad_next
            velocity_kernel, velocity_bias = self._velocity[position]
            velocity_kernel *= self.momentum
            velocity_kernel -= self.learning_rate * grad_kernel
            velocity_bias *= self.momentum
            velocity_bias -= self.learning_rate * grad_bias
            layer.kernel += velocity_kernel
            layer.bias += velocity_bias
        return loss
