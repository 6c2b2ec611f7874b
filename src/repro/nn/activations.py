"""Activation functions (paper Section 4.3.5: linear, ReLU, sigmoid, tanh).

Each activation carries its forward function and its derivative (used
by the trainer).  Forward functions preserve the input dtype, so a
float32 pipeline stays float32 — matching the 4-byte-float arithmetic
of the paper's engine.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.errors import ModelGraphError


@dataclass(frozen=True)
class Activation:
    """A named activation with forward and derivative functions."""

    name: str
    forward: Callable[[np.ndarray], np.ndarray]
    #: derivative expressed in terms of the *activated output* y
    derivative: Callable[[np.ndarray], np.ndarray]
    #: optional allocation-free forward writing into a caller buffer;
    #: must be bit-exact with :attr:`forward`
    inplace: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def __call__(self, values: np.ndarray) -> np.ndarray:
        return self.forward(values)

    def apply(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Forward pass, into *out* when given (``out is values`` is fine)."""
        if out is None:
            return self.forward(values)
        if self.inplace is not None:
            return self.inplace(values, out)
        np.copyto(out, self.forward(values))
        return out


def _linear(values: np.ndarray) -> np.ndarray:
    return values


#: per dtype, read-only zeros of up to 1 MiB of float32 (_zeros)
_ZERO_BUFFERS: dict = {}
_ZERO_LIMIT = 1 << 18


def _zeros(values: np.ndarray) -> np.ndarray:
    """Zeros for ``maximum(values, zeros)``: against a whole array
    NumPy runs its contiguous SIMD loop, about three times faster than
    against a broadcast one-element array (what larger inputs get)."""
    size = values.size
    if size > _ZERO_LIMIT:
        return np.zeros(1, dtype=values.dtype)
    zeros = _ZERO_BUFFERS.get(values.dtype)
    if zeros is None or zeros.size < size:
        zeros = np.zeros(max(size, 1 << 12), dtype=values.dtype)
        zeros.flags.writeable = False
        _ZERO_BUFFERS[values.dtype] = zeros
    return zeros[:size].reshape(values.shape)


def _relu(values: np.ndarray) -> np.ndarray:
    return np.maximum(values, _zeros(values))


def _sigmoid(values: np.ndarray) -> np.ndarray:
    clipped = np.clip(values, -80.0, 80.0)
    return 1.0 / (1.0 + np.exp(-clipped))


def _tanh(values: np.ndarray) -> np.ndarray:
    return np.tanh(values)


def _linear_out(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    if out is not values:
        np.copyto(out, values)
    return out


def _relu_out(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    return np.maximum(values, _zeros(values), out=out)


def _sigmoid_out(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    # The same operation sequence as :func:`_sigmoid`, expressed as
    # in-place ufunc calls so no intermediate is allocated.
    np.clip(values, -80.0, 80.0, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.add(out, 1.0, out=out)
    np.divide(1.0, out, out=out)
    return out


def _tanh_out(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    return np.tanh(values, out=out)


_ACTIVATIONS: dict[str, Activation] = {
    "linear": Activation(
        "linear", _linear, lambda y: np.ones_like(y), _linear_out
    ),
    "relu": Activation(
        "relu", _relu, lambda y: (y > 0).astype(y.dtype), _relu_out
    ),
    "sigmoid": Activation(
        "sigmoid", _sigmoid, lambda y: y * (1.0 - y), _sigmoid_out
    ),
    "tanh": Activation("tanh", _tanh, lambda y: 1.0 - y * y, _tanh_out),
}


def get_activation(name: str) -> Activation:
    """Look up an activation by name (case-insensitive)."""
    activation = _ACTIVATIONS.get(name.lower())
    if activation is None:
        raise ModelGraphError(
            f"unknown activation {name!r}; "
            f"supported: {sorted(_ACTIVATIONS)}"
        )
    return activation


def supported_activations() -> tuple[str, ...]:
    return tuple(sorted(_ACTIVATIONS))
