"""How fast the box is right now, so timings can be stated at one speed.

The reference box is a few cores of a shared host whose speed wanders
by a factor of up to two for seconds at a time (README, "Measured
bounds"): the same statement takes 65 ms in one stretch and 150 ms in
the next, and a pure-Python loop, an ``sgemm`` and a ``tanh`` over a
vector slow down with it.  A 15 s run sees one or two such stretches, so
its raw median says more about the stretch than about the engine.

The end-to-end pass therefore stops every :data:`SLICE_SECONDS` and
times four small fixed single-threaded kernels — an interpreter loop,
a dense compiled loop, an elementwise ufunc and a 4 MB copy — the kinds
of work the engine's operators do.  (The dense one is an integer ``matmul``, which
NumPy does not hand to BLAS: a threaded ``sgemm`` this small spends
milliseconds spinning whenever its worker thread shares a core.)
:func:`slowdown` is how much longer they took than :data:`NOMINAL_SECONDS`
(1.0 = the reference box in its usual state); the harness divides the
latencies of the slice by it.  The reported ``*_ms``, ``ops_per_s`` and
``setup_s`` are thus *at nominal box speed*; the raw values and every
slowdown factor are kept in the run's detail document.

The kernels are part of the benchmark, not of the program, so no change
to the engine can move them; a faster engine lowers latency ÷ slowdown
exactly as it lowers latency.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: operations run for this long between two calibrations
SLICE_SECONDS = 0.5
#: rounds per calibration; each kernel's time is its median over them
ROUNDS = 5

_rng = np.random.default_rng(0)
_LEFT = _rng.integers(-99, 99, size=(96, 96), dtype=np.int32)
_RIGHT = _rng.integers(-99, 99, size=(96, 96), dtype=np.int32)
_PRODUCT = np.empty((96, 96), dtype=np.int32)
_VECTOR = _rng.standard_normal(1 << 16).astype(np.float32)
_IMAGE = np.empty_like(_VECTOR)
_BLOCK = _rng.standard_normal(1 << 20).astype(np.float32)
_BLOCK_COPY = np.empty_like(_BLOCK)


def interpreter_kernel() -> int:
    total = 0
    for value in range(20_000):
        total += value * value
    return total


def dense_kernel() -> None:
    np.matmul(_LEFT, _RIGHT, out=_PRODUCT)


def elementwise_kernel() -> None:
    for _ in range(20):
        np.tanh(_VECTOR, out=_IMAGE)


def copy_kernel() -> None:
    np.copyto(_BLOCK_COPY, _BLOCK)


KERNELS = {
    "interpreter": interpreter_kernel,
    "dense": dense_kernel,
    "elementwise": elementwise_kernel,
    "copy": copy_kernel,
}

#: seconds each kernel takes on the reference box in its usual state
#: (medians over 1 100 calibrations beside all seven workloads); fixed
#: numbers, so that the same latency ÷ slowdown means the same thing in
#: every run of every commit
NOMINAL_SECONDS = {
    "interpreter": 0.886e-3,
    "dense": 0.495e-3,
    "elementwise": 0.554e-3,
    "copy": 0.414e-3,
}


def kernel_seconds() -> dict[str, float]:
    """Median time of each kernel over :data:`ROUNDS` interleaved rounds."""
    samples: dict[str, list[float]] = {name: [] for name in KERNELS}
    for _ in range(ROUNDS):
        for name, kernel in KERNELS.items():
            started = time.perf_counter()
            kernel()
            samples[name].append(time.perf_counter() - started)
    return {name: statistics.median(values) for name, values in samples.items()}


def slowdown() -> float:
    """Mean over the kernels of measured ÷ nominal time; about 12 ms."""
    seconds = kernel_seconds()
    return statistics.fmean(
        seconds[name] / NOMINAL_SECONDS[name] for name in KERNELS
    )
