"""Simulated GPU device.

No physical GPU is available in this reproduction, so the GPU variants
of the ModelJoin operator and the runtime integration run on a
*simulated* device: every kernel is executed with NumPy — results are
exact — while a calibrated cost model accounts the time the kernel and
the host<->device transfers would take on the paper's A100-over-PCIe
setup.

A GPU variant's reported runtime is::

    wall_time - host_kernel_seconds + modeled_seconds

i.e. only the portion that would actually run on the GPU is swapped
for modeled time; everything else (the engine, conversions, Python
overhead) stays measured.  The crossover behaviour the paper reports —
GPU no better than CPU for small models (transfer/launch overhead
dominates), clearly better for large models and LSTMs (compute
dominates) — follows directly from the model's constants.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.db import faults
from repro.device.base import Device


@dataclass(frozen=True)
class GpuCostModel:
    """Cost constants of the simulated accelerator.

    Defaults approximate an NVIDIA A100 (40 GB, PCIe): ~10 TFLOP/s
    sustained fp32 GEMM, ~200 Gelem/s elementwise, ~12 GB/s effective
    PCIe bandwidth, a few microseconds per transfer/launch.
    """

    gemm_flops_per_second: float = 10e12
    elementwise_per_second: float = 200e9
    transfer_bytes_per_second: float = 12e9
    transfer_latency_seconds: float = 10e-6
    kernel_launch_seconds: float = 5e-6

    def gemm_seconds(self, m: int, k: int, n: int) -> float:
        flops = 2.0 * m * k * n
        return self.kernel_launch_seconds + flops / self.gemm_flops_per_second

    def elementwise_seconds(self, elements: int) -> float:
        return (
            self.kernel_launch_seconds
            + elements / self.elementwise_per_second
        )

    def transfer_seconds(self, nbytes: int) -> float:
        return (
            self.transfer_latency_seconds
            + nbytes / self.transfer_bytes_per_second
        )


class SimulatedGpu(Device):
    """A device that computes on the host and accounts modeled time."""

    name = "gpu-sim"
    is_gpu = True

    def __init__(self, cost_model: GpuCostModel | None = None):
        super().__init__()
        self.cost_model = cost_model or GpuCostModel()

    # ------------------------------------------------------------------
    # transfers
    # ------------------------------------------------------------------
    def to_device(self, array: np.ndarray) -> np.ndarray:
        self.stats.bytes_to_device += array.nbytes
        self.stats.modeled_transfer_seconds += self.cost_model.transfer_seconds(
            array.nbytes
        )
        # A real transfer produces a distinct buffer; keep that property.
        return np.array(array, dtype=np.float32, copy=True)

    def to_host(self, array: np.ndarray) -> np.ndarray:
        self.stats.bytes_to_host += array.nbytes
        self.stats.modeled_transfer_seconds += self.cost_model.transfer_seconds(
            array.nbytes
        )
        return np.array(array, copy=True)

    # ------------------------------------------------------------------
    # kernels
    # ------------------------------------------------------------------
    def gemm(self, a, b, accumulate=None, out=None):
        # Fault point: only the *simulated GPU's* gemm can be faulted,
        # so the operator's fall-back to the host device escapes the
        # injected failure (and stays bit-exact — both devices compute
        # with the same NumPy kernels).
        if faults.ACTIVE is not None:
            faults.ACTIVE.fire("device.gemm")
        started = time.perf_counter()
        result = super().gemm(a, b, accumulate, out)
        self.stats.host_kernel_seconds += time.perf_counter() - started
        self.stats.kernel_launches += 1
        self.stats.flops += 2 * a.shape[0] * a.shape[1] * b.shape[1]
        self.stats.modeled_kernel_seconds += self.cost_model.gemm_seconds(
            a.shape[0], a.shape[1], b.shape[1]
        )
        return result

    def _elementwise(self, compute, elements: int):
        started = time.perf_counter()
        result = compute()
        self.stats.host_kernel_seconds += time.perf_counter() - started
        self.stats.kernel_launches += 1
        self.stats.elementwise_elements += elements
        self.stats.modeled_kernel_seconds += (
            self.cost_model.elementwise_seconds(elements)
        )
        return result

    def multiply(self, a, b, out=None):
        return self._elementwise(
            lambda: Device.multiply(self, a, b, out), int(np.size(a))
        )

    def add(self, a, b, out=None):
        return self._elementwise(
            lambda: Device.add(self, a, b, out), int(np.size(a))
        )

    def copy(self, array, out=None):
        return self._elementwise(
            lambda: Device.copy(self, array, out), int(np.size(array))
        )

    def activation(self, name, array, out=None):
        return self._elementwise(
            lambda: Device.activation(self, name, array, out),
            int(np.size(array)),
        )

    def transpose(self, array):
        return self._elementwise(
            lambda: np.ascontiguousarray(array.T), int(np.size(array))
        )
