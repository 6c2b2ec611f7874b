"""Host (CPU) device.

Plain NumPy execution — NumPy's BLAS plays the role of Intel MKL in
the paper's CPU variant.  The host device still counts launches and
FLOPs so ablation benches can reason about arithmetic intensity, but
its modeled time is zero: CPU variants are reported at wall-clock.
"""

from __future__ import annotations

from repro.device.base import Device


class HostDevice(Device):
    name = "cpu"
    is_gpu = False

    def gemm(self, a, b, accumulate=None, out=None):
        result = super().gemm(a, b, accumulate, out)
        self.stats.kernel_launches += 1
        self.stats.flops += 2 * a.shape[0] * a.shape[1] * b.shape[1]
        return result

    def multiply(self, a, b, out=None):
        self.stats.kernel_launches += 1
        self.stats.elementwise_elements += a.size
        return super().multiply(a, b, out)

    def add(self, a, b, out=None):
        self.stats.kernel_launches += 1
        self.stats.elementwise_elements += a.size
        return super().add(a, b, out)

    def activation(self, name, array, out=None):
        self.stats.kernel_launches += 1
        self.stats.elementwise_elements += array.size
        return super().activation(name, array, out)
