"""Device interface and statistics.

A device exposes the BLAS-flavoured kernel set the paper's native
operator needs (Section 5.4 / Listing 5): ``gemm`` (sgemm), elementwise
multiply/add (vsMul/vsAdd), copy, and the activation kernels.  Arrays
"resident on the device" are plain NumPy arrays; what distinguishes
devices is *accounting*, not representation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DeviceError
from repro.nn.activations import get_activation


@dataclass
class DeviceStats:
    """Resource counters a device accumulates across kernel calls."""

    kernel_launches: int = 0
    flops: int = 0
    elementwise_elements: int = 0
    bytes_to_device: int = 0
    bytes_to_host: int = 0
    #: wall-clock seconds actually spent in NumPy inside device kernels
    host_kernel_seconds: float = 0.0
    #: modeled seconds the kernels would take on the simulated device
    modeled_kernel_seconds: float = 0.0
    #: modeled seconds for host<->device transfers
    modeled_transfer_seconds: float = 0.0

    def reset(self) -> None:
        self.kernel_launches = 0
        self.flops = 0
        self.elementwise_elements = 0
        self.bytes_to_device = 0
        self.bytes_to_host = 0
        self.host_kernel_seconds = 0.0
        self.modeled_kernel_seconds = 0.0
        self.modeled_transfer_seconds = 0.0

    @property
    def modeled_seconds(self) -> float:
        return self.modeled_kernel_seconds + self.modeled_transfer_seconds

    def merge(self, other: "DeviceStats") -> None:
        self.kernel_launches += other.kernel_launches
        self.flops += other.flops
        self.elementwise_elements += other.elementwise_elements
        self.bytes_to_device += other.bytes_to_device
        self.bytes_to_host += other.bytes_to_host
        self.host_kernel_seconds += other.host_kernel_seconds
        self.modeled_kernel_seconds += other.modeled_kernel_seconds
        self.modeled_transfer_seconds += other.modeled_transfer_seconds


class Device:
    """Base device: NumPy compute, no extra accounting (the host CPU)."""

    name = "abstract"
    is_gpu = False

    def __init__(self) -> None:
        self.stats = DeviceStats()
        #: optional span producer (see :meth:`set_tracer`); kernels emit
        #: ``kernel``-category spans only while it is enabled
        self._tracer = None
        #: optional cooperative deadline (see :meth:`set_cancellation`)
        self._cancellation = None

    def fresh(self) -> "Device":
        """An unused device of this kind and configuration: its own
        stats, tracer and cancellation (one device per operator)."""
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__)
        Device.__init__(twin)
        return twin

    def set_tracer(self, tracer) -> None:
        """Attach a :class:`repro.db.tracing.Tracer`.

        Kernel calls (``gemm``/``multiply``/``add``/``copy``/
        ``activation``) then record spans in the ``kernel`` category
        whenever the tracer is enabled; pass ``None`` to detach.
        """
        self._tracer = tracer

    def set_cancellation(self, token) -> None:
        """Attach a :class:`repro.db.resilience.CancellationToken`.

        ``gemm`` — the kernel that dominates inference time — then
        checks the token before computing, so a query deadline fires
        between kernels even inside a long model forward.  Pass
        ``None`` to detach.
        """
        self._cancellation = token

    # ------------------------------------------------------------------
    # memory movement
    # ------------------------------------------------------------------
    def to_device(self, array: np.ndarray) -> np.ndarray:
        """Move a host array onto the device."""
        return array

    def to_host(self, array: np.ndarray) -> np.ndarray:
        """Move a device array back to the host."""
        return array

    def allocate(self, shape: tuple[int, ...]) -> np.ndarray:
        """Allocate an uninitialized float32 buffer on the device."""
        return np.empty(shape, dtype=np.float32)

    def zeros(self, shape: tuple[int, ...]) -> np.ndarray:
        return np.zeros(shape, dtype=np.float32)

    # ------------------------------------------------------------------
    # kernels
    # ------------------------------------------------------------------
    def gemm(
        self,
        a: np.ndarray,
        b: np.ndarray,
        accumulate: np.ndarray | None = None,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """``a @ b`` (+ *accumulate*), like BLAS sgemm's C := AB + C.

        With *out* the product is written into the given buffer (which
        must not alias ``a``, ``b`` or *accumulate*); *accumulate* is
        never modified either way.
        """
        if self._cancellation is not None:
            self._cancellation.check()
        self._check_float32(a, b)
        if a.shape[1] != b.shape[0]:
            raise DeviceError(
                f"gemm shape mismatch: {a.shape} @ {b.shape}"
            )
        tracer = self._tracer
        if tracer is not None and tracer.enabled:
            with tracer.span(
                "gemm",
                category="kernel",
                args={
                    "device": self.name,
                    "m": a.shape[0],
                    "k": a.shape[1],
                    "n": b.shape[1],
                },
            ):
                return self._gemm(a, b, accumulate, out)
        return self._gemm(a, b, accumulate, out)

    @staticmethod
    def _gemm(a, b, accumulate, out) -> np.ndarray:
        if out is None:
            result = a @ b
            if accumulate is not None:
                result = result + accumulate
            return result
        np.matmul(a, b, out=out)
        if accumulate is not None:
            np.add(out, accumulate, out=out)
        return out

    def _elementwise_span(self, name: str, elements: int):
        tracer = self._tracer
        if tracer is not None and tracer.enabled:
            return tracer.span(
                name,
                category="kernel",
                args={"device": self.name, "elements": elements},
            )
        return None

    def multiply(
        self,
        a: np.ndarray,
        b: np.ndarray,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Elementwise product (vsMul)."""
        span = self._elementwise_span("multiply", a.size)
        if span is None:
            return a * b if out is None else np.multiply(a, b, out=out)
        with span:
            return a * b if out is None else np.multiply(a, b, out=out)

    def add(
        self,
        a: np.ndarray,
        b: np.ndarray,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Elementwise sum (vsAdd)."""
        span = self._elementwise_span("add", a.size)
        if span is None:
            return a + b if out is None else np.add(a, b, out=out)
        with span:
            return a + b if out is None else np.add(a, b, out=out)

    def copy(
        self, array: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        if out is None:
            return array.copy()
        np.copyto(out, array)
        return out

    def activation(
        self,
        name: str,
        array: np.ndarray,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Apply a named activation kernel (in place when *out* given;
        ``out is array`` is allowed)."""
        span = self._elementwise_span(f"activation:{name}", array.size)
        if span is None:
            return get_activation(name).apply(array, out)
        with span:
            return get_activation(name).apply(array, out)

    def transpose(self, array: np.ndarray) -> np.ndarray:
        """Materialized transpose (the operator transposes the input
        matrix once before the first layer, Section 5.4)."""
        return np.ascontiguousarray(array.T)

    @staticmethod
    def _check_float32(*arrays: np.ndarray) -> None:
        for array in arrays:
            if array.dtype != np.float32:
                raise DeviceError(
                    f"device kernels are float32-only, got {array.dtype}"
                )


class DeviceWindow:
    """Context manager measuring wall time over a code region, with the
    device's measured kernel time swapped for its modeled time.

    For a host device the result is plain wall time (deltas are zero).
    For the simulated GPU::

        seconds = wall - host_kernel_delta + modeled_delta

    Deltas are computed against a stats snapshot taken on entry, so
    windows compose correctly across repeated runs on one device.
    """

    def __init__(self, device: "Device"):
        self.device = device
        self.seconds = 0.0
        self.wall_seconds = 0.0
        self._start = 0.0
        self._host0 = 0.0
        self._modeled0 = 0.0

    def __enter__(self) -> "DeviceWindow":
        import time

        stats = self.device.stats
        self._host0 = stats.host_kernel_seconds
        self._modeled0 = stats.modeled_seconds
        self._start = time.perf_counter()
        return self

    def __exit__(self, *_exc) -> None:
        import time

        self.wall_seconds = time.perf_counter() - self._start
        stats = self.device.stats
        host_delta = stats.host_kernel_seconds - self._host0
        modeled_delta = stats.modeled_seconds - self._modeled0
        self.seconds = max(
            self.wall_seconds - host_delta + modeled_delta, 0.0
        )
