"""Named, reusable float32 workspaces for the device kernels.

The inference loop (:mod:`repro.core.modeljoin.inference`) and the
training loop (:mod:`repro.db.train`) both write their kernel outputs
into arena views through the device interface's ``out=`` contract, so
their steady state allocates nothing.
"""

from __future__ import annotations

import numpy as np

from repro.device.base import Device
from repro.errors import DeviceError


class BufferArena:
    """Named, preallocated float32 workspaces for one pipeline.

    ``take(tag, rows, cols)`` returns a ``(rows, cols)`` view of a
    buffer allocated once at ``max(rows, capacity_rows)`` rows; the
    same tag returns the same storage on every subsequent batch, so
    the steady state of the inference loop allocates nothing.
    :meth:`replicated` keeps the bias replicas the same way.  Not
    thread-safe by design — each partition pipeline owns its own arena,
    and its owner reports :attr:`reused_bytes` when it is done.
    """

    def __init__(self, capacity_rows: int):
        if capacity_rows < 1:
            raise DeviceError("arena capacity must be positive")
        self.capacity_rows = capacity_rows
        self._buffers: dict[str, np.ndarray] = {}
        self._replicas: dict[str, np.ndarray] = {}
        #: bytes of allocation avoided by handing out reused buffers
        self.reused_bytes = 0

    def take(self, tag: str, rows: int, cols: int) -> np.ndarray:
        buffer = self._buffers.get(tag)
        if (
            buffer is None
            or buffer.shape[0] < rows
            or buffer.shape[1] != cols
        ):
            capacity = max(rows, self.capacity_rows)
            buffer = np.empty((capacity, cols), dtype=np.float32)
            self._buffers[tag] = buffer
        else:
            self.reused_bytes += rows * cols * buffer.itemsize
        return buffer[:rows]

    def replicated(
        self, tag: str, row: np.ndarray, rows: int, device: Device
    ) -> np.ndarray:
        """*row* repeated *rows* times: the ``y`` of ``y := Ax + y``.

        Filled by a device-side copy on the first batch and refilled
        only when a batch is longer than any before, so a one-row query
        replicates one row and a replica never outgrows the batches
        actually scored.  On a simulated GPU the fill is a device kernel,
        not a host→device transfer.
        """
        replica = self._replicas.get(tag)
        if replica is None or replica.shape[0] < rows:
            replica = device.copy(
                np.broadcast_to(row, (rows, row.shape[0])),
                out=device.allocate((rows, row.shape[0])),
            )
            self._replicas[tag] = replica
        return replica[:rows]
