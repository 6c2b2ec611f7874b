"""Direct execution of the runtime-API integration (TF_CAPI variants)."""

from __future__ import annotations

from repro.core.modeljoin.runner import DirectRunner
from repro.core.runtime_api.operator import RuntimeApiOperator
from repro.db.engine import Database
from repro.device.base import Device
from repro.device.host import HostDevice
from repro.nn.model import Sequential
from repro.nn.runtime import MlRuntime


class RuntimeApiModelJoin(DirectRunner):
    """Runs inference through the embedded ML runtime (paper approach 2).

    Each partition pipeline gets its own runtime session, mirroring the
    per-thread private plans of the engine; the runtime itself (and the
    device) is shared.
    """

    def __init__(
        self,
        database: Database,
        model: Sequential,
        device: Device | None = None,
    ):
        self.database = database
        self.model = model
        self.label = "<runtime-api>"
        self.output_width = model.output_width
        self.device = device or HostDevice()
        self.runtime = MlRuntime(self.device)

    def operator(self, context, scan, partition_index, input_columns, _):
        return RuntimeApiOperator(
            context,
            scan,
            self.model,
            input_columns=input_columns,
            runtime=self.runtime,
        )
