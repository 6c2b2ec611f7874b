"""Pipeline-fusing query compilation (PR6, ROADMAP item 3).

Turns adjacent filter→project→aggregate-input chains into generated,
cached NumPy kernels:

* :class:`~repro.db.compile.kernels.KernelSpec` — one pipeline segment;
  the lowering asks :meth:`~repro.db.compile.kernels.KernelCompiler.kernel`
  for exactly one kernel per segment: the generated
  :class:`~repro.db.compile.kernels.FusedKernel` (short-circuit mask
  narrowing, all outputs in one call), or, when codegen is off or has
  no exact form, the :class:`~repro.db.compile.kernels.InterpretedKernel`
  with the same call contract.
* :class:`~repro.db.compile.fuse.FusedPipeline` — the one filter /
  projection operator, calling its kernel once per batch; the same
  kernels feed the aggregate operators as their input kernels.
* :class:`~repro.db.compile.kernels.CompiledKernelCache` — engine-
  lifetime LRU of exec'd functions keyed on the generated source text.
  Literals are kernel parameters, so the text is literal-free and a
  statement re-run with fresh literals hits; for ModelJoin epilogue
  fusion the text embeds the model table's uid/version, making text
  equality the invalidation rule.

The lowering (:mod:`repro.db.plan.physical`) drives compilation; the
engine owns the cache and a compile circuit breaker, and reverts a
query to the interpreted path (``use_compiled_kernels=False``) on the
first :class:`~repro.errors.CompiledKernelError`.
"""

from repro.db.compile.codegen import NonCompilable
from repro.db.compile.fuse import FusedPipeline
from repro.db.compile.kernels import (
    CompiledKernelCache,
    FusedKernel,
    InterpretedKernel,
    KernelCompiler,
    KernelOutput,
    KernelReplayError,
    KernelSpec,
    ReplayCompiler,
    generate_kernel_source,
    project_outputs,
)

__all__ = [
    "CompiledKernelCache",
    "FusedKernel",
    "FusedPipeline",
    "InterpretedKernel",
    "KernelCompiler",
    "KernelOutput",
    "KernelReplayError",
    "KernelSpec",
    "NonCompilable",
    "ReplayCompiler",
    "generate_kernel_source",
    "project_outputs",
]
