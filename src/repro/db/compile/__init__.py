"""Pipeline-fusing query compilation (PR6, ROADMAP item 3).

Turns bound expression trees and adjacent filter→project→aggregate
operator chains into generated, cached NumPy kernels:

* :class:`~repro.db.compile.kernels.CompiledExpr` — one scalar or
  predicate expression compiled to a single vectorized callable.
* :class:`~repro.db.compile.fuse.FusedPipeline` — a filter→project
  chain fused into one kernel with short-circuit mask narrowing; the
  same kernels feed the aggregate operators as *input kernels*.
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
    CompiledExpr,
    CompiledKernelCache,
    FusedKernel,
    KernelCompiler,
    KernelOutput,
    KernelReplayError,
    KernelSpec,
    ReplayCompiler,
    generate_expression_source,
    generate_kernel_source,
    project_outputs,
)

__all__ = [
    "CompiledExpr",
    "CompiledKernelCache",
    "FusedKernel",
    "FusedPipeline",
    "KernelCompiler",
    "KernelOutput",
    "KernelReplayError",
    "KernelSpec",
    "NonCompilable",
    "ReplayCompiler",
    "generate_expression_source",
    "generate_kernel_source",
    "project_outputs",
]
