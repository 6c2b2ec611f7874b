"""The ModelJoin as a physical query operator (paper Section 5.1).

A two-phase join in the Volcano model (Figure 5): on the first
``next()`` the operator drains the model side and builds the shared
weight matrices (cooperating with the other partition pipelines through
a barrier); afterwards every ``next()`` pulls a batch from the input
flow, runs vectorized inference and returns the input columns plus the
prediction columns.  The operator cuts its input batches into
inference batches of at most :attr:`ModelJoinOperator.batch_rows` rows,
so one forward pass scores a morsel of whole scan vectors of one block
(a scan batch, see :func:`repro.db.operators.scan.scan_batches`) rather
than a single vector, with one call of its one kernel: pack, forward
and the filter and projection the lowering fused onto the join.  A
filter below the join is its *input filter*: a selection kernel picks
each input batch's passing rows, and the rows selected from consecutive
batches are gathered into one inference batch.
Because it is a regular operator, it can be nested into arbitrary
queries — aggregations over predictions and the like.

Unlike ML-To-SQL, payload columns are simply passed through untouched
(no "late projection" join needed, Section 5.3).
"""

from __future__ import annotations

import functools
import threading
import time
from collections.abc import Iterator

import numpy as np

from repro.core.modeljoin.builder import BuiltModel, ModelBuilder
from repro.core.modeljoin.cache import CacheKey, ModelCache
from repro.core.modeljoin.inference import (
    ModelForward,
    VectorizedInference,
    inference_batch_rows,
)
from repro.db import faults
from repro.db.catalog import ModelMetadata
from repro.db.compile import KernelCompiler, KernelSpec, project_outputs
from repro.db.compile.fuse import (
    describe_segment,
    output_schema,
    passthrough_ordering,
)
from repro.db.expressions import ColumnRef
from repro.db.operators.base import (
    Bound,
    ExecutionContext,
    PhysicalOperator,
    UnaryOperator,
)
from repro.db.parallel import ROUND_ABORTED_KEY
from repro.db.resilience import breaker_for
from repro.db.schema import Column, Schema
from repro.db.table import Table
from repro.db.types import SqlType
from repro.db.vector import VectorBatch
from repro.device.base import Device
from repro.device.gpu import SimulatedGpu
from repro.device.host import HostDevice
from repro.errors import (
    DeviceError,
    InjectedFaultError,
    ModelJoinError,
    WorkerCrashError,
)

_shared_state_lock = threading.Lock()


class ModelJoinOperator(UnaryOperator):
    """Native ModelJoin: child (input flow) x model table -> predictions."""

    # inference is per-batch and the build is coordinated through
    # shared state, not through which morsels this pipeline scans — so
    # the input flow may come from a shared morsel queue
    morsel_streaming = True

    # Execution state, made by open(); these class values are what an
    # operator that never opened reports.
    #: fallback notes ('gpu-sim->cpu', ...) rendered by describe() (and
    #: so by EXPLAIN ANALYZE) once a fallback engaged
    fallbacks: list | tuple = ()
    #: the finalized model (kept for building a host-device fallback
    #: inference without re-running the build)
    _built_model: BuiltModel | None = None
    _inference: VectorizedInference | None = None
    #: the model-cache entry of the build (None: no cache)
    _built_key: CacheKey | None = None
    _accounted_bytes = 0

    def __init__(
        self,
        context: ExecutionContext,
        child: PhysicalOperator,
        metadata: ModelMetadata,
        model_table: Table,
        compiler: KernelCompiler,
        input_columns: list[str] | None = None,
        output_prefix: str = "prediction",
        device: Device | None = None,
        partition_index: int | None = None,
        replicate_bias: bool = True,
        model_cache: ModelCache | None = None,
        predicates=(),
        projection: tuple | None = None,
        variant: str | None = None,
        input_kernel=None,
    ):
        """*predicates* and *projection* ``(expressions, names)`` are the
        fused epilogue (default: every column, predictions last);
        *variant*, the optimizer's in-plan choice ("native-cpu" /
        "native-gpu"), picks the device when none is given: each open
        then runs on a fresh one of that kind.
        *input_kernel* is the selection kernel of a filter below the
        join (``KernelSpec.selection``), applied to each input batch.
        In a compiled plan *model_table* is the table's identity; the
        table and the partition are the instance's."""
        self.metadata = metadata
        #: the model table, or in a compiled plan its identity
        self.model_source = model_table
        #: whether each open runs on a fresh device (none was given)
        self.fresh_device = device is None
        if device is None:
            device = SimulatedGpu() if variant == "native-gpu" else HostDevice()
        self.device = device
        # built for itself, the operator is bound to its own inputs
        self.bound = Bound(
            tables={model_table: model_table}, partition_index=partition_index
        )
        self.replicate_bias = replicate_bias
        self.model_cache = model_cache
        self.output_prefix = output_prefix
        self.input_columns = tuple(
            self._resolve_input_columns(child.schema, metadata, input_columns)
        )
        prediction_columns = tuple(
            Column(f"{output_prefix}_{index}", SqlType.FLOAT)
            for index in range(metadata.output_width)
        )
        joined = Schema(child.schema.columns + prediction_columns)
        expressions, names = projection or (
            [ColumnRef(name) for name in joined.names], joined.names
        )
        outputs = project_outputs(expressions, names, joined)
        #: the input positions the model packs
        self.packs = tuple(map(child.schema.position_of, self.input_columns))
        #: the selection kernel of the input predicates (None: no filter)
        self.input_kernel = input_kernel
        #: the input positions the kernel's *arrays* are (None: all): a
        #: filtered join gathers only the columns its epilogue reads
        self.reads = None
        schema = joined
        if input_kernel is not None:
            expressions = (*predicates, *(o.expression for o in outputs))
            read = {
                joined.position_of(name)
                for expression in expressions
                for name in expression.referenced_columns()
            }
            self.reads = tuple(sorted(read - {
                joined.position_of(column.name)
                for column in prediction_columns
            }))
            schema = Schema(
                tuple(child.schema.columns[p] for p in self.reads)
                + prediction_columns
            )
        self.kernel = compiler.kernel(
            KernelSpec(
                schema=schema,
                predicates=tuple(predicates),
                outputs=outputs,
                # predictions are views of a reused arena buffer: the
                # kernel copies the ones it passes through
                transient=frozenset(
                    column.name.lower() for column in prediction_columns
                ),
                # a republish, a version bump or another device misses
                # the kernel cache, as it misses the ModelCache
                header=(
                    f"# model-table: {model_table.name} "
                    f"uid={model_table.uid} version={model_table.version}",
                    f"# device: {self.device.name}",
                ),
                label=f"modeljoin({metadata.model_name})",
                model=ModelForward(
                    metadata.layers,
                    self.packs,
                    packed=input_kernel is not None,
                ),
            )
        )
        super().__init__(context, output_schema(self.kernel.spec), child)
        #: whether a filter or projection above the join is fused
        self.epilogue = bool(predicates) or projection is not None
        #: most rows per forward pass: longer input batches are cut —
        #: to one vector when the epilogue calls a UDF
        self.batch_rows = (
            context.vector_size
            if self.kernel.per_vector
            else inference_batch_rows(metadata.layers, context.vector_size)
        )

    @property
    def model_table(self):
        return self.bound.tables[self.model_source]

    @property
    def partition_index(self) -> int:
        return self.bound.partition_index or 0

    @staticmethod
    def _resolve_input_columns(
        child_schema: Schema,
        metadata: ModelMetadata,
        input_columns: list[str] | None,
    ) -> list[str]:
        if input_columns is not None:
            if len(input_columns) != metadata.input_width:
                raise ModelJoinError(
                    f"model {metadata.model_name!r} expects "
                    f"{metadata.input_width} input columns, "
                    f"got {len(input_columns)}"
                )
            for name in input_columns:
                child_schema.position_of(name)
            return list(input_columns)
        # Default: the first input_width floating-point columns of the
        # input flow, in schema order.
        candidates = [
            column.name
            for column in child_schema
            if column.sql_type in (SqlType.FLOAT, SqlType.DOUBLE)
        ]
        if len(candidates) < metadata.input_width:
            raise ModelJoinError(
                f"input flow offers {len(candidates)} float columns, "
                f"model {metadata.model_name!r} needs "
                f"{metadata.input_width}; pass input columns explicitly"
            )
        return candidates[: metadata.input_width]

    @property
    def ordering(self) -> tuple[str, ...]:
        return passthrough_ordering(self.kernel.spec, self.child.ordering)

    def open(self) -> None:
        super().open()
        if self.fresh_device:
            self.device = self.device.fresh()
        if self.input_kernel is not None:
            self.input_kernel = self.input_kernel.bind(self.bound.values)
        self.fallbacks = []
        self._built_model = self._inference = self._built_key = None
        self._accounted_bytes = 0
        if self.device.is_gpu and breaker_for(self.device).is_open:
            # The device's circuit breaker is open (too many recent
            # faults): skip it for the whole query instead of failing
            # into the per-batch fallback path again.
            original = self.device.name
            self.device = HostDevice()
            self._note_fallback(
                "circuit-breaker", f"{original}->{self.device.name}", None
            )
        # Device kernels emit spans into the same timeline as the
        # operator (no-op while the tracer is disabled), and check the
        # query's deadline between kernels.
        self.device.set_tracer(self.context.tracer)
        self.device.set_cancellation(self.context.query.cancellation)
        if any(kernel.generated for kernel in self.kernels()):
            # the query counts as compiled (the query log's flag)
            self.context.counters.increment("compile.fused_pipelines")

    # ------------------------------------------------------------------
    # build phase
    # ------------------------------------------------------------------
    def _cache_key(self) -> CacheKey:
        return CacheKey.for_build(
            self.model_table, self.metadata.model_name, self.device.name
        )

    def _decision_key(self) -> tuple:
        return (
            "modeljoin",
            self.model_table.name.lower(),
            self.metadata.model_name.lower(),
            self.output_prefix,
        )

    def _retract_shared_decision(self, builder: ModelBuilder) -> None:
        """Remove a poisoned miss decision after a failed build.

        Only the decision holding *this* builder is removed (identity
        check), so concurrent cleanup from several crashed pipelines —
        or a decision already replaced by a retry — stays safe.  The
        retried pipeline group then re-decides with a fresh builder
        whose barrier is not broken.
        """
        key = self._decision_key()
        with _shared_state_lock:
            decision = self.context.shared_state.get(key)
            if (
                decision is not None
                and decision[0] == "miss"
                and decision[1] is builder
            ):
                self.context.shared_state.pop(key, None)

    def _shared_decision(self) -> tuple[str, object, CacheKey | None]:
        """Hit the cache or create the shared builder — once per query.

        All partition pipelines of one query must agree: a cache hit
        skips the build barrier entirely, so a mixed hit/miss within
        one query would deadlock the pipelines that wait.  The first
        pipeline to arrive decides under the shared-state lock and the
        rest follow its decision.  A query of one pipeline has nobody to
        agree with: it decides alone, without the lock.
        """
        if self.context.parallelism == 1:
            return self._decide()
        key = self._decision_key()
        with _shared_state_lock:
            decision = self.context.shared_state.get(key)
            if decision is None:
                decision = self._decide()
                self.context.shared_state[key] = decision
            return decision

    def _decide(self) -> tuple[str, object, CacheKey | None]:
        """Look the build up in the model cache (its checksum verified)
        and count the outcome; on a miss, make the builder."""
        built: BuiltModel | None = None
        cache_key: CacheKey | None = None
        if self.model_cache is not None:
            cache_key = self._cache_key()
            built = self.model_cache.get(cache_key)
        if built is not None:
            self.context.counters.increment("model-cache-hits")
            return ("hit", built, cache_key)
        if self.model_cache is not None:
            self.context.counters.increment("model-cache-misses")
        builder = ModelBuilder(
            input_width=self.metadata.input_width,
            layers=list(self.metadata.layers),
            parties=self.context.parallelism,
        )
        return ("miss", builder, cache_key)

    def _my_model_partitions(self) -> list[int]:
        """Model-table partitions this pipeline parses (round-robin)."""
        total = self.model_table.num_partitions
        stride = max(self.context.parallelism, 1)
        return list(range(self.partition_index, total, stride))

    def _build(self) -> VectorizedInference:
        started = time.perf_counter()
        with self.context.tracer.span(
            "modeljoin-build",
            category="phase",
            parent_id=self._span_id,
            args={"partition": self.partition_index},
        ):
            inference = self._build_inner()
        if self.partition_index == 0 and self.context.metrics is not None:
            self.context.metrics.histogram(
                "modeljoin.build_seconds"
            ).observe(time.perf_counter() - started)
        return inference

    def _build_inner(self) -> VectorizedInference:
        with self.context.stopwatch.measure("modeljoin-build"):
            kind, payload, cache_key = self._shared_decision()
            if kind == "hit":
                # Served from the cross-query cache: no model-table
                # scan, no barrier — the build phase is just the lookup.
                built = payload
            else:
                builder = payload
                try:
                    if faults.ACTIVE is not None:
                        faults.ACTIVE.fire("modeljoin.build")
                    # The model side is drained a whole block at a
                    # time: the build phase is bulk weight placement,
                    # not tuple-at-a-time processing.
                    for partition in self._my_model_partitions():
                        for batch in self.model_table.scan(partition):
                            builder.consume_batch(batch)
                    if self.context.shared_state.get(ROUND_ABORTED_KEY):
                        # A sibling task already crashed this round; its
                        # abort sweep may have run before our builder
                        # existed, so never enter the barrier wait.
                        raise WorkerCrashError(
                            "model build aborted: a cooperating "
                            "pipeline crashed before the build barrier"
                        )
                    built = builder.wait_and_finalize(self.device)
                except BaseException:
                    # Break the barrier so sibling pipelines observe a
                    # retryable WorkerCrashError instead of waiting for
                    # a party that will never arrive, and retract the
                    # poisoned decision so a retried group rebuilds
                    # from scratch.
                    builder.abort()
                    self._retract_shared_decision(builder)
                    raise
                if (
                    self.partition_index == 0
                    and self.model_cache is not None
                    and cache_key is not None
                ):
                    self.model_cache.put(cache_key, built)
        if self.partition_index == 0:
            self._accounted_bytes = built.nominal_bytes()
            self.context.memory.allocate(self._accounted_bytes, "model")
        self._built_model = built
        self._built_key = cache_key
        return self._make_inference(self.device)

    def _make_inference(self, device: Device) -> VectorizedInference:
        """A fresh inference state over the build: on the host, its bias
        replicas are the ones the model cache keeps for the build."""
        shared = None
        if self._built_key is not None and not device.is_gpu:
            shared = functools.partial(
                self.model_cache.bias_replica,
                self._built_key,
                self._built_model,
            )
        return VectorizedInference(
            self._built_model,
            device,
            batch_rows=self.batch_rows,
            replicate_bias=self.replicate_bias,
            shared_replicas=shared,
        )

    def _count_reused_bytes(self) -> None:
        """Report the arena of the inference being retired."""
        inference, self._inference = self._inference, None
        if inference is not None and inference.arena.reused_bytes:
            self.context.counters.increment(
                "buffer-bytes-reused", inference.arena.reused_bytes
            )

    # ------------------------------------------------------------------
    # inference phase
    # ------------------------------------------------------------------
    def _produce(self) -> Iterator[VectorBatch]:
        self._inference = self._build()
        span = self.context.tracer.span
        for rows, arrays, selected in self._batches():
            with span(
                "modeljoin-infer",
                category="phase",
                parent_id=self._span_id,
                args={"rows": rows},
            ):
                arrays = self._infer_batch(rows, arrays, selected)
                if arrays is not None:
                    yield VectorBatch(self.schema, arrays)

    def _batches(self):
        """The inference batches: ``(rows, arrays, selected)`` each.

        Without input predicates, each input batch cut to ``batch_rows``
        (*arrays*, which the kernel packs itself).  With them, the
        selected rows of consecutive input batches, ``(arrays,
        positions)`` per input batch in *selected*, gathered only when
        the batch is scored: a batch ends before the next input's
        selection would overflow ``batch_rows``, and an input batch
        whose every row passes is scored alone, cut as without
        predicates — so an all-pass filter scores bit-identically to no
        filter."""
        limit = self.batch_rows
        select = self.input_kernel
        if select is None:
            for input_batch in self.child.next_batches():
                for batch in input_batch.pieces(limit):
                    yield len(batch), batch.arrays, None
            return
        cancel = self.context.query.cancellation
        pending: list = []
        count = 0
        for input_batch in self.child.next_batches():
            rows = len(input_batch)
            if not rows:
                continue
            arrays = input_batch.arrays
            positions = select(arrays, rows, cancel)
            if positions is None:
                if count:
                    yield count, None, pending
                    pending, count = [], 0
                for batch in input_batch.pieces(limit):
                    yield len(batch), None, [(batch.arrays, None)]
                continue
            kept = len(positions)
            if count + kept > limit and count:
                yield count, None, pending
                pending, count = [], 0
            while kept > limit:  # more than a batch holds: cut it
                yield limit, None, [(arrays, positions[:limit])]
                positions = positions[limit:]
                kept -= limit
            if kept:
                pending.append((arrays, positions))
                count += kept
        if count:
            yield count, None, pending

    def _gather(self, rows: int, selected: list) -> tuple[list, object]:
        """The kernel's *arrays* and packed inputs of *rows* selected
        rows: the model's inputs go straight into the arena's pack
        buffer, and only the columns the epilogue reads are gathered."""
        x = self._inference.arena.take("pack", rows, len(self.packs))
        start = 0
        for arrays, positions in selected:
            end = rows if positions is None else start + len(positions)
            for index, position in enumerate(self.packs):
                column = arrays[position]
                if positions is not None:
                    column = column[positions]
                x[start:end, index] = column
            start = end
        columns = []
        for position in self.reads:
            pieces = [
                arrays[position] if positions is None
                else arrays[position][positions]
                for arrays, positions in selected
            ]
            columns.append(
                pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
            )
        return columns, x

    def _infer_batch(self, rows: int, arrays, selected=None) -> list | None:
        """One kernel call over *rows* rows — of *arrays*, or of the
        *selected* rows of input batches (:meth:`_batches`): the output
        arrays, None when the fused filter dropped every row."""
        context = self.context
        with context.stopwatch.measure("modeljoin-infer"):
            cancel = context.query.cancellation
            # the packed input matrix
            transient = 4 * rows * len(self.input_columns)
            context.memory.allocate(transient, "modeljoin-vector")
            try:
                packed = ()
                if selected is not None:
                    arrays, x = self._gather(rows, selected)
                    packed = (x,)
                try:
                    return self.kernel(
                        arrays, rows, cancel, self._inference, *packed
                    )
                except (DeviceError, InjectedFaultError) as error:
                    fallback = self._host_fallback_inference(error)
                    if fallback is None:
                        raise
                    self._inference = fallback
                    return self.kernel(arrays, rows, cancel, fallback, *packed)
            finally:
                context.memory.release(transient, "modeljoin-vector")

    def _host_fallback_inference(
        self, error: Exception
    ) -> VectorizedInference | None:
        """A host-device inference over the already-built model.

        Engaged when a simulated-GPU kernel faults mid-inference: the
        finalized model's arrays are host NumPy either way, so the host
        forward is bit-exact with the device forward — the failing
        batch is recomputed and all later batches stay on the host.
        Returns None when there is nothing to fall back *from* (already
        on the host, or the model is not built yet).
        """
        if not self.device.is_gpu or self._built_model is None:
            return None
        breaker_for(self.device).record_failure()
        host = HostDevice()
        host.set_tracer(self.context.tracer)
        host.set_cancellation(self.context.query.cancellation)
        self._note_fallback(
            "device", f"{self.device.name}->{host.name}", error
        )
        self._count_reused_bytes()
        return self._make_inference(host)

    def _note_fallback(
        self, kind: str, note: str, error: Exception | None
    ) -> None:
        """Surface an engaged fallback: query counters, trace span."""
        self.fallbacks.append(note)
        counters = self.context.counters
        counters.increment("fallback.engaged")
        counters.increment(f"fallback.{kind}")
        tracer = self.context.tracer
        if tracer.enabled:
            args = {"kind": kind, "note": note}
            if error is not None:
                args["error"] = f"{type(error).__name__}: {error}"
            tracer.instant(
                "fallback",
                category="fallback",
                parent_id=self._span_id,
                args=args,
            )

    def close(self) -> None:
        self._count_reused_bytes()
        if self._accounted_bytes:
            self.context.memory.release(self._accounted_bytes, "model")
            self._accounted_bytes = 0
        super().close()

    def merge_stats_from(self, other: PhysicalOperator) -> None:
        super().merge_stats_from(other)
        # Union the pipelines' fallback notes so a fallback engaged on
        # any worker shows up in the merged EXPLAIN ANALYZE tree.
        for note in getattr(other, "fallbacks", ()):  # pragma: no branch
            if note not in self.fallbacks:
                self.fallbacks.append(note)

    def kernels(self) -> tuple:
        if self.input_kernel is None:
            return (self.kernel,)
        return (self.input_kernel, self.kernel)

    def describe(self) -> str:
        base = (
            f"ModelJoin(model={self.metadata.model_name}, "
            f"device={self.device.name}, "
            f"inputs=[{', '.join(self.input_columns)}], "
            f"batch={self.batch_rows}"
        )
        if self.input_kernel is not None:
            select = self.input_kernel
            rendered = " AND ".join(
                map(str, self.shown(select.spec.predicates))
            )
            base += f" | input filter: {rendered}"
            if select.generated and not self.kernel.generated:
                base += " [compiled]"
        if self.epilogue:
            spec = self.kernel.spec
            segment = describe_segment(spec, self.bound.values)
            base += f" | {segment}) [epilogue: fused]"
        else:
            base += ")"
        if self.kernel.generated:
            base += " [compiled]"
        if self.fallbacks:
            base += f" [fallback: {', '.join(self.fallbacks)}]"
        return base
