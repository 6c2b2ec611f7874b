"""Compiled kernels: specs, the LRU cache, and the compiler front-end.

A :class:`KernelSpec` describes one fused pipeline segment — optional
filter conjuncts plus a list of outputs over one input schema.  The
compiler renders it to literal-free Python source plus the tuple of
literal values (:func:`generate_kernel_source`), ``exec``'s the source
once, and wraps the resulting function and this query's values in a
:class:`FusedKernel` whose call path adds the ``compile.kernel`` fault
site and converts unexpected errors into
:class:`~repro.errors.KernelExecutionError` so the engine's one-shot
fallback can revert the query to the interpreted path.

Exec'd functions are cached engine-lifetime in a
:class:`CompiledKernelCache` keyed on the generated source text.  The
text carries no literal values, so a statement re-run with fresh
literals hits; it does carry, for ModelJoin epilogue fusion, the model
table's ``uid``/``version`` header, so a model republish or version
bump misses the cache, exactly like the ModelCache keying, and the
registration number of every bound function, so a re-registered UDF
misses it too.

A lowering can also *record* each request as a :class:`KernelRecord`
(source, bindings, which literal slot feeds each parameter); the plan
cache keeps the records with its template, and the lowering of a later
statement of the same shape replays them through
:class:`ReplayCompiler` — kernels fetched by stored source, no codegen.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.db import faults
from repro.db.compile.codegen import (
    LiteralParameter,
    NonCompilable,
    NonCompilableLiteral,
    SourceBuilder,
    aliasing_column,
    emit,
    emit_output,
)
from repro.db.expressions import Expression, Literal
from repro.db.schema import Schema
from repro.db.tracing import NULL_TRACER
from repro.db.types import SqlType
from repro.errors import (
    KernelCompileError,
    KernelExecutionError,
    QueryTimeoutError,
)


@dataclass(frozen=True)
class KernelOutput:
    """One output position of a fused kernel.

    ``dtype`` is the coercion target for projection
    outputs; ``None`` keeps the raw evaluation result (filter
    pass-through and aggregate inputs, which the consuming operator
    coerces after reduction, exactly like the interpreted path).
    """

    name: str
    expression: Expression
    dtype: np.dtype | None = None


@dataclass
class KernelSpec:
    """A fused filter→project (or aggregate-input) pipeline segment."""

    schema: Schema
    predicates: tuple[Expression, ...] = ()
    outputs: tuple[KernelOutput, ...] = ()
    #: lowercase names of input columns backed by reused buffers (the
    #: ModelJoin arena views); pass-through outputs of these are copied
    transient: frozenset = frozenset()
    #: extra comment lines baked into the source (cache-key salt, e.g.
    #: the fused ModelJoin's model-table identity)
    header: tuple[str, ...] = ()
    label: str = "pipeline"


def project_outputs(
    expressions, names, schema: Schema
) -> tuple[KernelOutput, ...]:
    """Projection outputs with the interpreted coercion behavior.

    Mirrors :class:`~repro.db.operators.project.ProjectOperator`: each
    value is cast to its output column's storage dtype, except VARCHAR
    results, which stay object arrays untouched.
    """
    outputs = []
    for expression, name in zip(expressions, names):
        output_type = expression.output_type(schema)
        dtype = (
            None
            if output_type is SqlType.VARCHAR
            else output_type.numpy_dtype
        )
        outputs.append(KernelOutput(name, expression, dtype))
    return tuple(outputs)


def generate_kernel_source(spec: KernelSpec) -> tuple[str, dict, tuple]:
    """Render *spec* to module source, its ``exec`` bindings and the
    parameter values the source reads (one per literal occurrence).

    Raises :class:`~repro.db.compile.codegen.NonCompilable` when any
    piece of the spec has no exact compiled form.
    """
    source, builder = _kernel_source(spec)
    return source, builder.bindings, tuple(builder.parameters)


def _kernel_source(spec: KernelSpec) -> tuple[str, SourceBuilder]:
    schema = spec.schema
    builder = SourceBuilder(schema)

    predicate_texts: list[str] = []
    predicate_refs: list[set[int]] = []
    for predicate in spec.predicates:
        if predicate.output_type(schema) is not SqlType.BOOLEAN:
            # interpreted FilterOperator raises; keep it interpreted
            raise NonCompilable(f"predicate is not boolean: {predicate}")
        text = emit(predicate, builder)
        references = predicate.referenced_columns()
        if not references:
            # constant predicate: the (1,) const must become a (n,) mask
            text = f"np.broadcast_to({text}, n)"
        predicate_texts.append(text)
        predicate_refs.append(
            {schema.position_of(name) for name in references}
        )

    output_texts: list[str] = []
    output_refs: set[int] = set()
    guarded: list[bool] = []
    for output in spec.outputs:
        text = emit_output(output.expression, builder)
        if output.dtype is not None:
            text = (
                f"({text}).astype(np.dtype({output.dtype.name!r}), "
                "copy=False)"
            )
        if not output.expression.referenced_columns() and not isinstance(
            output.expression, Literal
        ):
            # constant-folded expression: (1,) result -> writable (n,)
            text = f"np.broadcast_to({text}, n).copy()"
        output_texts.append(text)
        output_refs |= {
            schema.position_of(name)
            for name in output.expression.referenced_columns()
        }
        alias = aliasing_column(output.expression)
        guarded.append(alias is not None and alias in spec.transient)

    track_narrowing = any(guarded) and bool(spec.predicates)

    lines = [f"# kernel: {spec.label}"]
    lines.extend(spec.header)
    lines.extend(builder.header)
    lines.append("")
    lines.append("def kernel(arrays, n, cancel, params):")
    lines.append("    if cancel is not None:")
    lines.append("        cancel.check()")
    lines.extend(builder.parameter_lines)
    for position in sorted(builder.used_positions):
        lines.append(f"    c{position} = arrays[{position}]")
    if track_narrowing:
        lines.append("    narrowed = False")
    if len(predicate_texts) > 1:
        lines.append("    pending = None")
    for index, text in enumerate(predicate_texts):
        last = index + 1 == len(predicate_texts)
        surviving = output_refs.union(*predicate_refs[index + 1:], set())
        narrow = sorted(surviving & builder.used_positions)
        lines.append(f"    # filter {index + 1}/{len(predicate_texts)}")
        lines.append(f"    m = {text}")
        if index > 0:
            lines.append("    if pending is not None:")
            lines.append("        m = m & pending")
            lines.append("        pending = None")
        lines.append("    if not m.all():")
        lines.append("        kept = np.count_nonzero(m)")
        lines.append("        if kept == 0:")
        lines.append("            return None")
        # Adaptive narrowing: gather only a selective mask; defer an
        # unselective one into the next conjunct's `&` instead.  The
        # last conjunct always gathers — outputs need narrowed columns.
        indent = "        "
        if not last:
            lines.append("        if 2 * kept <= n:")
            indent = "            "
        if track_narrowing:
            lines.append(indent + "narrowed = True")
        lines.append(indent + "sel = np.flatnonzero(m)")
        lines.append(indent + "n = kept")
        for position in narrow:
            lines.append(indent + f"c{position} = c{position}[sel]")
        if not last:
            lines.append("        else:")
            lines.append("            pending = m")
    for index, output in enumerate(spec.outputs):
        lines.append(f"    # output {output.name}")
        lines.append(f"    o{index} = {output_texts[index]}")
        if guarded[index]:
            # pass-through of a reused-buffer view: detach unless the
            # gather above already materialized a fresh array
            if track_narrowing:
                lines.append("    if not narrowed:")
                lines.append(f"        o{index} = o{index}.copy()")
            else:
                lines.append(f"    o{index} = o{index}.copy()")
    returns = ", ".join(f"o{index}" for index in range(len(spec.outputs)))
    lines.append(f"    return [{returns}]")
    return "\n".join(lines) + "\n", builder


def generate_expression_source(
    expression: Expression, schema: Schema
) -> tuple[str, dict, tuple]:
    """Source, bindings and parameter values of a single compiled
    expression (``CompiledExpr``)."""
    source, builder = _expression_source(expression, schema)
    return source, builder.bindings, tuple(builder.parameters)


def _expression_source(
    expression: Expression, schema: Schema
) -> tuple[str, SourceBuilder]:
    builder = SourceBuilder(schema)
    text = emit_output(expression, builder)
    if not expression.referenced_columns() and not isinstance(
        expression, Literal
    ):
        # constant-folded expression: (1,) result -> writable (n,)
        text = f"np.broadcast_to({text}, n).copy()"
    lines = list(builder.header)
    lines.append("def expr(arrays, n, params):")
    lines.extend(builder.parameter_lines)
    for position in sorted(builder.used_positions):
        lines.append(f"    c{position} = arrays[{position}]")
    lines.append(f"    return {text}")
    return "\n".join(lines) + "\n", builder


def _render_parameter(value: object) -> str:
    if isinstance(value, np.ndarray):  # a VARCHAR literal's (1,) array
        value = value[0]
    elif isinstance(value, np.generic):
        value = value.item()
    return repr(value)


class CompiledFunction:
    """Generated source, its exec'd function and one query's parameters.

    The function is shared through the kernel cache by every statement
    with the same literal-free source; *params* are this statement's
    literal values, passed to every call.
    """

    __slots__ = ("source", "function", "params", "label")

    def __init__(self, source: str, function, params: tuple, label: str):
        self.source = source
        self.function = function
        self.params = params
        self.label = label

    @property
    def listing(self) -> str:
        """The source plus, as a trailing comment, the parameter values
        (what EXPLAIN prints; the comment is not part of the cache key)."""
        if not self.params:
            return self.source
        values = ", ".join(
            f"k{index}={_render_parameter(value)}"
            for index, value in enumerate(self.params)
        )
        return f"{self.source}# params: {values}\n"


class FusedKernel(CompiledFunction):
    """A compiled pipeline kernel: ``(arrays, n, cancel) -> list | None``.

    ``None`` means every row of the batch was filtered out.  The call
    path fires the ``compile.kernel`` fault site and wraps unexpected
    errors as :class:`~repro.errors.KernelExecutionError`; cooperative
    cancellation passes through untouched.
    """

    __slots__ = ()

    def __call__(self, arrays, n, cancel=None):
        try:
            if faults.ACTIVE is not None:
                faults.ACTIVE.fire("compile.kernel")
            return self.function(arrays, n, cancel, self.params)
        except QueryTimeoutError:
            raise
        except Exception as error:
            raise KernelExecutionError(
                f"compiled kernel {self.label!r} failed: {error}"
            ) from error


class CompiledExpr(CompiledFunction):
    """One scalar/predicate expression compiled to a vectorized callable."""

    __slots__ = ()

    def evaluate(self, batch) -> np.ndarray:
        try:
            if faults.ACTIVE is not None:
                faults.ACTIVE.fire("compile.kernel")
            return self.function(batch.arrays, len(batch), self.params)
        except QueryTimeoutError:
            raise
        except Exception as error:
            raise KernelExecutionError(
                f"compiled expression {self.label!r} failed: {error}"
            ) from error


class CompiledKernelCache:
    """Engine-lifetime LRU of exec'd kernel functions keyed by source.

    The source is literal-free and embeds the fused model table's
    ``uid``/``version`` header, so plain text equality is the correct
    reuse and invalidation rule: fresh literals hit, while bumping a
    model table makes its epilogue kernels miss, just as the
    ModelCache misses on a model version bump.
    """

    def __init__(self, capacity: int = 256):
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, object] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, source: str):
        with self._lock:
            entry = self._entries.get(source)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(source)
            self.hits += 1
            return entry

    def put(self, source: str, kernel) -> None:
        with self._lock:
            self._entries[source] = kernel
            self._entries.move_to_end(source)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


@dataclass(eq=False, frozen=True)
class KernelRecord:
    """What one compile request of a lowering produced, kept by a plan
    template so a later statement of the same shape skips codegen.

    ``parameters`` holds, per kernel parameter, the
    :class:`~repro.db.compile.codegen.LiteralParameter` naming the
    literal slot it reads, or the value itself for a literal the
    planner made.
    """

    #: the exec'd function's name: "kernel" or "expr"
    entry: str
    source: str
    bindings: dict
    parameters: tuple

    def params(self, values: tuple) -> tuple:
        """This record's parameters for a statement's literal *values*
        (raises NonCompilableLiteral for a value with no compiled form,
        exactly where codegen would have)."""
        return tuple(
            parameter.value(values)
            if isinstance(parameter, LiteralParameter)
            else parameter
            for parameter in self.parameters
        )


_EXHAUSTED = object()


class KernelReplayError(Exception):
    """Internal signal: a template's kernels do not fit this statement
    (a literal value has no compiled form); lower with codegen instead."""


@dataclass
class KernelCompiler:
    """Front-end the lowering uses to build kernels.

    Returns ``None`` (keep the interpreted operator) for anything
    :class:`NonCompilable`; source that fails to ``exec`` records a
    failure on the compile circuit breaker and also falls back, so a
    code-generator bug degrades to interpreted execution instead of
    failing queries.

    With *records* set, every request also appends its
    :class:`KernelRecord` (None: kept interpreted) for the plan cache.
    ``replayable`` turns False when a request failed on a literal's
    value or on ``exec``: outcomes a template must not replay (another
    value may compile; a failed exec must reach the breaker again).
    """

    cache: CompiledKernelCache | None = None
    metrics: object | None = None
    tracer: object = NULL_TRACER
    breaker: object | None = None
    records: list | None = None
    compiled_count: int = field(default=0, init=False)
    replayable: bool = field(default=True, init=False)

    def compile_kernel(self, spec: KernelSpec) -> FusedKernel | None:
        compiled = self._compile("kernel", lambda: _kernel_source(spec))
        if compiled is None:
            return None
        source, function, params = compiled
        return FusedKernel(source, function, params, label=spec.label)

    def compile_expression(
        self, expression: Expression, schema: Schema
    ) -> CompiledExpr | None:
        compiled = self._compile(
            "expr", lambda: _expression_source(expression, schema)
        )
        if compiled is None:
            return None
        source, function, params = compiled
        return CompiledExpr(source, function, params, label=str(expression))

    def _compile(self, entry: str, render):
        """(source, function, params) of one request, or None."""
        compiled = record = None
        try:
            source, builder = render()
        except NonCompilableLiteral:
            self.replayable = False
        except Exception:  # NonCompilable, or a generator bug
            pass
        else:
            try:
                function = self._function(source, builder.bindings, entry)
            except KernelCompileError:
                self.replayable = False
            else:
                record = KernelRecord(
                    entry,
                    source,
                    builder.bindings,
                    tuple(
                        value if parameter is None else parameter
                        for value, parameter in zip(
                            builder.parameters, builder.parameter_sources
                        )
                    ),
                )
                compiled = source, function, tuple(builder.parameters)
        if self.records is not None:
            self.records.append(record)
        return compiled

    def _function(self, source: str, bindings: dict, entry: str):
        """The exec'd *entry* function of *source*, cached by text."""
        if self.metrics is not None:
            self.metrics.counter("compile.requests").increment()
        if self.cache is not None:
            cached = self.cache.get(source)
            if cached is not None:
                if self.metrics is not None:
                    self.metrics.counter("compile.cache_hit").increment()
                return cached
        started = time.perf_counter()
        try:
            with self.tracer.span(
                f"compile.{entry}", category="compile",
                args={"chars": len(source)},
            ):
                namespace = dict(bindings)
                code = compile(source, "<repro.db.compile>", "exec")
                exec(code, namespace)  # noqa: S102 - engine-generated source
                function = namespace[entry]
        except Exception as error:
            if self.breaker is not None:
                self.breaker.record_failure()
            if self.metrics is not None:
                self.metrics.counter("compile.errors").increment()
            raise KernelCompileError(
                f"generated kernel failed to compile: {error}"
            ) from error
        elapsed = time.perf_counter() - started
        self.compiled_count += 1
        if self.metrics is not None:
            self.metrics.histogram("compile.time").observe(elapsed)
        if self.cache is not None:
            self.cache.put(source, function)
        return function


@dataclass
class ReplayCompiler(KernelCompiler):
    """Answers a lowering's compile requests from a plan template's
    :class:`KernelRecord` list instead of generating source.

    The lowering of an instantiated template issues the same requests
    in the same order as the lowering that recorded them, so request
    *i* takes record *i*: its function comes from the kernel cache by
    the stored source text (exec'd again only if evicted) and its
    parameters from this statement's literal *values*.
    """

    replay: tuple = ()
    values: tuple = ()

    def __post_init__(self) -> None:
        self._pending = iter(self.replay)

    def _compile(self, entry: str, render):
        """Request *i* of the lowering answered by record *i* (*render*,
        the codegen the request would run, is not called)."""
        record = next(self._pending, _EXHAUSTED)
        if record is None:
            return None
        if record is _EXHAUSTED or record.entry != entry:
            raise KernelReplayError(f"no recorded {entry} for this request")
        try:
            params = record.params(self.values)
        except NonCompilableLiteral as error:
            raise KernelReplayError(str(error)) from error
        function = self._function(record.source, record.bindings, entry)
        return record.source, function, params
