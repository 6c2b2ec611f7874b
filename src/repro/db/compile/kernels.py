"""Compiled kernels: specs, the LRU cache, and the compiler front-end.

A :class:`KernelSpec` describes one fused pipeline segment — optional
filter conjuncts plus a list of outputs over one input schema, led for
a ModelJoin by the model's forward pass (``KernelSpec.model``).  The
compiler renders it to literal-free Python source plus the tuple of
literal values (:func:`generate_kernel_source`), ``exec``'s the source
once, and wraps the resulting function and this query's values in a
:class:`FusedKernel` whose call path adds the ``compile.kernel`` fault
site and converts unexpected errors into
:class:`~repro.errors.KernelExecutionError` so the engine's one-shot
fallback can revert the query to the interpreted path.  A spec with no
generated form — or any spec, when compilation is off — gets an
:class:`InterpretedKernel` with the same call contract, which walks the
expression trees and is the oracle the generated kernels must match.

Exec'd functions are cached engine-lifetime in a
:class:`CompiledKernelCache` keyed on the generated source text.  The
text carries no literal values, so a statement re-run with fresh
literals hits, and so does a ModelJoin kernel for any batch length.  It
does carry, for a ModelJoin, the model table's ``uid``/``version`` and
the device kind, so a model republish or version bump misses the cache
exactly like the ModelCache keying, and the registration number of
every bound function, so a re-registered UDF misses it too.

A compiled plan keeps its kernels as they were generated: a
:class:`FusedKernel` holds its function and, per parameter, the literal
slot it reads.  When the kernel's operator opens, :meth:`FusedKernel.bind`
reads the parameters from the statement's literal values — no codegen,
no cache lookup.  A value with no compiled form (NaN, an integer outside
int64) binds the spec's :class:`InterpretedKernel` instead, for that
statement only.
"""

from __future__ import annotations

import textwrap
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.db import faults
from repro.db.compile.codegen import (
    NonCompilable,
    SourceBuilder,
    aliasing_column,
    emit,
    emit_output,
    parameter_values,
)
from repro.db.expressions import Expression, Literal, calls_per_vector
from repro.db.schema import Schema
from repro.db.tracing import NULL_TRACER
from repro.db.types import SqlType
from repro.db.vector import VectorBatch
from repro.errors import (
    DeviceError,
    ExecutionError,
    KernelCompileError,
    KernelExecutionError,
    QueryTimeoutError,
    TypeMismatchError,
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
    #: the ModelJoin's model-table identity and device kind)
    header: tuple[str, ...] = ()
    label: str = "pipeline"
    #: a ModelJoin forward (``ModelForward``) run first, its predictions
    #: the last columns of *schema*; the kernel then takes the
    #: operator's inference state (and the packed inputs, see
    #: ``ModelForward.packed``) as its last arguments
    model: object | None = None
    #: a selection kernel: no outputs, it returns which rows pass — None
    #: for every row, else their positions (possibly none)
    selection: bool = False

    def calls_per_vector(self) -> bool:
        """Whether a predicate or output calls a per-vector function."""
        return any(
            calls_per_vector(expression)
            for expression in self.predicates
            + tuple(output.expression for output in self.outputs)
        )


def project_outputs(
    expressions, names, schema: Schema
) -> tuple[KernelOutput, ...]:
    """Projection outputs: each value is cast to its output column's
    storage dtype, except VARCHAR results, which stay object arrays
    untouched."""
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
    parameter values the source reads (one per literal occurrence, with
    the values the literals were parsed with).

    Raises :class:`~repro.db.compile.codegen.NonCompilable` when any
    piece of the spec has no exact compiled form.
    """
    source, builder = _kernel_source(spec)
    return (
        source,
        builder.bindings,
        parameter_values(tuple(builder.parameters), None),
    )


def has_generated_form(spec: KernelSpec) -> bool:
    """Whether *spec* renders to source (codegen may be off)."""
    try:
        _kernel_source(spec)
    except Exception:  # NonCompilable, or a generator bug
        return False
    return True


def _kernel_source(spec: KernelSpec) -> tuple[str, SourceBuilder]:
    schema = spec.schema
    builder = SourceBuilder(schema)

    predicate_texts: list[str] = []
    predicate_refs: list[set[int]] = []
    for predicate in spec.predicates:
        if predicate.output_type(schema) is not SqlType.BOOLEAN:
            # the interpreted kernel raises ExecutionError for it
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
    model = spec.model
    predictions = len(schema) - (model.output_width if model else 0)
    selection = spec.selection

    lines = [f"# kernel: {spec.label}"]
    lines.extend(spec.header)
    lines.extend(builder.header)
    lines.append("")
    state = model.arguments if model is not None else ""
    lines.append(f"def kernel(arrays, n, cancel, params{state}):")
    start = len(lines)
    lines.append("    if cancel is not None:")
    lines.append("        cancel.check()")
    lines.extend(builder.parameter_lines)
    if model is not None:
        lines.append(model.source().rstrip("\n"))
    for position in sorted(builder.used_positions):
        if position < predictions:
            lines.append(f"    c{position} = arrays[{position}]")
        else:  # a prediction: a column view of the result matrix
            lines.append(f"    c{position} = y[:, {position - predictions}]")
    if track_narrowing:
        lines.append("    narrowed = False")
    if selection:
        lines.append("    pos = None")
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
        lines.append(
            "            return "
            + ("np.empty(0, np.intp)" if selection else "None")
        )
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
        if selection:
            # the positions of the rows left, in the input's numbering
            lines.append(indent + "pos = sel" + (
                "" if index == 0 else " if pos is None else pos[sel]"
            ))
        if not (selection and last):
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
    lines.append("    return pos" if selection else f"    return [{returns}]")
    if builder.float_arithmetic:
        # IEEE results without a warning: an overflow is ±inf, 0 * inf
        # NaN, x / 0 ±inf and 0 / 0 NaN (docs/API.md)
        lines[start:] = [
            "    with np.errstate(over='ignore', divide='ignore', "
            "invalid='ignore'):",
            *(textwrap.indent(line, "    ") for line in lines[start:]),
        ]
    return "\n".join(lines) + "\n", builder


def _render_parameter(value: object) -> str:
    if isinstance(value, np.ndarray):  # a VARCHAR literal's (1,) array
        value = value[0]
    elif isinstance(value, np.generic):
        value = value.item()
    return repr(value)


class _Kernel:
    """What both kernel kinds share: :meth:`outputs` over a batch."""

    __slots__ = ()

    #: the kernel calls a UDF, which the paper calls once per vector
    per_vector: bool

    def bind(self, values: tuple | None) -> "_Kernel":
        """The kernel one statement runs: this one reading that
        statement's literal *values* (None: the values its literals were
        parsed with)."""
        raise NotImplementedError

    def outputs(self, batch: VectorBatch, vector_size: int, cancel=None):
        """The output arrays of each kernel call over *batch*: one call,
        or one per *vector_size* rows when the kernel calls a UDF.
        Calls whose filter drops every row yield nothing."""
        pieces = batch.pieces(vector_size) if self.per_vector else (batch,)
        for piece in pieces:
            if len(piece):
                arrays = self(piece.arrays, len(piece), cancel)
                if arrays is not None:
                    yield arrays


class FusedKernel(_Kernel):
    """A generated pipeline kernel: ``(arrays, n, cancel) -> list | None``.

    ``None`` means every row of the batch was filtered out.  The exec'd
    function is shared through the kernel cache by every statement with
    the same literal-free source.  A compiled plan's kernel holds, per
    parameter, the literal slot it reads (*parameters*);
    :meth:`bind` gives the kernel of one statement, whose *params* are
    passed to every call.  The call path fires the ``compile.kernel``
    fault site and wraps unexpected errors as
    :class:`~repro.errors.KernelExecutionError`; cooperative
    cancellation passes through untouched.
    """

    __slots__ = (
        "spec", "source", "function", "parameters", "per_vector", "params"
    )

    #: generated source (EXPLAIN prints it; the query counts as compiled)
    generated = True

    def __init__(
        self,
        spec: KernelSpec,
        source: str,
        function,
        parameters: tuple,
        per_vector: bool = False,
    ):
        self.spec = spec
        self.source = source
        self.function = function
        #: per parameter, its LiteralParameter or a planner literal's
        #: value (see codegen.parameter_values)
        self.parameters = parameters
        self.per_vector = per_vector
        #: the parameter values: the bound statement's, else those of the
        #: literals as written (None when one has no compiled form)
        try:
            self.params = parameter_values(parameters, None)
        except NonCompilable:
            self.params = None

    def bind(self, values: tuple | None) -> _Kernel:
        if not self.parameters:  # reads no literal: every statement's
            return self
        try:
            params = parameter_values(self.parameters, values)
        except NonCompilable:
            # a value with no compiled form: this statement interprets
            return InterpretedKernel(self.spec).bind(values)
        bound = object.__new__(FusedKernel)
        bound.spec, bound.source, bound.function = (
            self.spec, self.source, self.function
        )
        bound.parameters, bound.per_vector = self.parameters, self.per_vector
        bound.params = params
        return bound

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

    def __call__(self, arrays, n, cancel=None, *model):
        # *model*: a ModelJoin's inference state, whose device errors
        # reach the operator's device fallback unwrapped
        try:
            if faults.ACTIVE is not None:
                faults.ACTIVE.fire("compile.kernel")
            return self.function(arrays, n, cancel, self.params, *model)
        except (QueryTimeoutError, TypeMismatchError):
            # a deadline, or the statement's own type error: the
            # interpreted kernel would raise it again
            raise
        except Exception as error:
            if model and (
                isinstance(error, DeviceError)
                or getattr(error, "site", "").startswith("device.")
            ):
                raise
            raise KernelExecutionError(
                f"compiled kernel {self.spec.label!r} failed: {error}"
            ) from error


class InterpretedKernel(_Kernel):
    """A spec run by walking its expression trees: the kernel of a
    segment with no generated form, of every segment when compilation
    is off, of a statement whose literal values have no compiled form,
    and the oracle the generated kernels match bit for bit.

    Same contract as :class:`FusedKernel`; the trees read the bound
    statement's literal *values*.  A ModelJoin spec runs its forward
    first, layer by layer (``spec.model.run``).  The predicates are
    evaluated over the whole batch, the outputs over the rows that
    pass; errors surface as they are, so a non-boolean predicate raises
    :class:`~repro.errors.ExecutionError`.
    """

    __slots__ = ("spec", "per_vector", "values")

    generated = False

    def __init__(self, spec: KernelSpec):
        self.spec = spec
        self.per_vector = spec.calls_per_vector()
        self.values = None

    def bind(self, values: tuple | None) -> _Kernel:
        bound = object.__new__(InterpretedKernel)
        bound.spec, bound.per_vector = self.spec, self.per_vector
        bound.values = values
        return bound

    def __call__(self, arrays, n, cancel=None, *model):
        if cancel is not None:
            cancel.check()
        spec = self.spec
        params = self.values
        if spec.model is not None:
            arrays = arrays + spec.model.run(arrays, n, *model)
        batch = VectorBatch(spec.schema, arrays)
        if spec.predicates:
            mask = None
            for predicate in spec.predicates:
                values = predicate.evaluate(batch, params)
                if values.dtype != np.bool_:
                    raise ExecutionError(
                        f"WHERE predicate is not boolean: {predicate}"
                    )
                mask = values if mask is None else mask & values
            if spec.selection:
                return None if mask.all() else np.flatnonzero(mask)
            if not mask.all():
                if not mask.any():
                    return None
                batch = batch.filter(mask)
        outputs = []
        for output in spec.outputs:
            values = output.expression.evaluate(batch, params)
            if output.dtype is not None:
                values = values.astype(output.dtype, copy=False)
            outputs.append(values)
        return outputs


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


@dataclass
class KernelCompiler:
    """Front-end the lowering asks for each segment's one kernel.

    :meth:`kernel` returns the generated :class:`FusedKernel` when
    *generate* is set and codegen succeeds, else the segment's
    :class:`InterpretedKernel`: anything :class:`NonCompilable`, and
    source that fails to ``exec`` — which also records a failure on the
    compile circuit breaker — degrades to interpretation instead of
    failing queries.  *generate* is off under
    ``use_compiled_kernels=False`` and while the breaker is open.

    ``reusable`` turns False when a request failed to ``exec``: an
    outcome a plan template must not keep (the next statement's request
    must reach the breaker again).
    """

    cache: CompiledKernelCache | None = None
    metrics: object | None = None
    tracer: object = NULL_TRACER
    breaker: object | None = None
    generate: bool = True
    compiled_count: int = field(default=0, init=False)
    reusable: bool = field(default=True, init=False)

    def kernel(self, spec: KernelSpec) -> FusedKernel | InterpretedKernel:
        """The kernel one pipeline segment runs."""
        kernel = self.compile_kernel(spec) if self.generate else None
        return kernel if kernel is not None else InterpretedKernel(spec)

    def compile_kernel(self, spec: KernelSpec) -> FusedKernel | None:
        """The generated kernel of *spec*, or None."""
        try:
            source, builder = _kernel_source(spec)
        except Exception:  # NonCompilable, or a generator bug
            return None
        try:
            function = self._function(source, builder.bindings)
        except KernelCompileError:
            self.reusable = False
            return None
        return FusedKernel(
            spec,
            source,
            function,
            tuple(builder.parameters),
            spec.calls_per_vector(),
        )

    def _function(self, source: str, bindings: dict):
        """The exec'd ``kernel`` function of *source*, cached by text."""
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
                "compile.kernel", category="compile",
                args={"chars": len(source)},
            ):
                namespace = dict(bindings)
                code = compile(source, "<repro.db.compile>", "exec")
                exec(code, namespace)  # noqa: S102 - engine-generated source
                function = namespace["kernel"]
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
