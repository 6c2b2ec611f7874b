"""Generated kernels against the interpreted kernel, spec by spec.

Every pipeline segment runs one kernel: the generated ``FusedKernel``
when codegen has an exact form, else the ``InterpretedKernel``, which
walks the expression trees and is the oracle.  Hypothesis builds
``KernelSpec``s — predicates with CASE, casts, functions, VARCHAR
comparisons and constant conjuncts; outputs with projection coercion,
raw aggregate inputs and pass-throughs of transient (reused-buffer)
columns — and draws batches holding NaN, ±inf, −0.0 and empty ones.
Both kernels must return ``None`` on the same batches and otherwise
arrays of identical dtype and bytes; a predicate that is not boolean
must raise the same error class whichever kernel the compiler picks.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.db.compile import (
    InterpretedKernel,
    KernelCompiler,
    KernelOutput,
    KernelSpec,
    project_outputs,
)
from repro.db.expressions import (
    BinaryOp,
    CaseWhen,
    Cast,
    ColumnRef,
    FunctionCall,
    Literal,
    UnaryOp,
)
from repro.db.schema import Column, Schema
from repro.db.types import SqlType
from repro.errors import ExecutionError

SCHEMA = Schema(
    (
        Column("i", SqlType.INTEGER),
        Column("f", SqlType.DOUBLE),
        Column("g", SqlType.FLOAT),
        Column("b", SqlType.BOOLEAN),
        Column("s", SqlType.VARCHAR),
        Column("p", SqlType.DOUBLE),
    )
)

#: "p" stands for a ModelJoin prediction column backed by a reused buffer
TRANSIENT = frozenset({"p"})

SPECIAL_FLOATS = (np.nan, np.inf, -np.inf, -0.0, 0.0, 1.5, -2.25, 1e300)

floats = st.one_of(
    st.sampled_from(SPECIAL_FLOATS),
    st.floats(-1e3, 1e3, allow_nan=False, width=32),
)

# ----------------------------------------------------------------------
# expressions
# ----------------------------------------------------------------------
numeric_leaves = st.one_of(
    st.sampled_from([ColumnRef("i"), ColumnRef("f"), ColumnRef("g")]),
    st.sampled_from([ColumnRef("p")]),
    st.integers(-3, 3).map(lambda value: Literal(value, SqlType.INTEGER)),
    st.sampled_from([0.5, -0.0, 2.0, np.inf]).map(
        lambda value: Literal(value, SqlType.DOUBLE)
    ),
)


def _numeric(children, booleans):
    return st.one_of(
        st.tuples(st.sampled_from("+-*/"), children, children).map(
            lambda args: BinaryOp(*args)
        ),
        children.map(lambda operand: UnaryOp("-", operand)),
        st.tuples(
            st.sampled_from([SqlType.DOUBLE, SqlType.FLOAT, SqlType.INTEGER]),
            children,
        ).map(lambda args: Cast(args[1], args[0])),
        st.tuples(
            st.sampled_from(["ABS", "SQRT", "EXP", "FLOOR"]), children
        ).map(lambda args: FunctionCall(args[0], (args[1],))),
        st.tuples(children, children).map(
            lambda args: FunctionCall("GREATEST", args)
        ),
        st.tuples(
            st.lists(st.tuples(booleans, children), min_size=1, max_size=2),
            st.none() | children,
        ).map(lambda args: CaseWhen(tuple(args[0]), args[1])),
    )


def _booleans(numeric):
    comparisons = st.tuples(
        st.sampled_from(["=", "<>", "<", "<=", ">", ">="]), numeric, numeric
    ).map(lambda args: BinaryOp(*args))
    strings = st.tuples(
        st.sampled_from(["=", "<", ">="]),
        st.sampled_from(["", "a", "b", "ab"]),
    ).map(
        lambda args: BinaryOp(
            args[0], ColumnRef("s"), Literal(args[1], SqlType.VARCHAR)
        )
    )
    leaves = st.one_of(
        comparisons,
        strings,
        st.just(ColumnRef("b")),
        st.booleans().map(lambda value: Literal(value, SqlType.BOOLEAN)),
    )
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.tuples(st.sampled_from(["AND", "OR"]), children, children).map(
                lambda args: BinaryOp(*args)
            ),
            children.map(lambda operand: UnaryOp("NOT", operand)),
        ),
        max_leaves=3,
    )


simple_booleans = _booleans(numeric_leaves)
numerics = st.recursive(
    numeric_leaves,
    lambda children: _numeric(children, simple_booleans),
    max_leaves=4,
)
booleans = _booleans(numerics)


@st.composite
def specs(draw):
    predicates = tuple(draw(st.lists(booleans, max_size=3)))
    expressions = draw(
        st.lists(
            st.one_of(
                numerics,
                booleans,
                st.sampled_from([ColumnRef(name) for name in SCHEMA.names]),
            ),
            min_size=1,
            max_size=4,
        )
    )
    names = [f"o{index}" for index in range(len(expressions))]
    if draw(st.booleans()):
        # a projection: outputs coerced to their column's storage dtype
        outputs = project_outputs(expressions, names, SCHEMA)
    else:
        # aggregate inputs / filter pass-through: raw evaluation results
        outputs = tuple(
            KernelOutput(name, expression)
            for name, expression in zip(names, expressions)
        )
    return KernelSpec(
        schema=SCHEMA,
        predicates=predicates,
        outputs=outputs,
        transient=TRANSIENT,
        label="differential",
    )


@st.composite
def batches(draw):
    n = draw(st.sampled_from([0, 1, 2, 5, 17]))

    def column(elements, dtype):
        values = draw(st.lists(elements, min_size=n, max_size=n))
        with np.errstate(over="ignore"):  # 1e300 becomes float32 inf
            return np.array(values, dtype=dtype)

    return [
        column(st.integers(-4, 4), np.int64),
        column(floats, np.float64),
        column(floats, np.float32),
        column(st.booleans(), np.bool_),
        column(st.sampled_from(["", "a", "b", "ab", "ba"]), object),
        column(floats, np.float64),
    ]


def _assert_identical(generated, interpreted):
    if interpreted is None:
        assert generated is None
        return
    assert generated is not None
    assert len(generated) == len(interpreted)
    for left, right in zip(generated, interpreted):
        assert left.dtype == right.dtype
        assert left.shape == right.shape
        if left.dtype == object:
            assert list(left) == list(right)
        else:
            assert left.tobytes() == right.tobytes()


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(specs(), st.lists(batches(), min_size=1, max_size=3))
def test_generated_kernel_matches_the_interpreted_kernel(spec, drawn):
    generated = KernelCompiler().compile_kernel(spec)
    assert generated is not None, spec
    interpreted = InterpretedKernel(spec)
    with np.errstate(all="ignore"):
        for arrays in drawn:
            n = len(arrays[0])
            want = interpreted([array.copy() for array in arrays], n)
            inputs = [array.copy() for array in arrays]
            got = generated(inputs, n)
            _assert_identical(got, want)
            if got is not None:
                # a transient pass-through never aliases the reused buffer
                for output, array in zip(spec.outputs, got):
                    if output.expression == ColumnRef("p"):
                        assert not np.shares_memory(array, inputs[5])


def test_all_false_and_constant_predicates():
    arrays = [
        np.arange(4, dtype=np.int64),
        np.array([np.nan, -0.0, np.inf, 1.0]),
        np.ones(4, dtype=np.float32),
        np.array([True, False, True, False]),
        np.array(["a", "b", "", "ab"], dtype=object),
        np.zeros(4),
    ]
    outputs = (KernelOutput("f", ColumnRef("f")),)
    cases = {
        "all false": (
            BinaryOp(">", ColumnRef("i"), Literal(9, SqlType.INTEGER)),
        ),
        "constant false": (Literal(False, SqlType.BOOLEAN),),
        "constant true": (Literal(True, SqlType.BOOLEAN),),
        "nan never passes": (
            BinaryOp("=", ColumnRef("f"), ColumnRef("f")),
            BinaryOp("<", ColumnRef("f"), Literal(0.5, SqlType.DOUBLE)),
        ),
    }
    for label, predicates in cases.items():
        spec = KernelSpec(SCHEMA, predicates, outputs, label=label)
        generated = KernelCompiler().compile_kernel(spec)
        want = InterpretedKernel(spec)(arrays, 4)
        _assert_identical(generated(arrays, 4), want)
    assert want[0].tobytes() == np.array([-0.0]).tobytes()


@pytest.mark.parametrize(
    "predicate",
    [
        ColumnRef("i"),
        BinaryOp("+", ColumnRef("f"), ColumnRef("g")),
        BinaryOp("AND", ColumnRef("i"), ColumnRef("b")),
        UnaryOp("NOT", ColumnRef("f")),
    ],
    ids=str,
)
def test_non_boolean_predicate_raises_the_same_error(predicate):
    spec = KernelSpec(
        SCHEMA, (predicate,), (KernelOutput("i", ColumnRef("i")),)
    )
    arrays = [
        np.arange(3, dtype=np.int64),
        np.ones(3),
        np.ones(3, dtype=np.float32),
        np.ones(3, dtype=np.bool_),
        np.array(["a", "b", "c"], dtype=object),
        np.zeros(3),
    ]
    raised = []
    for generate in (True, False):
        kernel = KernelCompiler(generate=generate).kernel(spec)
        with pytest.raises(Exception) as error:
            kernel(arrays, 3)
        raised.append(type(error.value))
    assert raised == [ExecutionError, ExecutionError]
