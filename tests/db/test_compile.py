"""The pipeline-fusing query compiler (docs/COMPILE.md).

Covers the generated-source shape (golden tests), bit-exactness of the
compiled path against the interpreted path — including NaN edge cases,
disk-backed tables and all six ModelJoin execution variants — the
source-keyed kernel cache (hits, LRU eviction, invalidation on a model
table republish), literals as kernel parameters (statements differing
only in literal values share one literal-free kernel, bit-exact for
every literal kind), and the resilience contract: injected kernel faults
fall back to interpreted execution once, repeated failures open the
compile circuit breaker, and cancellation propagates as a timeout.
"""

import dataclasses

import numpy as np
import pytest

import repro
from repro.db import faults
from repro.db.compile import (
    CompiledKernelCache,
    KernelCompiler,
    KernelOutput,
    KernelSpec,
    NonCompilable,
    generate_kernel_source,
)
from repro.db.compile.codegen import SourceBuilder, emit
from repro.db.engine import Database
from repro.db.expressions import BinaryOp, Cast, ColumnRef, Literal
from repro.db.faults import FaultInjector
from repro.db.planner import PlannerOptions
from repro.db.resilience import CancellationToken
from repro.db.schema import Column, Schema
from repro.db.types import SqlType
from repro.db.udf import PythonUdf, register_udf
from repro.bench.variants import BenchEnvironment, make_variant
from repro.core.registry import publish_model
from repro.errors import KernelExecutionError, QueryTimeoutError
from repro.workloads.models import make_dense_model, make_lstm_model


# reopens persistent databases: runs again under `python -X dev` with
# ResourceWarnings as errors
pytestmark = pytest.mark.leak_guard

@pytest.fixture(autouse=True)
def no_leaked_injector():
    yield
    faults.uninstall()


def run_both(db: Database, sql: str, parallel: bool = False):
    """Execute *sql* compiled and interpreted; return both results."""
    saved = db.planner_options
    db.planner_options = dataclasses.replace(
        saved, use_compiled_kernels=True
    )
    compiled = db.execute(sql, parallel=parallel)
    db.planner_options = dataclasses.replace(
        saved, use_compiled_kernels=False
    )
    interpreted = db.execute(sql, parallel=parallel)
    db.planner_options = saved
    return compiled, interpreted


def assert_bit_exact(compiled, interpreted):
    assert compiled.schema.names == interpreted.schema.names
    assert compiled.row_count == interpreted.row_count
    for name in compiled.schema.names:
        left = compiled.column(name)
        right = interpreted.column(name)
        assert left.dtype == right.dtype, name
        if left.dtype == np.dtype(object):
            assert list(left) == list(right), name
        else:
            assert left.tobytes() == right.tobytes(), name


@pytest.fixture
def table_db(db: Database) -> Database:
    db.execute(
        "CREATE TABLE t (id INTEGER, grp INTEGER, a DOUBLE, b DOUBLE)"
    )
    rng = np.random.default_rng(3)
    n = 4000
    a = rng.normal(size=n)
    a[::17] = np.nan  # NaN edge cases flow through filters and SUMs
    db.table("t").append_columns(
        id=np.arange(n, dtype=np.int64),
        grp=rng.integers(0, 7, size=n),
        a=a,
        b=rng.normal(size=n),
    )
    return db


# ----------------------------------------------------------------------
# generated source (golden tests)
# ----------------------------------------------------------------------
GOLDEN_KERNEL = """\
# kernel: filter(1)+project(2)

def kernel(arrays, n, cancel, params):
    with np.errstate(over='ignore', divide='ignore', invalid='ignore'):
        if cancel is not None:
            cancel.check()
        k0 = params[0]  # float64
        c0 = arrays[0]
        c1 = arrays[1]
        # filter 1/1
        m = (c0 > k0)
        if not m.all():
            kept = np.count_nonzero(m)
            if kept == 0:
                return None
            sel = np.flatnonzero(m)
            n = kept
            c0 = c0[sel]
            c1 = c1[sel]
        # output x
        o0 = (c0 * c1)
        # output b
        o1 = (c1).astype(np.dtype('int64'), copy=False)
        return [o0, o1]
"""

def two_column_schema() -> Schema:
    return Schema(
        (Column("a", SqlType.DOUBLE), Column("b", SqlType.INTEGER))
    )


class TestGeneratedSource:
    def predicate(self):
        return BinaryOp(">", ColumnRef("a"), Literal(0.5, SqlType.DOUBLE))

    def test_kernel_source_golden(self):
        spec = KernelSpec(
            schema=two_column_schema(),
            predicates=(self.predicate(),),
            outputs=(
                KernelOutput(
                    "x",
                    BinaryOp("*", ColumnRef("a"), ColumnRef("b")),
                    None,
                ),
                KernelOutput("b", ColumnRef("b"), np.dtype("int64")),
            ),
            transient=frozenset(),
            header=(),
            label="filter(1)+project(2)",
        )
        source, _bindings, params = generate_kernel_source(spec)
        assert source == GOLDEN_KERNEL
        assert params == (0.5,)
        assert type(params[0]) is np.float64

    def test_one_parameter_per_literal_occurrence(self):
        # Equal literals are not merged: that would make the source
        # depend on whether the values happen to be equal.
        half = Literal(0.5, SqlType.DOUBLE)
        expression = BinaryOp(
            "+",
            BinaryOp("*", ColumnRef("a"), half),
            BinaryOp("*", ColumnRef("b"), half),
        )
        spec = KernelSpec(
            schema=two_column_schema(),
            outputs=(KernelOutput("x", expression, None),),
        )
        source, _, params = generate_kernel_source(spec)
        assert params == (0.5, 0.5)
        assert "k0 = params[0]  # float64" in source
        assert "k1 = params[1]  # float64" in source
        assert "0.5" not in source

    def test_varchar_cast_is_non_compilable(self):
        builder = SourceBuilder(two_column_schema())
        with pytest.raises(NonCompilable):
            emit(Cast(ColumnRef("a"), SqlType.VARCHAR), builder)

    def test_model_table_header_salts_the_source(self):
        spec = KernelSpec(
            schema=two_column_schema(),
            predicates=(),
            outputs=(KernelOutput("a", ColumnRef("a"), None),),
            transient=frozenset(),
            header=("# model-table: m uid=1 version=2",),
            label="project(1)",
        )
        source, _, _ = generate_kernel_source(spec)
        assert "# model-table: m uid=1 version=2" in source


# ----------------------------------------------------------------------
# bit-exactness vs the interpreted path
# ----------------------------------------------------------------------
class TestBitExactness:
    def test_expression_heavy_filter_project(self, table_db):
        compiled, interpreted = run_both(
            table_db,
            "SELECT id, a * b + 2.0 AS x, a / (b * b + 1.0) AS y "
            "FROM t WHERE a > 0.1 AND b < 1.5 AND id >= 10",
        )
        assert_bit_exact(compiled, interpreted)
        assert compiled.row_count > 0

    def test_fused_aggregate(self, table_db):
        compiled, interpreted = run_both(
            table_db,
            "SELECT grp, SUM(a * b) AS s, COUNT(*) AS c, MIN(b) AS lo "
            "FROM t WHERE b > -0.5 GROUP BY grp ORDER BY grp",
        )
        assert_bit_exact(compiled, interpreted)
        assert compiled.row_count == 7

    def test_nan_comparisons_filter_like_interpreted(self, table_db):
        # NaN > 0.1 is false; NaN <> NaN is true — both paths agree.
        compiled, interpreted = run_both(
            table_db, "SELECT id FROM t WHERE a > 0.1 ORDER BY id"
        )
        assert_bit_exact(compiled, interpreted)
        compiled, interpreted = run_both(
            table_db,
            "SELECT grp, COUNT(*) AS nan_rows FROM t WHERE a <> a "
            "GROUP BY grp ORDER BY grp",
        )
        assert_bit_exact(compiled, interpreted)
        assert compiled.column("nan_rows").sum() > 0

    def test_nan_propagates_through_sum(self, table_db):
        compiled, interpreted = run_both(
            table_db, "SELECT grp, SUM(a) AS s FROM t GROUP BY grp"
        )
        assert_bit_exact(compiled, interpreted)
        assert np.isnan(compiled.column("s")).all()

    def test_case_when_and_functions(self, table_db):
        compiled, interpreted = run_both(
            table_db,
            "SELECT id, CASE WHEN a > 0.0 THEN a ELSE 0.0 - a END AS m, "
            "ABS(b) AS ab FROM t WHERE id < 500",
        )
        assert_bit_exact(compiled, interpreted)

    def test_empty_selection(self, table_db):
        compiled, interpreted = run_both(
            table_db, "SELECT id, a FROM t WHERE id > 1000000"
        )
        assert_bit_exact(compiled, interpreted)
        assert compiled.row_count == 0

    def test_parallel_execution(self):
        db = Database(parallelism=4)
        db.execute(
            "CREATE TABLE p (id BIGINT, v DOUBLE) "
            "PARTITION BY (id) PARTITIONS 4"
        )
        rng = np.random.default_rng(5)
        db.table("p").append_columns(
            id=np.arange(8000, dtype=np.int64),
            v=rng.normal(size=8000),
        )
        compiled, interpreted = run_both(
            db,
            "SELECT id, v * v AS s FROM p WHERE v > -1.0 ORDER BY id",
            parallel=True,
        )
        assert_bit_exact(compiled, interpreted)
        db.close()

    def test_disk_backed_table(self, tmp_path):
        path = str(tmp_path / "db")
        db = repro.connect(path=path)
        db.execute(
            "CREATE TABLE d (id INTEGER, v DOUBLE) SORTED BY (id)"
        )
        rng = np.random.default_rng(9)
        db.table("d").append_columns(
            id=np.arange(6000, dtype=np.int64),
            v=rng.normal(size=6000),
        )
        db.close()
        reopened = repro.connect(path=path)
        assert reopened.table("d").disk_resident
        compiled, interpreted = run_both(
            reopened,
            "SELECT id, v * 2.0 AS w FROM d "
            "WHERE id >= 1000 AND id < 2000 AND v > 0.0",
        )
        assert_bit_exact(compiled, interpreted)
        assert "FusedPipeline" in reopened.explain(
            "SELECT id, v * 2.0 AS w FROM d WHERE id >= 1000"
        )
        reopened.close()

    @pytest.mark.parametrize(
        "legend",
        [
            "ModelJoin_CPU",
            "ModelJoin_GPU",
            "TF_CAPI_CPU",
            "TF_CPU",
            "UDF",
            "ML-To-SQL",
        ],
    )
    def test_all_modeljoin_variants_bit_exact(self, legend):
        predictions = {}
        for use_compiled in (True, False):
            db = repro.connect(
                planner_options=PlannerOptions(
                    use_compiled_kernels=use_compiled
                )
            )
            db.execute(
                "CREATE TABLE fact (id BIGINT, f0 FLOAT, f1 FLOAT, "
                "f2 FLOAT)"
            )
            rng = np.random.default_rng(21)
            db.table("fact").append_columns(
                id=np.arange(300, dtype=np.int64),
                f0=rng.random(300, dtype=np.float32),
                f1=rng.random(300, dtype=np.float32),
                f2=rng.random(300, dtype=np.float32),
            )
            model = make_dense_model(8, 2, input_width=3, seed=13)
            environment = BenchEnvironment(
                database=db,
                model=model,
                fact_table="fact",
                id_column="id",
                input_columns=["f0", "f1", "f2"],
                keep_predictions=True,
            )
            variant = make_variant(legend)
            variant.prepare(environment)
            predictions[use_compiled] = variant.run(
                environment
            ).predictions
            db.close()
        left, right = predictions[True], predictions[False]
        assert left is not None and right is not None
        np.testing.assert_array_equal(
            np.asarray(left), np.asarray(right)
        )


# ----------------------------------------------------------------------
# EXPLAIN and plan shape
# ----------------------------------------------------------------------
class TestExplain:
    def test_compiled_code_section(self, table_db):
        plan = table_db.explain(
            "SELECT id, a * b AS x FROM t WHERE a > 0.1"
        )
        assert "== Compiled Code ==" in plan
        assert "def kernel(arrays, n, cancel, params):" in plan
        assert plan.endswith("# params: k0=0.1")
        assert "FusedPipeline" in plan

    def test_interpreted_plan_has_no_compiled_section(self, table_db):
        table_db.planner_options = dataclasses.replace(
            table_db.planner_options, use_compiled_kernels=False
        )
        plan = table_db.explain(
            "SELECT id, a * b AS x FROM t WHERE a > 0.1"
        )
        assert "== Compiled Code ==" not in plan
        assert "FusedPipeline" not in plan

    def test_varchar_output_falls_back_to_operators(self, db):
        db.execute("CREATE TABLE s (id INTEGER, v DOUBLE)")
        db.execute("INSERT INTO s VALUES (1, 1.5), (2, 2.5)")
        plan = db.explain(
            "SELECT CAST(id AS VARCHAR) AS label FROM s WHERE v > 0.0"
        )
        # str() conversion stays interpreted: the projection keeps no
        # [compiled] marker and only the filter's kernel is listed
        (projection,) = [
            line for line in plan.splitlines() if "CAST(s.id" in line
        ]
        assert "[compiled]" not in projection
        assert plan.count("def kernel(") == 1
        compiled, interpreted = run_both(
            db, "SELECT CAST(id AS VARCHAR) AS label FROM s"
        )
        assert_bit_exact(compiled, interpreted)

    def test_epilogue_fusion_marks_modeljoin(self, cdb):
        cdb.execute(
            "CREATE TABLE f (id INTEGER, c0 FLOAT, c1 FLOAT, "
            "c2 FLOAT, c3 FLOAT)"
        )
        rng = np.random.default_rng(2)
        x = rng.normal(size=(40, 4)).astype(np.float32)
        cdb.table("f").append_columns(
            id=np.arange(40),
            c0=x[:, 0],
            c1=x[:, 1],
            c2=x[:, 2],
            c3=x[:, 3],
        )
        model = make_dense_model(8, 2, input_width=4, seed=7)
        publish_model(cdb, "clf", model)
        sql = (
            "SELECT id, prediction_0 + 1.0 AS score FROM f "
            "MODEL JOIN clf USING (c0, c1, c2, c3)"
        )
        plan = cdb.explain(sql)
        assert "[epilogue: fused]" in plan
        assert "# model-table:" in plan
        compiled, interpreted = run_both(cdb, sql)
        assert_bit_exact(compiled, interpreted)


# ----------------------------------------------------------------------
# kernel cache
# ----------------------------------------------------------------------
class TestKernelCache:
    def test_repeat_query_hits_cache(self, table_db):
        sql = "SELECT id, a + b AS s FROM t WHERE a > 0.0"
        table_db.execute(sql)
        hits_before = table_db.metrics.counter("compile.cache_hit").value
        # planned cold again (a plan-cache hit would ask for no kernel)
        table_db.plan_cache.clear()
        table_db.execute(sql)
        hits_after = table_db.metrics.counter("compile.cache_hit").value
        assert hits_after > hits_before
        assert len(table_db.kernel_cache) >= 1

    def test_lru_eviction(self):
        cache = CompiledKernelCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"
        cache.put("c", 3)  # evicts "b"
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.evictions == 1

    def test_model_republish_invalidates_epilogue_kernel(self, cdb):
        cdb.execute(
            "CREATE TABLE f (id INTEGER, c0 FLOAT, c1 FLOAT, "
            "c2 FLOAT, c3 FLOAT)"
        )
        rng = np.random.default_rng(4)
        x = rng.normal(size=(30, 4)).astype(np.float32)
        cdb.table("f").append_columns(
            id=np.arange(30),
            c0=x[:, 0],
            c1=x[:, 1],
            c2=x[:, 2],
            c3=x[:, 3],
        )
        publish_model(cdb, "clf", make_dense_model(8, 2, input_width=4, seed=1))
        sql = (
            "SELECT id, prediction_0 + 1.0 AS score FROM f "
            "MODEL JOIN clf USING (c0, c1, c2, c3)"
        )
        first = cdb.execute(sql)
        hits = cdb.metrics.counter("compile.cache_hit")
        warm_hits = hits.value
        cdb.plan_cache.clear()  # the repeat plans cold
        cdb.execute(sql)
        assert hits.value > warm_hits  # warm repeat hits the cache
        # Republish: new model table identity -> new source header ->
        # the stale epilogue kernel cannot be reused.
        publish_model(
            cdb, "clf", make_dense_model(8, 2, input_width=4, seed=2),
            replace=True,
        )
        requests = cdb.metrics.counter("compile.requests").value
        hits_before = hits.value
        second = cdb.execute(sql)
        assert cdb.metrics.counter("compile.requests").value > requests
        # the epilogue kernel recompiled (a non-epilogue kernel of the
        # same statement may still hit, but not all of them can)
        missed = (
            cdb.metrics.counter("compile.requests").value - requests
        ) - (hits.value - hits_before)
        assert missed >= 1
        # new weights -> different scores (sanity that we re-ran truly)
        assert first.column("score").tobytes() != second.column(
            "score"
        ).tobytes()


    def test_reregistered_udf_is_not_served_from_the_cache(self, db):
        # A kernel binds the implementation a function name had when it
        # was compiled; its source names the registration, so binding a
        # new implementation to the name compiles a new kernel.
        db.execute("CREATE TABLE u (x INTEGER)")
        db.execute("INSERT INTO u VALUES (1), (2), (3)")
        sql = "SELECT bump(x) AS y FROM u"
        for step, want in ((1, [2, 3, 4]), (100, [101, 102, 103])):
            register_udf(
                PythonUdf(
                    "bump",
                    1,
                    lambda xs, step=step: [x + step for x in xs],
                    result_type=SqlType.INTEGER,
                )
            )
            compiled, interpreted = run_both(db, sql)
            assert compiled.column("y").tolist() == want
            assert_bit_exact(compiled, interpreted)
            assert "# function: BUMP registration=" in db.explain(sql)


# ----------------------------------------------------------------------
# literals are kernel parameters: the cache key is literal-free
# ----------------------------------------------------------------------
def compiled_code(db: Database, sql: str) -> list[str]:
    """EXPLAIN's generated sources without the per-query lines: the
    operator headers (they render the plan, literals included) and the
    trailing parameter comments."""
    section = db.explain(sql).split("== Compiled Code ==\n", 1)[1]
    return [
        line
        for line in section.splitlines()
        if not line.startswith(("-- ", "# params:"))
    ]


@pytest.fixture
def mixed_db(table_db: Database) -> Database:
    table_db.execute("CREATE TABLE s (id INTEGER, tag VARCHAR, v DOUBLE)")
    table_db.execute(
        "INSERT INTO s VALUES (1, 'a', 0.5), (2, 'b', -1.5), "
        "(3, 'it''s', 2.25), (4, 'b', 8.0)"
    )
    return table_db


#: statements that differ only in their literal values
LITERAL_TWINS = [
    (
        "SELECT id, a * 2.5 + 1.0 AS x FROM t WHERE a > 0.25 AND id < 1000",
        "SELECT id, a * -3.5 + 7.0 AS x FROM t WHERE a > -1.5 AND id < 3000",
    ),
    (
        "SELECT grp, SUM(a * 2.0) AS s, COUNT(*) AS c FROM t "
        "WHERE b > 0.5 GROUP BY grp",
        "SELECT grp, SUM(a * 4.0) AS s, COUNT(*) AS c FROM t "
        "WHERE b > -0.5 GROUP BY grp",
    ),
    (
        "SELECT id, 'x' AS lit FROM s WHERE tag = 'b' OR v > 7.5",
        "SELECT id, 'yy' AS lit FROM s WHERE tag = 'a' OR v > 0.0",
    ),
    (
        "SELECT id, b FROM t WHERE id IN (5, 70, 900)",
        "SELECT id, b FROM t WHERE id IN (6, 3000, 1)",
    ),
]

#: one statement per literal kind, each run compiled and interpreted
LITERAL_KINDS = {
    "int": "SELECT id, grp + 3 AS g FROM t WHERE grp = 2 AND id > 10",
    "float": "SELECT id, a * 0.5 AS h FROM t WHERE b < 0.75",
    "nan": "SELECT id, a + 0.0 * 1e999 AS z FROM t WHERE id < 100",
    "inf": "SELECT id, b * 1e999 AS w FROM t WHERE a < 1e999 AND b > -1e999",
    "bool": (
        "SELECT id, TRUE AS yes, FALSE AS no FROM t WHERE (a > 0.0) = TRUE"
    ),
    "varchar": "SELECT id, 'it''s' AS quote FROM s WHERE tag <> 'b'",
    "case": (
        "SELECT id, CASE WHEN a > 0.5 THEN 1.0 WHEN a < -0.5 THEN -1.0 "
        "ELSE 0.0 END AS c, CASE WHEN b > 1.0 THEN 2 END AS d FROM t"
    ),
    "literal_outputs": (
        "SELECT id, 7 AS seven, 2.5 AS half FROM t WHERE id < 50"
    ),
    "constant_true": "SELECT id, a FROM t WHERE 1 < 2",
    "constant_false": "SELECT id, a FROM t WHERE 2.5 < 1.5",
    "in_list": "SELECT id, a FROM t WHERE id IN (3, 3, 4000, -1) OR a > 2.5",
}


class TestLiteralParameters:
    @pytest.mark.parametrize(
        "first, second", LITERAL_TWINS, ids=["project", "agg", "varchar", "in"]
    )
    def test_fresh_literals_reuse_the_kernel(self, mixed_db, first, second):
        assert compiled_code(mixed_db, first) == compiled_code(
            mixed_db, second
        )
        mixed_db.execute(first)
        entries = len(mixed_db.kernel_cache)
        hits = mixed_db.metrics.counter("compile.cache_hit")
        built = mixed_db.metrics.histogram("compile.time")
        hits_before, built_before = hits.value, built.count
        # planned cold: a plan-cache hit would ask for no kernel at all
        mixed_db.plan_cache.clear()
        mixed_db.execute(second)
        assert len(mixed_db.kernel_cache) == entries
        assert hits.value > hits_before
        assert built.count == built_before

    @pytest.mark.parametrize("kind", sorted(LITERAL_KINDS))
    def test_bit_exact_for_every_literal_kind(self, mixed_db, kind):
        sql = LITERAL_KINDS[kind]
        compiled, interpreted = run_both(mixed_db, sql)
        assert_bit_exact(compiled, interpreted)
        assert "== Compiled Code ==" in mixed_db.explain(sql)

    def test_explain_prints_parameter_values_outside_the_key(self, table_db):
        sql = "SELECT id, a * 2.5 AS x FROM t WHERE b > 0.125"
        assert "# params: k0=0.125, k1=2.5" in table_db.explain(sql)
        source = "\n".join(compiled_code(table_db, sql))
        assert "0.125" not in source and "2.5" not in source


# ----------------------------------------------------------------------
# resilience: faults, breaker, cancellation
# ----------------------------------------------------------------------
def compile_simple_kernel():
    schema = two_column_schema()
    spec = KernelSpec(
        schema=schema,
        predicates=(),
        outputs=(KernelOutput("a", ColumnRef("a"), None),),
        transient=frozenset(),
        header=(),
        label="project(1)",
    )
    kernel = KernelCompiler().compile_kernel(spec)
    assert kernel is not None
    return kernel


#: statement shapes whose generated kernels the ``compile.kernel``
#: fault reaches, and whether each runs with ``parallel=True``
FALLBACK_SHAPES = {
    # the filter pushed below the join is a bare filter segment
    "filter": (
        "SELECT t.id, d.w FROM t JOIN d ON t.id = d.id "
        "WHERE t.a > 0.1 ORDER BY id",
        False,
    ),
    "filter_project": (
        "SELECT id, a * b AS x FROM t WHERE a > 0.1 ORDER BY id",
        False,
    ),
    "aggregate_fused_filter": (
        "SELECT grp, SUM(a) AS s, COUNT(*) AS c FROM t WHERE b > 0.0 "
        "GROUP BY grp ORDER BY grp",
        False,
    ),
    # partition pipelines, then the coordinator's HAVING→projection
    "parallel_having": (
        "SELECT grp, SUM(b) AS s FROM t GROUP BY grp "
        "HAVING SUM(b) > 0.0 ORDER BY grp",
        True,
    ),
    "modeljoin_epilogue": (
        "SELECT id, prediction_0 + 1.0 AS score FROM f "
        "MODEL JOIN clf USING (c0, c1, c2, c3) ORDER BY id",
        False,
    ),
    # the one ModelJoin kernel: dense forward plus a filtered epilogue
    "modeljoin_dense": (
        "SELECT id, prediction_0 FROM f MODEL JOIN clf "
        "USING (c0, c1, c2, c3) WHERE prediction_0 > 0.5 ORDER BY id",
        False,
    ),
    # ... and the LSTM's unrolled time steps
    "modeljoin_lstm": (
        "SELECT id, prediction_0 FROM w MODEL JOIN seq "
        "USING (x1, x2, x3) ORDER BY id",
        False,
    ),
}


@pytest.fixture
def fallback_db():
    """Partitioned table, a join partner and a model, on 4 pipelines."""
    database = repro.connect(parallelism=4)
    database.execute(
        "CREATE TABLE t (id INTEGER, grp INTEGER, a DOUBLE, b DOUBLE) "
        "PARTITION BY (id) PARTITIONS 4"
    )
    rng = np.random.default_rng(3)
    n = 2000
    a = rng.normal(size=n)
    a[::17] = np.nan
    database.table("t").append_columns(
        id=np.arange(n),
        grp=rng.integers(0, 7, size=n),
        a=a,
        b=rng.normal(size=n),
    )
    database.execute("CREATE TABLE d (id INTEGER, w DOUBLE)")
    ids = np.arange(0, n, 3)
    database.table("d").append_columns(id=ids, w=rng.normal(size=len(ids)))
    database.execute(
        "CREATE TABLE f (id INTEGER, c0 FLOAT, c1 FLOAT, c2 FLOAT, c3 FLOAT)"
    )
    x = rng.normal(size=(40, 4)).astype(np.float32)
    database.table("f").append_columns(
        id=np.arange(40), c0=x[:, 0], c1=x[:, 1], c2=x[:, 2], c3=x[:, 3]
    )
    publish_model(database, "clf", make_dense_model(8, 2, input_width=4))
    database.execute(
        "CREATE TABLE w (id INTEGER, x1 FLOAT, x2 FLOAT, x3 FLOAT)"
    )
    x = rng.normal(size=(30, 3)).astype(np.float32)
    database.table("w").append_columns(
        id=np.arange(30), x1=x[:, 0], x2=x[:, 1], x3=x[:, 2]
    )
    publish_model(database, "seq", make_lstm_model(8, time_steps=3))
    yield database
    database.close()


class TestResilience:
    def test_injected_fault_falls_back_to_interpreted(self, fallback_db):
        # The one-shot interpreted retry never re-enters generated code:
        # with the fault armed for every call, a generated kernel in the
        # retry would fail it.
        db = fallback_db
        fallbacks = db.metrics.counter("compile.fallback")
        for shape, (sql, parallel) in FALLBACK_SHAPES.items():
            assert "== Compiled Code ==" in db.explain(sql), shape
            before = fallbacks.value
            faults.install(
                FaultInjector(seed=1).raise_once("compile.kernel", count=100)
            )
            result = db.execute(sql, parallel=parallel)
            faults.uninstall()
            assert fallbacks.value == before + 1, shape
            assert db.query_log.entries()[-1]["compiled"] is False, shape
            db.compile_breaker.record_success()
            _, interpreted = run_both(db, sql, parallel=parallel)
            assert_bit_exact(result, interpreted)

    def test_repeated_faults_open_the_breaker(self, table_db):
        faults.install(
            FaultInjector(seed=1).raise_once("compile.kernel", count=100)
        )
        sql = "SELECT id, a + b AS s FROM t WHERE b > 0.0"
        for _ in range(3):
            table_db.execute(sql)
        assert table_db.metrics.counter("compile.fallback").value == 3
        assert table_db.compile_breaker.is_open
        # breaker open: the planner lowers interpreted, so the faulted
        # site is never reached and no further fallbacks happen
        table_db.execute(sql)
        assert table_db.metrics.counter("compile.fallback").value == 3
        plan = table_db.explain(sql)
        assert "FusedPipeline" not in plan
        assert "[compiled]" not in plan
        assert "== Compiled Code ==" not in plan

    def test_kernel_wraps_runtime_errors(self):
        kernel = compile_simple_kernel()
        with pytest.raises(KernelExecutionError):
            kernel([], 4)  # no input arrays -> IndexError inside

    def test_cancellation_raises_timeout_through_kernel(self):
        kernel = compile_simple_kernel()
        token = CancellationToken.with_timeout(0.0)
        arrays = [np.arange(4, dtype=np.float64), np.arange(4)]
        with pytest.raises(QueryTimeoutError):
            kernel(arrays, 4, token)

    def test_compile_error_falls_back_to_interpreted_operator(self):
        # A spec that fails at exec time must compile to None (and the
        # lowering then uses the interpreted operators).
        broken = KernelSpec(
            schema=two_column_schema(),
            predicates=(),
            outputs=(KernelOutput("a", ColumnRef("a"), None),),
            transient=frozenset(),
            header=("this is not a comment -> SyntaxError",),
            label="project(1)",
        )
        compiler = KernelCompiler()
        assert compiler.compile_kernel(broken) is None
