"""Benchmark harness plumbing (tiny workloads — speed matters here)."""

import numpy as np
import pytest

import repro
from repro.bench.harness import (
    BenchConfig,
    SweepPoint,
    measure_memory_table,
    run_dense_sweep,
    run_lstm_sweep,
)
from repro.bench.reporting import (
    format_bytes,
    format_counter_summary,
    format_metrics_summary,
    format_qualitative_table,
    format_runtime_series,
    format_seconds,
    points_to_csv,
)
from repro.bench.variants import (
    ALL_VARIANT_NAMES,
    BenchEnvironment,
    make_variant,
)
from repro.errors import ModelJoinError, ReproError
from repro.nn.layers import Dense
from repro.nn.model import Sequential

TINY = BenchConfig(
    preset="tiny",
    fact_rows=(200,),
    dense_grid=((4, 2),),
    lstm_widths=(4,),
    variants=("ModelJoin_CPU", "TF_CAPI_CPU", "UDF", "ML-To-SQL"),
    mltosql_work_cap=10_000_000,
    table3_rows=200,
    verify_predictions=True,
)


class TestConfig:
    def test_presets(self):
        for name in ("smoke", "default", "paper"):
            config = BenchConfig.from_preset(name)
            assert config.preset == name
        with pytest.raises(ReproError):
            BenchConfig.from_preset("nope")

    def test_with_variants(self):
        config = BenchConfig().with_variants(("UDF",))
        assert config.variants == ("UDF",)


class TestVariants:
    def test_all_names_constructible(self):
        for name in ALL_VARIANT_NAMES:
            assert make_variant(name).name == name

    def test_unknown_variant(self):
        with pytest.raises(ModelJoinError):
            make_variant("Quantum")

    def test_variant_run_produces_measurement(self):
        db = repro.connect()
        db.execute("CREATE TABLE f (id INTEGER, a FLOAT, b FLOAT)")
        rng = np.random.default_rng(0)
        x = rng.normal(size=(100, 2)).astype(np.float32)
        db.table("f").append_columns(
            id=np.arange(100), a=x[:, 0], b=x[:, 1]
        )
        model = Sequential([Dense(3), Dense(1)], input_width=2, seed=0)
        env = BenchEnvironment(
            database=db,
            model=model,
            fact_table="f",
            id_column="id",
            input_columns=["a", "b"],
            keep_predictions=True,
        )
        for name in ("ModelJoin_CPU", "TF_CPU", "UDF", "ML-To-SQL"):
            variant = make_variant(name)
            variant.prepare(env)
            measurement = variant.run(env)
            assert measurement.seconds > 0
            assert measurement.rows == 100
            np.testing.assert_allclose(
                measurement.predictions, model.predict(x), atol=1e-4
            )


class TestSweeps:
    def test_dense_sweep_shape(self):
        points = run_dense_sweep(TINY)
        assert len(points) == len(TINY.variants)
        assert all(point.experiment == "fig8" for point in points)
        assert all(not point.skipped for point in points)
        assert all(point.seconds > 0 for point in points)

    def test_lstm_sweep_shape(self):
        points = run_lstm_sweep(TINY)
        assert len(points) == len(TINY.variants)
        assert all(point.experiment == "fig9" for point in points)

    def test_mltosql_work_cap_skips(self):
        config = BenchConfig(
            preset="tiny",
            fact_rows=(200,),
            dense_grid=((64, 4),),
            variants=("ML-To-SQL",),
            mltosql_work_cap=1000,
            verify_predictions=False,
        )
        points = run_dense_sweep(config)
        assert points[0].skipped
        assert "work cap" in points[0].note

    def test_memory_table(self):
        config = BenchConfig(
            preset="tiny",
            fact_rows=(200,),
            table3_rows=300,
            mltosql_work_cap=3_000_000,
            verify_predictions=False,
        )
        points = measure_memory_table(config)
        # 4 models x 4 variants
        assert len(points) == 16
        measured = [point for point in points if not point.skipped]
        assert all(
            point.peak_memory_bytes > 0 for point in measured
        )


class TestReporting:
    def _points(self):
        return [
            SweepPoint("fig8", "A", 100, 8, 2, 0.5),
            SweepPoint("fig8", "B", 100, 8, 2, 0.1),
            SweepPoint("fig8", "A", 100, 64, 2, 5.0),
            SweepPoint(
                "fig8", "B", 100, 64, 2, None, skipped=True, note="cap"
            ),
        ]

    def test_format_helpers(self):
        assert format_seconds(None) == "--"
        assert format_seconds(0.0000005) == "0us"
        assert format_seconds(0.5) == "500.0ms"
        assert format_seconds(2.0) == "2.00s"
        assert format_bytes(None) == "--"
        assert format_bytes(512) == "512 B"
        assert format_bytes(2048) == "2.0 KB"
        assert format_bytes(3 << 20) == "3.0 MB"
        assert format_bytes(5 << 30) == "5.00 GB"

    def test_runtime_series_renders_all_cells(self):
        text = format_runtime_series(self._points(), "Figure 8 test")
        assert "width=8" in text and "width=64" in text
        assert "skip" in text
        assert "500.0ms" in text

    def test_qualitative_table_classifies(self):
        memory = [
            SweepPoint(
                "table3", "A", 100, 8, 2, 0.1, peak_memory_bytes=1000
            ),
            SweepPoint(
                "table3", "B", 100, 8, 2, 0.1, peak_memory_bytes=100_000
            ),
        ]
        text = format_qualitative_table(self._points(), memory)
        lines = text.splitlines()
        small_row = next(
            line for line in lines if "Small Models" in line
        )
        # B is 5x faster than A on the small model -> A Medium/Bad
        assert "Good" in small_row
        large_row = next(
            line for line in lines if "Large Models" in line
        )
        assert "Bad" in large_row  # B skipped the large cell

    def test_csv_dump(self):
        csv = points_to_csv(self._points())
        lines = csv.splitlines()
        assert lines[0].startswith("experiment,variant")
        assert lines[0].endswith(",counters,metrics")
        assert len(lines) == 5
        assert "True" in lines[-1]  # the skipped point

    def test_csv_includes_counters(self):
        point = SweepPoint(
            "fig8",
            "ModelJoin_CPU",
            100,
            8,
            2,
            0.1,
            extra={"counters": {"morsels": 4, "model-cache-hits": 1}},
        )
        csv = points_to_csv([point])
        assert '"model-cache-hits=1;morsels=4"' in csv

    def test_counter_summary_aggregates(self):
        points = [
            SweepPoint(
                "fig8",
                "ModelJoin_CPU",
                100,
                8,
                2,
                0.1,
                extra={
                    "counters": {
                        "model-cache-misses": 1,
                        "morsels": 4,
                        "buffer-bytes-reused": 1 << 20,
                    }
                },
            ),
            SweepPoint(
                "fig8",
                "ModelJoin_CPU",
                100,
                16,
                2,
                0.1,
                extra={"counters": {"model-cache-hits": 1, "morsels": 4}},
            ),
        ]
        text = format_counter_summary(points)
        assert "model-cache-hits" in text
        assert "morsels" in text
        assert "8" in text  # morsels summed across points
        assert "1.0 MB" in text  # bytes rendered human-readable

    def test_metrics_summary_derives_the_model_cache_hit_ratio(self):
        def point(width, metrics):
            return SweepPoint(
                "fig8",
                "ModelJoin_CPU",
                100,
                width,
                2,
                0.1,
                extra={"metrics": metrics},
            )

        points = [
            point(8, {"query.latency.p50": 0.002, "model-cache-misses": 1}),
            point(
                16,
                {
                    "query.latency.p50": 0.004,
                    "model-cache-hits": 3,
                    "model-cache-misses": 1,
                },
            ),
        ]
        header, row = format_metrics_summary(points).splitlines()[2:]
        assert "model-cache.hit_ratio" in header
        cells = row.split()
        assert cells[0] == "ModelJoin_CPU"
        # mean of the cells' ratios 0/1 and 3/4; no build -> "--"
        assert cells[-1] == "0.38"
        assert cells[-3] == "--"
        assert format_metrics_summary([point(8, {})]) == ""

    def test_counter_summary_empty_without_counters(self):
        assert format_counter_summary(self._points()) == ""
