"""The repro.bench CLI and the lane-merging qualitative reporting."""

import pytest

from repro.bench.harness import SweepPoint
from repro.bench.reporting import (
    _merge_lanes,
    format_qualitative_table,
)


class TestMergeLanes:
    def _point(self, variant, seconds, skipped=False, width=8):
        return SweepPoint(
            "fig8", variant, 1000, width, 2, seconds, skipped=skipped
        )

    def test_cpu_gpu_collapse_to_best(self):
        merged = _merge_lanes(
            [
                self._point("ModelJoin_CPU", 2.0),
                self._point("ModelJoin_GPU", 0.5),
            ]
        )
        assert len(merged) == 1
        assert merged[0].variant == "ModelJoin"
        assert merged[0].seconds == 0.5

    def test_skip_beaten_by_measurement(self):
        merged = _merge_lanes(
            [
                self._point("TF_CAPI_CPU", None, skipped=True),
                self._point("TF_CAPI_GPU", 1.0),
            ]
        )
        assert len(merged) == 1
        assert not merged[0].skipped

    def test_distinct_cells_kept(self):
        merged = _merge_lanes(
            [
                self._point("TF_CPU", 1.0, width=8),
                self._point("TF_GPU", 2.0, width=64),
            ]
        )
        assert len(merged) == 2

    def test_unknown_variant_passes_through(self):
        merged = _merge_lanes([self._point("Custom", 1.0)])
        assert merged[0].variant == "Custom"


class TestQualitativeTable:
    def test_paper_column_set(self):
        runtime = [
            SweepPoint("fig8", name, 100, 8, 2, seconds)
            for name, seconds in [
                ("ModelJoin_CPU", 0.01),
                ("ModelJoin_GPU", 0.008),
                ("TF_CAPI_CPU", 0.01),
                ("TF_CPU", 0.1),
                ("UDF", 0.03),
                ("ML-To-SQL", 10.0),
            ]
        ]
        table = format_qualitative_table(runtime, [])
        header = next(
            line for line in table.splitlines() if "criterion" in line
        )
        for column in (
            "ML-To-SQL",
            "ModelJoin",
            "TF(C-API)",
            "TF(Python)",
            "UDF",
        ):
            assert column in header
        assert "CPU" not in header


class TestCli:
    def test_cli_smoke_table3(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        out_file = tmp_path / "report.txt"
        csv_file = tmp_path / "points.csv"
        exit_code = main(
            [
                "table3",
                "--preset",
                "smoke",
                "--out",
                str(out_file),
                "--csv",
                str(csv_file),
            ]
        )
        assert exit_code == 0
        report = out_file.read_text()
        assert "Table 3" in report
        assert "ModelJoin_CPU" in report
        csv_text = csv_file.read_text()
        assert csv_text.startswith("experiment,variant")
        printed = capsys.readouterr().out
        assert "Table 3" in printed

    def test_cli_rejects_unknown_experiment(self):
        from repro.bench.__main__ import main

        # "chaos": the retired feature benches must stay out of the CLI
        for name in ("figure42", "chaos"):
            with pytest.raises(SystemExit):
                main([name])
