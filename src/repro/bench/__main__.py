"""CLI for regenerating the paper's tables and figures.

Usage::

    python -m repro.bench fig8    [--preset smoke|default|paper] [--out F]
    python -m repro.bench fig9    ...
    python -m repro.bench table2  ...
    python -m repro.bench table3  ...
    python -m repro.bench all     ...
    python -m repro.bench digest  [--preset ...] [--variants ...]

``digest`` prints one SHA-256 of the predictions per Figure 8/9 cell
(variant x model x fact rows), so two checkouts' predictions compare
with ``diff``.

``--trace out.json`` records every swept engine into one shared span
timeline and exports it as Chrome-trace/Perfetto JSON (open at
https://ui.perfetto.dev).

Engine performance is measured and gated by the perf ledger
(``benchmarks/ledger``, docs/PERFORMANCE.md), not here.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from repro.bench.harness import (
    BenchConfig,
    measure_memory_table,
    run_dense_sweep,
    run_lstm_sweep,
)
from repro.bench.reporting import (
    format_counter_summary,
    format_memory_table,
    format_metrics_summary,
    format_qualitative_table,
    format_runtime_series,
    points_to_csv,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's evaluation artifacts",
    )
    parser.add_argument(
        "experiment",
        choices=[
            "fig8",
            "fig9",
            "table2",
            "table3",
            "all",
            "digest",
        ],
    )
    parser.add_argument(
        "--preset",
        default="default",
        choices=["smoke", "default", "paper"],
    )
    parser.add_argument(
        "--out", default=None, help="also write the report to this file"
    )
    parser.add_argument(
        "--csv", default=None, help="write raw sweep points as CSV"
    )
    parser.add_argument(
        "--parallel",
        action="store_true",
        help="enable partition-parallel execution",
    )
    parser.add_argument(
        "--variants",
        default=None,
        help="comma-separated subset of the Figure-8/9 variant names",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record spans of every swept engine and export the "
        "combined Chrome-trace JSON to PATH",
    )
    arguments = parser.parse_args(argv)
    config = BenchConfig.from_preset(arguments.preset)
    if arguments.experiment == "digest":
        config = replace(config, verify_predictions=True)
    if arguments.parallel:
        config = BenchConfig(
            **{**config.__dict__, "parallel": True}
        )
    if arguments.variants:
        config = config.with_variants(
            tuple(name.strip() for name in arguments.variants.split(","))
        )

    tracer = None
    if arguments.trace:
        from repro.db.tracing import Tracer

        tracer = Tracer(enabled=True)

    sections: list[str] = []
    all_points = []
    if arguments.experiment == "digest":
        for point in run_dense_sweep(config) + run_lstm_sweep(config):
            print(
                f"{point.experiment} {point.variant} rows={point.rows} "
                f"width={point.width} depth={point.depth} "
                f"{point.digest or 'skipped'}"
            )
        return 0
    if arguments.experiment in ("fig8", "all", "table2"):
        dense = run_dense_sweep(config, tracer=tracer)
        all_points.extend(dense)
        sections.append(
            format_runtime_series(
                dense,
                "Figure 8 — runtime results for dense layer networks "
                f"(preset {config.preset})",
            )
        )
    if arguments.experiment in ("fig9", "all", "table2"):
        lstm = run_lstm_sweep(config, tracer=tracer)
        all_points.extend(lstm)
        sections.append(
            format_runtime_series(
                lstm,
                "Figure 9 — runtime results for LSTM layer networks "
                f"(preset {config.preset})",
            )
        )
    if arguments.experiment in ("table3", "all", "table2"):
        memory = measure_memory_table(config, tracer=tracer)
        all_points.extend(memory)
        sections.append(format_memory_table(memory, config.table3_rows))
    if arguments.experiment in ("table2", "all"):
        runtime_points = [
            point
            for point in all_points
            if point.experiment in ("fig8", "fig9")
        ]
        memory_points = [
            point for point in all_points if point.experiment == "table3"
        ]
        sections.append(
            format_qualitative_table(runtime_points, memory_points)
        )
    counter_section = format_counter_summary(all_points)
    if counter_section:
        sections.append(counter_section)
    metrics_section = format_metrics_summary(all_points)
    if metrics_section:
        sections.append(metrics_section)

    report = "\n\n".join(sections)
    print(report)
    if arguments.out:
        with open(arguments.out, "w") as handle:
            handle.write(report + "\n")
    if arguments.csv:
        with open(arguments.csv, "w") as handle:
            handle.write(points_to_csv(all_points) + "\n")
    if tracer is not None:
        events = tracer.export(arguments.trace)
        print(f"\nwrote {events} trace events to {arguments.trace}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
