"""Paper-style result rendering.

Produces, from sweep points, the same rows/series the paper reports:
per-model runtime series (Figures 8/9), the peak-memory table
(Table 3), and the qualitative comparison (Table 2) derived from the
measurements plus the approaches' inherent properties.
"""

from __future__ import annotations

from collections import defaultdict

from repro.bench.harness import SweepPoint, geometric_midpoint

#: inherent (not measured) properties, from the paper's §6.3 reasoning
_PORTABILITY = {
    "ML-To-SQL": "Good",  # plain SQL, any compliant engine
    "ModelJoin_CPU": "Bad",  # engine changes required
    "ModelJoin_GPU": "Bad",
    "TF_CPU": "Good",  # plain client Python
    "TF_GPU": "Good",
    "TF_CAPI_CPU": "Bad",  # runtime linked into the engine
    "TF_CAPI_GPU": "Bad",
    "UDF": "Medium",  # needs UDF support
}

_GENERALIZABILITY = {
    "ML-To-SQL": "Bad",  # only the reimplemented layer types
    "ModelJoin_CPU": "Bad",
    "ModelJoin_GPU": "Bad",
    "TF_CPU": "Good",  # full framework available
    "TF_GPU": "Good",
    "TF_CAPI_CPU": "Good",
    "TF_CAPI_GPU": "Good",
    "UDF": "Good",
}


def format_seconds(seconds: float | None) -> str:
    if seconds is None:
        return "--"
    if seconds < 0.001:
        return f"{seconds * 1e6:.0f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds:.2f}s"


def format_bytes(nbytes: int | None) -> str:
    if nbytes is None:
        return "--"
    if nbytes >= 1 << 30:
        return f"{nbytes / (1 << 30):.2f} GB"
    if nbytes >= 1 << 20:
        return f"{nbytes / (1 << 20):.1f} MB"
    if nbytes >= 1 << 10:
        return f"{nbytes / (1 << 10):.1f} KB"
    return f"{nbytes} B"


def _cells(points: list[SweepPoint]):
    """Group points into (width, depth) -> rows -> variant -> point."""
    grid: dict = defaultdict(lambda: defaultdict(dict))
    for point in points:
        grid[(point.width, point.depth)][point.rows][point.variant] = point
    return grid


def format_runtime_series(
    points: list[SweepPoint], title: str
) -> str:
    """Figure 8/9 as text: one block per model, one series per variant."""
    lines = [title, "=" * len(title)]
    grid = _cells(points)
    for (width, depth), by_rows in sorted(grid.items()):
        if any(point.experiment == "fig9" for row in by_rows.values() for point in row.values()):
            lines.append(f"\nModel: LSTM width={width}")
        else:
            lines.append(f"\nModel: dense width={width} depth={depth}")
        variants = sorted(
            {
                variant
                for row in by_rows.values()
                for variant in row.keys()
            }
        )
        header = ["rows".rjust(9)] + [
            variant.rjust(14) for variant in variants
        ]
        lines.append(" ".join(header))
        for rows in sorted(by_rows):
            row = [f"{rows}".rjust(9)]
            for variant in variants:
                point = by_rows[rows].get(variant)
                if point is None:
                    row.append("--".rjust(14))
                elif point.skipped:
                    row.append("skip".rjust(14))
                else:
                    row.append(format_seconds(point.seconds).rjust(14))
            lines.append(" ".join(row))
    skipped = [point for point in points if point.skipped]
    if skipped:
        lines.append("")
        lines.append(
            f"({len(skipped)} ML-To-SQL cells skipped by the work cap — "
            "the quadratic intermediate-result growth of §6.2.1)"
        )
    return "\n".join(lines)


def format_memory_table(points: list[SweepPoint], rows: int) -> str:
    """Table 3 as text."""
    title = f"Table 3 — peak memory for model inference of {rows} tuples"
    lines = [title, "=" * len(title)]
    variants = ("ModelJoin_CPU", "TF_CAPI_CPU", "TF_CPU", "ML-To-SQL")
    header = ["model".ljust(16)] + [name.rjust(14) for name in variants]
    lines.append(" ".join(header))
    by_model: dict = defaultdict(dict)
    for point in points:
        label = (
            f"LSTM({point.width})"
            if point.experiment == "table3" and point.depth == 1
            else f"Dense({point.width},{point.depth})"
        )
        by_model[label][point.variant] = point
    for label, by_variant in by_model.items():
        row = [label.ljust(16)]
        for variant in variants:
            point = by_variant.get(variant)
            if point is None or point.skipped:
                row.append("skip".rjust(14))
            else:
                row.append(format_bytes(point.peak_memory_bytes).rjust(14))
        lines.append(" ".join(row))
    return "\n".join(lines)


def _cell_ratios(
    points: list[SweepPoint],
    variant: str,
    value_of,
) -> tuple[list[float], bool]:
    """Per-cell slowdown ratios of *variant* against the cell's best.

    A cell is one (experiment, width, depth, rows) combination; the
    ratio is this variant's value divided by the cell minimum across
    variants.  Returns the ratios plus whether the variant skipped any
    cell (a skip counts against it — it could not run at all).
    """
    cells: dict = defaultdict(dict)
    for point in points:
        key = (point.experiment, point.width, point.depth, point.rows)
        cells[key][point.variant] = point
    ratios: list[float] = []
    skipped = False
    for by_variant in cells.values():
        mine = by_variant.get(variant)
        if mine is None:
            continue
        if mine.skipped:
            skipped = True
            continue
        values = [
            value_of(point)
            for point in by_variant.values()
            if not point.skipped and value_of(point)
        ]
        my_value = value_of(mine)
        if not values or not my_value:
            continue
        ratios.append(my_value / min(values))
    return ratios, skipped


def _classify_performance(
    points: list[SweepPoint], variant: str, large: bool
) -> str:
    """Good / Medium / Bad relative to the best variant, paper-style.

    "Small" / "large" selects the smallest / largest model width of
    the sweep, matching the paper's two performance rows.
    """
    widths = sorted({point.width for point in points})
    if not widths:
        return "--"
    selected = widths[-1] if large else widths[0]
    subset = [point for point in points if point.width == selected]
    ratios, skipped = _cell_ratios(
        subset, variant, lambda point: point.seconds
    )
    if not ratios:
        return "Bad" if skipped else "--"
    ratio = geometric_midpoint(ratios)
    if skipped or ratio > 12.0:
        return "Bad"
    if ratio <= 2.5:
        return "Good"
    return "Medium"


def _classify_memory(
    memory_points: list[SweepPoint], variant: str
) -> str:
    ratios, skipped = _cell_ratios(
        memory_points,
        variant,
        lambda point: float(point.peak_memory_bytes or 0),
    )
    if not ratios:
        return "Bad" if skipped else "--"
    ratio = geometric_midpoint(ratios)
    if skipped or ratio > 25.0:
        return "Bad"
    if ratio <= 4.0:
        return "Good"
    return "Medium"


#: Figure-8/9 legend name -> Table 2 column (the paper's Table 2 has
#: one column per approach, not per CPU/GPU lane)
_APPROACH_OF_VARIANT = {
    "ML-To-SQL": "ML-To-SQL",
    "ModelJoin_CPU": "ModelJoin",
    "ModelJoin_GPU": "ModelJoin",
    "TF_CAPI_CPU": "TF(C-API)",
    "TF_CAPI_GPU": "TF(C-API)",
    "TF_CPU": "TF(Python)",
    "TF_GPU": "TF(Python)",
    "UDF": "UDF",
    "UDF_per_tuple": "UDF",
}

_PORTABILITY.update(
    {
        "ModelJoin": "Bad",
        "TF(C-API)": "Bad",
        "TF(Python)": "Good",
    }
)
_GENERALIZABILITY.update(
    {
        "ModelJoin": "Bad",
        "TF(C-API)": "Good",
        "TF(Python)": "Good",
    }
)


def _merge_lanes(points: list[SweepPoint]) -> list[SweepPoint]:
    """Collapse CPU/GPU lanes into one point per approach and cell,
    keeping the better lane (the paper's "should be used whenever
    possible" reading of the GPU variants)."""
    best: dict = {}
    for point in points:
        approach = _APPROACH_OF_VARIANT.get(point.variant, point.variant)
        key = (
            point.experiment,
            approach,
            point.rows,
            point.width,
            point.depth,
        )
        current = best.get(key)
        merged = SweepPoint(
            experiment=point.experiment,
            variant=approach,
            rows=point.rows,
            width=point.width,
            depth=point.depth,
            seconds=point.seconds,
            wall_seconds=point.wall_seconds,
            peak_memory_bytes=point.peak_memory_bytes,
            skipped=point.skipped,
            note=point.note,
        )
        if current is None:
            best[key] = merged
        elif current.skipped and not merged.skipped:
            best[key] = merged
        elif (
            not merged.skipped
            and merged.seconds is not None
            and current.seconds is not None
            and merged.seconds < current.seconds
        ):
            best[key] = merged
    return list(best.values())


def format_qualitative_table(
    runtime_points: list[SweepPoint],
    memory_points: list[SweepPoint],
) -> str:
    """Table 2, with the performance/memory cells *derived from data*.

    CPU/GPU lanes are merged into one column per approach, like the
    paper's Table 2.  Portability and generalizability are inherent
    properties of the approaches (not measurable here) and reproduce
    the paper's §6.3 reasoning directly.
    """
    runtime_points = _merge_lanes(runtime_points)
    memory_points = _merge_lanes(memory_points)
    variants = sorted(
        {point.variant for point in runtime_points}
        | {point.variant for point in memory_points}
    )
    criteria = [
        "Performance (Small Models)",
        "Performance (Large Models)",
        "Memory Consumption",
        "Portability",
        "Generalizability",
    ]
    title = "Table 2 — qualitative comparison of ML inference approaches"
    lines = [title, "=" * len(title)]
    header = ["criterion".ljust(28)] + [
        variant.rjust(14) for variant in variants
    ]
    lines.append(" ".join(header))
    for criterion in criteria:
        row = [criterion.ljust(28)]
        for variant in variants:
            if criterion == "Performance (Small Models)":
                value = _classify_performance(
                    runtime_points, variant, large=False
                )
            elif criterion == "Performance (Large Models)":
                value = _classify_performance(
                    runtime_points, variant, large=True
                )
            elif criterion == "Memory Consumption":
                value = _classify_memory(memory_points, variant)
            elif criterion == "Portability":
                value = _PORTABILITY.get(variant, "--")
            else:
                value = _GENERALIZABILITY.get(variant, "--")
            row.append(value.rjust(14))
        lines.append(" ".join(row))
    return "\n".join(lines)


def format_counter_summary(points: list[SweepPoint]) -> str:
    """Aggregate the engine's profile counters across sweep points.

    Surfaces the performance-layer observability: model-cache hits and
    misses, morsels executed (total and per worker), and the bytes of
    allocation the inference buffer arenas avoided.  Returns "" when no
    point carries counters (external variants, old recordings).
    """
    totals: dict[str, int] = defaultdict(int)
    for point in points:
        for name, value in point.extra.get("counters", {}).items():
            totals[name] += value
    if not totals:
        return ""
    title = "Engine counters (aggregated over the sweep)"
    lines = [title, "=" * len(title)]
    for name in sorted(totals):
        if name == "buffer-bytes-reused":
            rendered = format_bytes(totals[name])
        else:
            rendered = str(totals[name])
        lines.append(f"{name:<28} {rendered}")
    return "\n".join(lines)


def format_metrics_summary(points: list[SweepPoint]) -> str:
    """Engine-lifetime metrics aggregated per variant.

    Each sweep cell runs on a fresh engine, so a cell's metrics
    snapshot covers the queries that cell issued; the summary reports
    the per-variant mean of the flattened metric values — the latency
    percentiles (``query.latency.p50``/``p95``/``p99``), model-cache
    hit ratio (of the cell's ``model-cache-hits``/``-misses``) and
    morsel queue-wait percentiles of a typical cell.  Returns "" when no
    point carries metrics.
    """
    by_variant: dict[str, dict[str, list[float]]] = defaultdict(
        lambda: defaultdict(list)
    )
    for point in points:
        metrics = point.extra.get("metrics", {})
        for name, value in metrics.items():
            by_variant[point.variant][name].append(float(value))
        hits = metrics.get("model-cache-hits", 0)
        lookups = hits + metrics.get("model-cache-misses", 0)
        if lookups:
            by_variant[point.variant]["model-cache.hit_ratio"].append(
                hits / lookups
            )
    if not by_variant:
        return ""
    shown = (
        "query.latency.p50",
        "query.latency.p95",
        "query.latency.p99",
        "modeljoin.build_seconds.p50",
        "morsel.queue_wait.p95",
        "model-cache.hit_ratio",
    )
    title = "Engine metrics (mean per variant over the sweep's cells)"
    lines = [title, "=" * len(title)]
    header = ["variant".ljust(16)] + [
        name.rjust(28) for name in shown
    ]
    lines.append(" ".join(header))
    for variant in sorted(by_variant):
        values = by_variant[variant]
        row = [variant.ljust(16)]
        for name in shown:
            samples = values.get(name)
            if not samples:
                row.append("--".rjust(28))
            elif name == "model-cache.hit_ratio":
                mean = sum(samples) / len(samples)
                row.append(f"{mean:.2f}".rjust(28))
            else:
                mean = sum(samples) / len(samples)
                row.append(format_seconds(mean).rjust(28))
        lines.append(" ".join(row))
    return "\n".join(lines)


def points_to_csv(points: list[SweepPoint]) -> str:
    """Machine-readable dump of a sweep."""
    lines = [
        "experiment,variant,rows,width,depth,seconds,wall_seconds,"
        "peak_memory_bytes,skipped,note,counters,metrics"
    ]
    for point in points:
        counters = point.extra.get("counters", {})
        rendered_counters = ";".join(
            f"{name}={counters[name]}" for name in sorted(counters)
        )
        metrics = point.extra.get("metrics", {})
        rendered_metrics = ";".join(
            f"{name}={metrics[name]:.6g}" for name in sorted(metrics)
        )
        lines.append(
            ",".join(
                [
                    point.experiment,
                    point.variant,
                    str(point.rows),
                    str(point.width),
                    str(point.depth),
                    "" if point.seconds is None else f"{point.seconds:.6f}",
                    ""
                    if point.wall_seconds is None
                    else f"{point.wall_seconds:.6f}",
                    ""
                    if point.peak_memory_bytes is None
                    else str(point.peak_memory_bytes),
                    str(point.skipped),
                    '"' + point.note.replace('"', "'") + '"',
                    '"' + rendered_counters + '"',
                    '"' + rendered_metrics + '"',
                ]
            )
        )
    return "\n".join(lines)
