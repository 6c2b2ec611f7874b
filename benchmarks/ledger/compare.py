"""Compare two ledger documents, one row per workload x end-to-end metric.

Each side's runs give a median and quartiles; the change is reported as
a ratio *with its base* (B's median over A's).  Verdicts, against the
bound the benchmark fixed for the metric:

* ``unresolved`` – either side's own run-to-run spread (interquartile
  distance over median) is wider than the bound, so a move of that size
  cannot be told from noise;
* ``worse`` / ``better`` – B's median is beyond the bound on that side;
* ``same`` – within the bound.

A larger failed share on any workload, or any ``worse``, makes the
comparison fail (exit code 1).
"""

from __future__ import annotations

import statistics

from benchmarks.ledger.schema import END_TO_END


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, median, third = statistics.quantiles(values, n=4)
    return first, median, third


def spread(values: list[float]) -> float:
    first, median, third = quartiles(values)
    return (third - first) / median if median else 0.0


def verdict(metric, base: list[float], other: list[float]) -> dict:
    base_median = statistics.median(base)
    other_median = statistics.median(other)
    ratio = other_median / base_median if base_median else float("inf")
    worse_by = ratio - 1.0 if metric.better == "lower" else 1.0 - ratio
    noise = max(spread(base), spread(other))
    if noise > metric.bound:
        word = "unresolved"
    elif worse_by > metric.bound:
        word = "worse"
    elif worse_by < -metric.bound:
        word = "better"
    else:
        word = "same"
    return {
        "metric": metric.name,
        "unit": metric.unit,
        "base_quartiles": quartiles(base),
        "other_quartiles": quartiles(other),
        "ratio": ratio,
        "bound": metric.bound,
        "spread": noise,
        "verdict": word,
    }


def failed_share(entry: dict) -> float:
    return entry["failed"] / entry["attempted"] if entry["attempted"] else 1.0


def compare(base: dict, other: dict) -> tuple[list[dict], bool]:
    """(rows, ok) for two ledger documents."""
    rows, ok = [], True
    for name, base_entry in base["workloads"].items():
        other_entry = other["workloads"].get(name)
        if other_entry is None:
            rows.append({"workload": name, "verdict": "missing"})
            ok = False
            continue
        shares = failed_share(base_entry), failed_share(other_entry)
        if shares[1] > shares[0]:
            ok = False
        for metric in END_TO_END:
            row = verdict(
                metric,
                base_entry["end_to_end"][metric.name]["runs"],
                other_entry["end_to_end"][metric.name]["runs"],
            )
            row.update(workload=name, failed_share=shares)
            if row["verdict"] == "worse":
                ok = False
            rows.append(row)
    return rows, ok


def three(values) -> str:
    return " / ".join(f"{value:.4g}" for value in values)


def render(rows: list[dict], base_name: str, other_name: str) -> str:
    lines = [
        f"base A = {base_name}, B = {other_name}; ratio = median(B) / median(A)",
        f"{'workload':<13} {'metric':<13} {'A q1 / median / q3':>32} "
        f"{'B q1 / median / q3':>32} {'B/A':>7} {'bound':>6} {'spread':>7}  verdict",
    ]
    for row in rows:
        if row["verdict"] == "missing":
            lines.append(f"{row['workload']:<13} missing from B")
            continue
        lines.append(
            f"{row['workload']:<13} {row['metric']:<13} "
            f"{three(row['base_quartiles']):>32} "
            f"{three(row['other_quartiles']):>32} "
            f"{row['ratio']:>7.3f} {row['bound']:>6.2f} {row['spread']:>7.3f}  "
            f"{row['verdict']}"
        )
    shares = {
        row["workload"]: row["failed_share"]
        for row in rows
        if "failed_share" in row
    }
    for name, (before, after) in shares.items():
        lines.append(f"failed share {name}: A {before:.4f}  B {after:.4f}")
    return "\n".join(lines)
