"""Per-layer numbers from the traced pass.

Three sources, as the schema marks them: **T** engine tracer spans
(``Database.enable_tracing()`` / ``tracer.finished_spans()``), **C**
public counters and per-query profiles read around the pass, **B**
benchmark spans — this file timing calls into a layer's public
functions.

How self-time is derived from what the engine's tracer records today:

* planner, compile, kernel and ``storage.block_read`` spans are real
  ``with`` blocks: self-time is duration minus the overlap with direct
  children (``optimizer.lower`` minus the ``compile.*`` spans in it).
* operator spans are wall intervals from first pull to close — a leaf
  scan's interval spans the whole query — so their *busy* time is the
  ``busy_seconds`` argument (cumulative seconds inside ``next()``,
  children included) and an operator's self-time is its busy time
  minus its child operators' busy time.
* a ``modeljoin-infer`` span stays open across the ``yield`` of its
  batch, so it also covers the consumer above it; inference time is
  taken from the per-query stopwatch (``last_profile.stopwatch``, which
  brackets exactly ``_infer_batch``) and the spans only count batches.
* block reads happen inside ``TableScan``'s busy time and model build /
  inference inside ``ModelJoinOperator``'s, so those are subtracted to
  leave ``operators.scan_ms`` and ``modeljoin.operator_self_ms``.

Attributed time = parse (B) + planner/compile self-time + the busy
time of each plan's root operator (+ disk_cold's timed open/close,
which are ``storage.open_ms`` / ``storage.close_ms``); what is left of the statements' wall
time is ``trace.unattributed_share`` (query bookkeeping, result
materialisation, wire and session hops, and everything a shard process
does — shard workers ship back counters, not spans).
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

import numpy as np

from repro.core.modeljoin.inference import pack_columns
from repro.db.sql.parser import parse_statement

from benchmarks.ledger.schema import PER_LAYER_NAMES, STATEMENTS
from benchmarks.ledger.workloads import median_ms

PLANNER_STEPS = ("bind", "rewrite", "select_variant", "lower")


def operator_bucket(name: str) -> str:
    if name == "ModelJoinOperator":
        return "modeljoin"
    if name == "TableScan":
        return "scan"
    if name == "GatherExchange":
        return "gather"
    if "Aggregate" in name:
        return "aggregate"
    if "Join" in name:
        return "join"
    if name in ("SortOperator", "LimitOperator"):
        return "sort"
    return "fused_pipeline"


def operator_self_seconds(spans: list[dict]) -> tuple[dict[str, float], float]:
    """(self-busy seconds per operator bucket, busy seconds of plan roots)."""
    operators = {
        span["id"]: span for span in spans if span["category"] == "operator"
    }
    child_busy: dict[int, float] = defaultdict(float)
    root_busy = 0.0
    for span in operators.values():
        busy = span["args"]["busy_seconds"]
        if span["parent_id"] in operators:
            child_busy[span["parent_id"]] += busy
        else:
            root_busy += busy
    buckets: dict[str, float] = defaultdict(float)
    for span in operators.values():
        own = span["args"]["busy_seconds"] - child_busy.get(span["id"], 0.0)
        buckets[operator_bucket(span["name"])] += max(own, 0.0)
    return buckets, root_busy


def planner_self_seconds(spans: list[dict]) -> dict[str, float]:
    """Self-time of the optimizer steps and of kernel compilation."""
    planning = [
        span for span in spans if span["category"] in ("planner", "compile")
    ]
    by_id = {span["id"]: span for span in planning}
    covered: dict[int, float] = defaultdict(float)
    for span in planning:
        parent = by_id.get(span["parent_id"])
        if parent is not None:
            start = max(span["start_us"], parent["start_us"])
            end = min(
                span["start_us"] + span["duration_us"],
                parent["start_us"] + parent["duration_us"],
            )
            covered[parent["id"]] += max(end - start, 0.0)
    buckets: dict[str, float] = defaultdict(float)
    for span in planning:
        name = (
            "compile"
            if span["category"] == "compile"
            else span["name"].removeprefix("optimizer.")
        )
        own = span["duration_us"] - covered.get(span["id"], 0.0)
        buckets[name] += max(own, 0.0) / 1e6
    return buckets


def span_seconds(spans: list[dict]) -> float:
    return sum(span["duration_us"] for span in spans) / 1e6


def pack_us_per_batch(shape: tuple[int, int], repeats: int = 200) -> float:
    rows, width = shape
    columns = [
        np.linspace(0.0, 1.0, rows, dtype=np.float32) for _ in range(width)
    ]
    out = np.empty((rows, width), dtype=np.float32)
    pack_columns(columns, out=out)
    started = time.perf_counter()
    for _ in range(repeats):
        pack_columns(columns, out=out)
    return (time.perf_counter() - started) / repeats * 1e6


def ratio(hits: float, misses: float) -> float:
    total = hits + misses
    return hits / total if total else 0.0


def layer_metrics(
    workload,
    spans: list[dict],
    traced: dict,
    untraced: dict,
    counters: Counter,
    profile: Counter,
    probes: dict,
) -> dict[str, float]:
    """Every per-layer metric of the schema; 0 where the layer is bypassed.

    *traced* / *untraced* are the harness's pass summaries (``ops``,
    ``statement_seconds``, ``p50_ms``, ...); *counters* the public
    counter deltas over the traced pass; *profile* the summed
    per-query profile counters; *probes* the B metrics already measured.
    """
    ops = traced["ops"]
    values = dict.fromkeys(PER_LAYER_NAMES, 0.0)
    planner = planner_self_seconds(spans)
    operators, root_busy = operator_self_seconds(spans)
    named = defaultdict(list)
    for span in spans:
        named[span["name"]].append(span)
    kernels = [span for span in spans if span["category"] == "kernel"]
    gemms = named["gemm"]
    gemm_seconds = span_seconds(gemms)
    kernel_seconds = span_seconds(kernels)
    build_seconds = span_seconds(named["modeljoin-build"])
    read_seconds = span_seconds(named["storage.block_read"])
    infer_seconds = profile["phase.modeljoin-infer"]

    def per_op_ms(seconds: float) -> float:
        return max(seconds, 0.0) / ops * 1e3

    for step in PLANNER_STEPS:
        values[f"plan.{step}_us"] = planner.get(step, 0.0) / ops * 1e6
    values["compile.kernel_ms"] = per_op_ms(planner.get("compile", 0.0))
    values["operators.scan_ms"] = per_op_ms(operators["scan"] - read_seconds)
    for name in ("fused_pipeline", "aggregate", "join", "sort"):
        values[f"operators.{name}_ms"] = per_op_ms(operators[name])
    values["shard.gather_ms"] = per_op_ms(operators["gather"])
    values["storage.block_read_ms"] = per_op_ms(read_seconds)
    values["modeljoin.build_ms"] = per_op_ms(build_seconds)
    values["modeljoin.infer_ms"] = per_op_ms(infer_seconds)
    values["modeljoin.infer_self_ms"] = per_op_ms(infer_seconds - kernel_seconds)
    values["modeljoin.operator_self_ms"] = per_op_ms(
        operators["modeljoin"] - build_seconds - infer_seconds
    )
    values["modeljoin.batches"] = len(named["modeljoin-infer"]) / ops
    values["device.gemm_ms"] = per_op_ms(gemm_seconds)
    values["device.elementwise_ms"] = per_op_ms(kernel_seconds - gemm_seconds)
    values["device.gemm_calls"] = len(gemms) / ops
    if gemm_seconds:
        flops = sum(
            2.0 * span["args"]["m"] * span["args"]["k"] * span["args"]["n"]
            for span in gemms
        )
        values["device.gemm_gflops"] = flops / gemm_seconds / 1e9
    if kernels:
        values["device.dispatch_us_per_call"] = (
            max(infer_seconds - kernel_seconds, 0.0) / len(kernels) * 1e6
        )

    # -- counters -------------------------------------------------------
    values["sql.statements"] = traced["statements"] / ops
    values["compile.kernels_built"] = counters["kernel.misses"] / ops
    values["compile.cache_hit_ratio"] = ratio(
        counters["kernel.hits"], counters["kernel.misses"]
    )
    values["modeljoin.cache_hit_ratio"] = ratio(
        counters["model.hits"], counters["model.misses"]
    )
    values["modeljoin.buffer_bytes_reused"] = (
        profile["buffer-bytes-reused"] / ops
    )
    values["operators.rows_scanned"] = profile["scan.rows_read"] / ops
    values["operators.blocks_skipped_share"] = ratio(
        profile["scan.blocks_skipped"], profile["scan.blocks_scanned"]
    )
    values["storage.pool_hit_ratio"] = ratio(
        counters["pool.hits"], counters["pool.misses"]
    )
    values["storage.pool_evictions"] = counters["pool.evictions"] / ops
    values["storage.bytes_read"] = (
        counters["metric.storage.bytes_decompressed"] / ops
    )
    waits = counters["metric.server.queue_wait.count"]
    if waits:
        values["serve.queue_wait_ms"] = (
            counters["metric.server.queue_wait.total"] / waits * 1e3
        )
    if workload.SHARDS:
        values["shard.rows_read_per_shard"] = (
            counters["shards.rows_read"] / workload.SHARDS / ops
        )
    values["engine.peak_mb"] = workload.peak_profile_bytes / 2**20

    # -- benchmark spans ------------------------------------------------
    repeats = 30 if workload.scale == "full" else 3
    texts = workload.probe_texts()
    values["sql.parse_us"] = 1e3 * median_ms(
        lambda: [parse_statement(text) for text in texts], repeats
    )
    with workload.probe_database() as database:
        values["plan.explain_us"] = 1e3 * median_ms(
            lambda: [database.explain(text) for text in texts], repeats
        )
    values["modeljoin.pack_us_per_batch"] = pack_us_per_batch(
        workload.BATCH_SHAPE
    )
    values.update(probes)

    # -- shares ---------------------------------------------------------
    wall = traced["statement_seconds"]
    planned = sum(planner.get(step, 0.0) for step in PLANNER_STEPS)
    attributed = (
        values["sql.parse_us"] * ops / 1e6
        + planned
        + planner.get("compile", 0.0)
        + root_busy
        # open/close are timed as statements and belong to storage.*
        + sum(
            traced["statement_total_s"].get(name, 0.0)
            for name in workload.LIFECYCLE_STATEMENTS
        )
    )
    values["plan.share_of_query"] = planned / wall
    values["trace.unattributed_share"] = max(1.0 - attributed / wall, 0.0)
    values["trace.overhead_share"] = (
        traced["p50_ms"] / untraced["p50_ms"] - 1.0
    )
    if untraced["ops"] >= 1000:
        values["latency.p99_ms"] = untraced["p99_ms"]
    for name in STATEMENTS[workload.name]:
        values[f"stmt.{name}.p50_ms"] = untraced["statement_p50_ms"].get(
            name, 0.0
        )
    return values
