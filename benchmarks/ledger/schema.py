"""Metric and workload names: the single source of the ledger schema.

``BENCHMARK.json`` at the repo root is generated from these tables
(``python -m benchmarks.ledger manifest``) and the tests assert the two
agree, so a metric cannot exist in one place and not the other.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

RUN_SECONDS = 15
COMMAND = ("python3", "benchmarks/ledger/run.py")
PATHS = ("benchmarks/ledger",)

NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_PATTERN = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: share of the parent's median by which the metric may worsen
    bound: float
    meaning: str


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    #: module the number belongs to (the layer taxonomy of ROADMAP 1)
    layer: str
    #: B = benchmark span around a public call, T = engine tracer span
    #: self-time, C = public counter
    source: str
    meaning: str


#: The ISSUE's targets were 15/10/15/10/5 %.  The 2-core reference box
#: is a shared VM whose speed wanders by up to 2x for seconds at a time,
#: so the timings are stated at nominal box speed (``calibrate.py``).
#: Ten seeds, twice, then spread 1-8 % (p50, ops), 2-14 % (p90) and
#: 1-22 % (set-up) against 3-31 % as measured; the timing bounds stay at
#: the driver's 25 % cap because the box has shown worse stretches than
#: those sets caught.  sharded_scan's shard processes land on one of two
#: RSS levels 5 % apart depending on the seed (README "Measured bounds"
#: has the runs).
END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "median of 3 or 9 set-ups: generate, load, publish, "
             "checkpoint / spawn shards / start server, references; "
             "at nominal box speed"),
    EndToEnd("query_p50_ms", "ms", "lower", 0.25,
             "median operation latency over the timed phase, at nominal "
             "box speed"),
    EndToEnd("query_p90_ms", "ms", "lower", 0.25,
             "90th-percentile operation latency, at nominal box speed"),
    EndToEnd("ops_per_s", "1/s", "higher", 0.25,
             "operations completed per second of client busy time, at "
             "nominal box speed"),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.20,
             "ru_maxrss of the workload process plus its children"),
)

#: statement names per workload, in operation order; each gets a
#: ``stmt.<name>.p50_ms`` diagnostic
STATEMENTS = {
    "batch_narrow": ("narrow_mj_scan",),
    "batch_heavy": ("heavy_dense512", "heavy_lstm32"),
    "olap_mix": (
        "olap_agg_species", "olap_agg_k4096", "olap_filter_project",
        "olap_mj_groupby", "olap_topk", "olap_ml_to_sql",
    ),
    "point_lookup": (
        "point_select", "point_mj", "point_range_mj", "point_in3",
    ),
    "served_mix": ("served_point_mj", "served_agg", "served_insert"),
    "sharded_scan": (
        "shard_partial_groupby", "shard_mj_groupby_k", "shard_concat_mj",
    ),
    "disk_cold": (
        "disk_open", "disk_mj_scan", "disk_groupby", "disk_range",
        "disk_close",
    ),
}

WORKLOAD_WHY = {
    "batch_narrow": (
        "500k-tuple dense 32x2 MODEL JOIN: 489 scan vectors of tiny "
        "GEMMs, so time is pack + Python dispatch + scan, not arithmetic"
    ),
    "batch_heavy": (
        "dense 512x2 plus LSTM-32 MODEL JOIN: GEMM/elementwise kernels "
        "dominate, so dispatch changes predict no move here"
    ),
    "olap_mix": (
        "group-bys, fused filter-project, top-k and the generated "
        "ML-To-SQL query: operators and compile do the work, ModelJoin little"
    ),
    "point_lookup": (
        "four fresh-literal point/range statements on 500k rows: parse, "
        "bind, rewrite, lower and bookkeeping dominate; batch work bypassed"
    ),
    "served_mix": (
        "80/15/5 point-score/aggregate/insert mix over the wire with 2 "
        "closed-loop clients: the only path through framing, admission, pins"
    ),
    "sharded_scan": (
        "two shard processes, partial and concat merges over 250k rows: "
        "fragment planning, pipes and coordinator merge, bypassed elsewhere"
    ),
    "disk_cold": (
        "open, scan, aggregate, prune, close per op on a checkpointed "
        "table larger than the pool: pays what warm workloads amortise"
    ),
}


def _layer(layer, rows):
    return tuple(
        PerLayer(name, unit, better, layer, source, meaning)
        for name, unit, better, source, meaning in rows
    )


_T_OP = "span self-time per operation"

PER_LAYER = (
    _layer("repro.db.sql", (
        ("sql.parse_us", "us", "lower", "B",
         "parse_statement over one operation's statements"),
        ("sql.statements", "count", "lower", "C",
         "statements executed per operation"),
    ))
    + _layer("repro.db.plan", (
        ("plan.bind_us", "us", "lower", "T", "optimizer.bind, " + _T_OP),
        ("plan.rewrite_us", "us", "lower", "T",
         "optimizer.rewrite, " + _T_OP),
        ("plan.select_variant_us", "us", "lower", "T",
         "optimizer.select_variant, " + _T_OP),
        ("plan.lower_us", "us", "lower", "T",
         "optimizer.lower minus compile spans, " + _T_OP),
        ("plan.explain_us", "us", "lower", "B",
         "Database.explain over one operation's SELECTs"),
        ("plan.share_of_query", "ratio", "lower", "T",
         "planner span time / traced statement wall"),
    ))
    + _layer("repro.db.compile", (
        ("compile.kernel_ms", "ms", "lower", "T",
         "compile.* spans per operation"),
        ("compile.kernels_built", "count", "lower", "C",
         "kernel-cache misses per operation"),
        ("compile.cache_hit_ratio", "ratio", "higher", "C",
         "kernel-cache hits / requests in the traced pass"),
    ))
    + _layer("repro.db.operators", (
        ("operators.scan_ms", "ms", "lower", "T",
         "TableScan self-busy time minus block reads, per operation"),
        ("operators.fused_pipeline_ms", "ms", "lower", "T",
         "FusedPipeline/Filter/Project/Rename self-busy time per operation"),
        ("operators.aggregate_ms", "ms", "lower", "T",
         "Hash/Ordered/Segmented aggregate self-busy time per operation"),
        ("operators.join_ms", "ms", "lower", "T",
         "HashJoin/CrossJoin self-busy time per operation"),
        ("operators.sort_ms", "ms", "lower", "T",
         "Sort/Limit self-busy time per operation"),
        ("operators.rows_scanned", "count", "lower", "C",
         "scan.rows_read per operation"),
        ("operators.blocks_skipped_share", "ratio", "higher", "C",
         "zone-map skipped blocks / blocks considered"),
    ))
    + _layer("repro.core.modeljoin", (
        ("modeljoin.build_ms", "ms", "lower", "T",
         "modeljoin-build spans per operation"),
        ("modeljoin.infer_ms", "ms", "lower", "C",
         "modeljoin-infer stopwatch phase per operation, kernels included"),
        ("modeljoin.infer_self_ms", "ms", "lower", "T",
         "modeljoin.infer_ms minus the kernel spans (pack, dispatch, unpack)"),
        ("modeljoin.operator_self_ms", "ms", "lower", "T",
         "ModelJoinOperator busy time outside build and inference"),
        ("modeljoin.batches", "count", "lower", "T",
         "inference batches per operation"),
        ("modeljoin.pack_us_per_batch", "us", "lower", "B",
         "pack_columns on the workload's batch shape"),
        ("modeljoin.cache_hit_ratio", "ratio", "higher", "C",
         "model-cache hits / lookups in the traced pass"),
        ("modeljoin.buffer_bytes_reused", "bytes", "higher", "C",
         "arena bytes handed out again per operation"),
    ))
    + _layer("repro.device", (
        ("device.gemm_ms", "ms", "lower", "T", "gemm spans per operation"),
        ("device.gemm_calls", "count", "lower", "T",
         "gemm calls per operation"),
        ("device.elementwise_ms", "ms", "lower", "T",
         "non-gemm kernel spans per operation"),
        ("device.gemm_gflops", "GFLOP/s", "higher", "T",
         "2mkn from span shapes / gemm span time (computed, not counted)"),
        ("device.dispatch_us_per_call", "us", "lower", "T",
         "modeljoin.infer_self_ms / kernel calls"),
    ))
    + _layer("repro.nn", (
        ("floor.numpy_ms", "ms", "lower", "B",
         "bare-NumPy time for the operation's shapes, best batch size"),
        ("floor.ratio", "ratio", "lower", "B",
         "untraced operation p50 / floor.numpy_ms"),
    ))
    + _layer("repro.db.storage", (
        ("storage.open_ms", "ms", "lower", "B",
         "repro.connect(path=) on the checkpointed database"),
        ("storage.close_ms", "ms", "lower", "B", "Database.close()"),
        ("storage.checkpoint_ms", "ms", "lower", "B",
         "Database.checkpoint() of the loaded tables"),
        ("storage.block_read_ms", "ms", "lower", "T",
         "storage.block_read spans per operation"),
        ("storage.pool_hit_ratio", "ratio", "higher", "C",
         "buffer-pool hits / lookups in the traced pass"),
        ("storage.pool_evictions", "count", "lower", "C",
         "buffer-pool evictions per operation"),
        ("storage.bytes_read", "bytes", "lower", "C",
         "storage.bytes_decompressed per operation"),
        ("storage.disk_bytes_per_raw_byte", "ratio", "lower", "C",
         "bytes on disk / nominal table bytes"),
    ))
    + _layer("repro.db.parallel", (
        ("parallel.speedup", "ratio", "higher", "B",
         "serial p50 / parallel=True p50 on a 2-partition copy"),
        ("parallel.morsels", "count", "lower", "C",
         "morsels per parallel query"),
        ("parallel.queue_wait_ms", "ms", "lower", "C",
         "morsel.queue_wait histogram mean"),
    ))
    + _layer("repro.db.serve", (
        ("serve.wire_overhead_us", "us", "lower", "B",
         "WireClient.query p50 - Session.execute p50, same statement"),
        ("serve.session_overhead_us", "us", "lower", "B",
         "Session.execute p50 - db.execute p50, same statement"),
        ("serve.queue_wait_ms", "ms", "lower", "C",
         "server.queue_wait histogram mean"),
        ("serve.rejected", "count", "lower", "C",
         "requests rejected at admission"),
        ("serve.pins_leaked", "count", "lower", "C",
         "storage generations still pinned after the passes"),
        ("serve.insert_p50_ms", "ms", "lower", "B",
         "INSERT request p50, untraced pass"),
        ("serve.read_p50_ms", "ms", "lower", "B",
         "read request p50, untraced pass"),
    ))
    + _layer("repro.db.shard", (
        ("shard.fragment_plan_us", "us", "lower", "B",
         "explain on the sharded engine - explain on a single engine"),
        ("shard.ratio_vs_single", "ratio", "lower", "B",
         "sharded operation p50 / unsharded operation p50"),
        ("shard.gather_ms", "ms", "lower", "T",
         "GatherExchange self-busy time (waiting on shards) per operation"),
        ("shard.rows_read_per_shard", "count", "lower", "C",
         "system.shards rows_read per shard per operation"),
        ("shard.skew", "ratio", "lower", "C",
         "largest shard's rows / mean rows"),
    ))
    + _layer("repro.db.introspect", (
        ("introspect.collect_overhead_share", "ratio", "lower", "B",
         "operation p50 with collect_query_log on / off - 1"),
        ("trace.overhead_share", "ratio", "lower", "B",
         "traced operation p50 / untraced p50 - 1"),
        ("trace.unattributed_share", "ratio", "lower", "T",
         "traced statement wall not covered by any layer above"),
    ))
    + _layer("cross-layer", (
        ("latency.p99_ms", "ms", "lower", "B",
         "untraced-pass p99, 0 below 1000 samples"),
        ("engine.peak_mb", "MiB", "lower", "C",
         "largest last_profile accountant peak in the traced pass"),
    ))
    + _layer("cross-layer", tuple(
        (f"stmt.{statement}.p50_ms", "ms", "lower", "B",
         f"untraced p50 of {statement} ({workload})")
        for workload, statements in STATEMENTS.items()
        for statement in statements
    ))
)

END_TO_END_NAMES = tuple(metric.name for metric in END_TO_END)
PER_LAYER_NAMES = tuple(metric.name for metric in PER_LAYER)
UNITS = {metric.name: metric.unit for metric in END_TO_END + PER_LAYER}


def manifest() -> dict:
    """The exact content of ``BENCHMARK.json``."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why}
            for name, why in WORKLOAD_WHY.items()
        ],
        "end_to_end": [
            {
                "name": metric.name,
                "unit": metric.unit,
                "better": metric.better,
                "bound": metric.bound,
            }
            for metric in END_TO_END
        ],
        "per_layer": [
            {
                "name": metric.name,
                "unit": metric.unit,
                "better": metric.better,
            }
            for metric in PER_LAYER
        ],
    }


def validate_result(result: dict, trace: bool) -> list[str]:
    """Problems with one run's result line (empty list = valid)."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a bool")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    expected = PER_LAYER_NAMES if trace else END_TO_END_NAMES
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        problems.append(f"metric names: missing {missing}, extra {extra}")
    for name, entry in metrics.items():
        if not NAME_PATTERN.match(name):
            problems.append(f"bad metric name {name!r}")
        if set(entry) != {"value", "unit"}:
            problems.append(f"{name}: keys {sorted(entry)}")
            continue
        if entry["unit"] != UNITS.get(name):
            problems.append(f"{name}: unit {entry['unit']!r}")
        value = entry["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            problems.append(f"{name}: value {value!r} is not a number")
        elif value != value or value in (float("inf"), float("-inf")):
            problems.append(f"{name}: value {value!r} is not finite")
    return problems


def validate_manifest(document: dict) -> list[str]:
    """Problems with a BENCHMARK.json against the driver's limits."""
    problems = []
    names = (
        [w["name"] for w in document["workloads"]]
        + [m["name"] for m in document["end_to_end"]]
        + [m["name"] for m in document["per_layer"]]
    )
    if len(names) != len(set(names)):
        problems.append("a name is used twice")
    for name in names:
        if not NAME_PATTERN.match(name):
            problems.append(f"bad name {name!r}")
    for metric in document["end_to_end"] + document["per_layer"]:
        if not UNIT_PATTERN.match(metric["unit"]):
            problems.append(f"bad unit {metric['unit']!r}")
    if not 2 <= len(document["workloads"]) <= 8:
        problems.append("workload count outside 2..8")
    if not 1 <= len(document["end_to_end"]) <= 16:
        problems.append("end_to_end count outside 1..16")
    if not 1 <= len(document["per_layer"]) <= 128:
        problems.append("per_layer count outside 1..128")
    for workload in document["workloads"]:
        if len(workload["why"]) > 200 or "\n" in workload["why"]:
            problems.append(f"why of {workload['name']} too long")
    for metric in document["end_to_end"]:
        if not 0 < metric["bound"] <= 0.25:
            problems.append(f"bound of {metric['name']} outside (0, 0.25]")
    return problems
