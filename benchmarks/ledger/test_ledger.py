"""Determinism and correctness of the ledger itself.

Outside tier-1 ``testpaths``; run with ``pytest benchmarks/ledger``.
Everything runs at ``--scale tiny`` so each workload takes a second or
two.
"""

from __future__ import annotations

import functools
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from benchmarks.ledger import calibrate, compare, harness, schema
from benchmarks.ledger.workloads import OUT_DIR, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAMES = list(schema.WORKLOAD_WHY)

#: counts that must repeat exactly for one seed
EXACT_COUNTS = (
    "sql.statements",
    "operators.rows_scanned",
    "modeljoin.batches",
    "device.gemm_calls",
)


@functools.lru_cache(maxsize=None)
def launch(workload: str, seed: int, trace: int, repeat: int = 0) -> dict:
    """One tiny run through the driver entry, as the driver would call it."""
    OUT_DIR.mkdir(exist_ok=True)
    detail_path = OUT_DIR / f"test-{workload}-{seed}-{trace}-{repeat}.json"
    try:
        completed = subprocess.run(
            [
                sys.executable, str(HERE / "run.py"),
                "--workload", workload, "--seed", str(seed),
                "--seconds", "0.5", "--trace", str(trace),
                "--scale", "tiny", "--detail-out", str(detail_path),
            ],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        detail = json.loads(detail_path.read_text())
    finally:
        detail_path.unlink(missing_ok=True)
    # the contract: the last stdout line is the result object
    assert json.loads(completed.stdout.splitlines()[-1]) == detail["result"]
    return detail


def test_manifest_is_generated_from_schema():
    path = ROOT / "BENCHMARK.json"
    document = json.loads(path.read_text())
    assert document == schema.manifest()
    assert schema.validate_manifest(document) == []
    assert path.stat().st_size <= 64 * 1024
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert "setup_s" in schema.END_TO_END_NAMES
    assert set(schema.STATEMENTS) == set(WORKLOADS) == set(NAMES)


@pytest.mark.parametrize("workload", NAMES)
def test_end_to_end_run_is_valid_and_clean(workload):
    detail = launch(workload, 5, 0)
    result = detail["result"]
    assert schema.validate_result(result, trace=False) == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == detail["timed"]["ops"] >= 1
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    # no leaked threads, shard processes, snapshot pins or temp dirs
    assert detail["leaks"] == []
    assert set(detail["known_leaks"]) <= set(harness.KNOWN_LEAKS)
    leftovers = [p for p in OUT_DIR.iterdir() if p.is_dir()]
    assert leftovers == []


def processes_in_session(session: int) -> list[str]:
    """``pid (comm) state`` of every process, zombies too, of *session*."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue  # ended while we were reading
        head, _, tail = stat.rpartition(")")
        fields = tail.split()  # state ppid pgrp session ...
        if int(fields[3]) == session:
            found.append(f"{head}) {fields[0]}")
    return found


@pytest.mark.parametrize("trace", [0, 1])
def test_run_leaves_no_process_behind(trace):
    # sharded_scan spawns shard workers and, with them, multiprocessing's
    # resource tracker, which would outlive run.py if it were not stopped
    child = subprocess.Popen(
        [
            sys.executable, str(HERE / "run.py"), "--workload", "sharded_scan",
            "--seed", "5", "--seconds", "0.5", "--trace", str(trace),
            "--scale", "tiny",
        ],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    stdout, stderr = child.communicate(timeout=120)
    assert child.returncode == 0, stderr
    assert json.loads(stdout.splitlines()[-1])["correct"]
    assert processes_in_session(child.pid) == []


@pytest.mark.parametrize("workload", NAMES)
def test_traced_run_reports_every_layer_metric(workload):
    result = launch(workload, 5, 1)["result"]
    assert schema.validate_result(result, trace=True) == []
    assert result["correct"] and result["failed"] == 0
    values = {name: e["value"] for name, e in result["metrics"].items()}
    assert 0.0 <= values["trace.unattributed_share"] <= 1.0
    # layers a workload bypasses read zero
    for prefix, owner in (("serve.", "served_mix"), ("shard.", "sharded_scan")):
        touched = any(v for n, v in values.items() if n.startswith(prefix))
        assert touched == (workload == owner), prefix
    if workload not in ("served_mix", "disk_cold"):
        assert not any(v for n, v in values.items() if n.startswith("storage."))
    for other, statements in schema.STATEMENTS.items():
        for statement in statements:
            assert bool(values[f"stmt.{statement}.p50_ms"]) == (other == workload)


@pytest.mark.parametrize("workload", NAMES)
def test_exact_counts_repeat_for_one_seed(workload):
    first = launch(workload, 5, 1)["result"]
    second = launch(workload, 5, 1, repeat=1)["result"]
    assert first["attempted"] == second["attempted"]
    for name in EXACT_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name


@pytest.mark.parametrize("workload", ["batch_narrow", "olap_mix", "point_lookup"])
def test_inputs_follow_the_seed(workload):
    def inputs(seed):
        instance = WORKLOADS[workload](seed, "tiny")
        instance.setup()
        try:
            data = getattr(instance, "columns", None) or {
                "features": instance.data.features
            }
            texts = [s.sql(7) for s in instance.statements]
            return {k: v.copy() for k, v in data.items()}, texts
        finally:
            instance.teardown()

    (data_a, texts_a), (data_b, texts_b) = inputs(1), inputs(1)
    assert all(np.array_equal(data_a[k], data_b[k]) for k in data_a)
    assert texts_a == texts_b
    data_c, texts_c = inputs(2)
    assert any(not np.array_equal(data_a[k], data_c[k]) for k in data_a)
    if workload == "point_lookup":
        assert texts_a != texts_c  # fresh literals per seed


def test_corrupted_reference_counts_as_failed():
    workload = WORKLOADS["batch_narrow"](3, "tiny")
    workload.setup()
    try:
        assert harness.run_pass(workload, 0, operations=2)["failed"] == 0
        workload.reference[0] += 1.0
        summary = harness.run_pass(workload, 0, operations=3)
    finally:
        workload.teardown()
    assert summary["ops"] == 3 and summary["failed"] == 3
    assert summary["succeeded"] == 0


def test_raising_statement_counts_as_failed():
    workload = WORKLOADS["olap_mix"](3, "tiny")
    workload.setup()
    try:
        workload.db.execute("DROP TABLE small")
        summary = harness.run_pass(workload, 0, operations=2)
    finally:
        workload.teardown()
    assert summary["failed"] == 2 and summary["errors"]


def test_timed_phase_is_stated_at_nominal_speed(monkeypatch):
    # a box found twice as slow as nominal halves every reported latency
    monkeypatch.setattr(calibrate, "slowdown", lambda: 2.0)
    monkeypatch.setattr(calibrate, "SLICE_SECONDS", 0.1)
    workload = WORKLOADS["point_lookup"](3, "tiny")
    workload.setup()
    try:
        summary = harness.run_calibrated_pass(workload, 0, 0.35, clients=1)
    finally:
        workload.teardown()
    assert summary["failed"] == 0 and summary["succeeded"] >= 3
    assert len(summary["slowdowns"]) >= 3 and set(summary["slowdowns"]) == {2.0}
    raw = summary["raw"]
    assert summary["p50_ms"] == pytest.approx(raw["p50_ms"] / 2.0)
    assert summary["p90_ms"] == pytest.approx(raw["p90_ms"] / 2.0)
    assert summary["ops_per_s"] == pytest.approx(raw["ops_per_s"] * 2.0)


def test_calibration_times_every_kernel():
    seconds = calibrate.kernel_seconds()
    assert set(seconds) == set(calibrate.KERNELS) == set(calibrate.NOMINAL_SECONDS)
    assert 0.2 < calibrate.slowdown() < 20.0


def document(runs_by_metric: dict, failed: int = 0) -> dict:
    return {"workloads": {"w": {
        "attempted": 100, "failed": failed,
        "end_to_end": {
            metric.name: {"runs": runs_by_metric.get(metric.name, [1.0] * 5)}
            for metric in schema.END_TO_END
        },
    }}}


def verdicts(base, other):
    rows, ok = compare.compare(base, other)
    return {row["metric"]: row["verdict"] for row in rows}, ok


def test_compare_verdicts():
    steady = [10.0, 10.1, 9.9, 10.0, 10.05]
    base = document({"query_p50_ms": steady, "ops_per_s": steady})
    same, ok = verdicts(base, base)
    assert ok and set(same.values()) == {"same"}
    slower = document({
        "query_p50_ms": [v * 1.3 for v in steady],   # lower is better
        "ops_per_s": [v * 1.3 for v in steady],      # higher is better
    })
    found, ok = verdicts(base, slower)
    assert found["query_p50_ms"] == "worse" and found["ops_per_s"] == "better"
    assert not ok
    noisy = document({
        "query_p50_ms": [5.0, 10.0, 15.0, 20.0, 25.0], "ops_per_s": steady,
    })
    found, ok = verdicts(base, noisy)
    assert found["query_p50_ms"] == "unresolved" and ok
    _, ok = verdicts(base, document(
        {"query_p50_ms": steady, "ops_per_s": steady}, failed=1
    ))
    assert not ok  # a larger failed share fails the comparison
    text = compare.render(*compare.compare(base, slower)[:1], "A.json", "B.json")
    assert "median(B) / median(A)" in text and "worse" in text
