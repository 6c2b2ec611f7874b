"""Run shape of one workload: set-up, warm-up, timed phase, traced pass.

``--trace 0``: 3 or 9 set-ups (``setup_s`` is their median), an untimed
verified warm-up, then a closed-loop timed phase of ``--seconds`` with
tracing off — the five end-to-end metrics.  The timed phase runs in
slices with a speed calibration between them, and its timings are
stated at nominal box speed (``calibrate.py``).  ``--trace 1``: one set-up,
warm-up, a short untraced pass, a traced pass of a *fixed* operation
count at fixed operation indices (so its counts repeat exactly), then
the benchmark-span probes — the per-layer table.

An operation's latency is the time inside the public calls of its
statements; SQL text formatting and result comparison are outside it.
``ops_per_s`` divides each client's operations by that client's busy
time, so verification between operations does not count as load.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import platform
import resource
import statistics
import threading
import time
from collections import Counter, defaultdict

import numpy as np

from benchmarks.ledger import calibrate
from benchmarks.ledger.layers import layer_metrics
from benchmarks.ledger.schema import UNITS
from benchmarks.ledger.workloads import WORKLOADS, Workload

#: share of ``--seconds`` the untraced comparison pass of a trace run gets
UNTRACED_SHARE = 0.4
#: the traced pass always starts at this operation index
TRACED_FIRST_INDEX = 1_000
#: an operation slower than this counts as failed (ISSUE: 30 s timeout)
OPERATION_TIMEOUT_SECONDS = 30.0


class PassRecorder:
    """Latency samples of one pass, appended to by the client loops."""

    def __init__(self, clients: int):
        self.latencies: list[list[float]] = [[] for _ in range(clients)]
        self.by_statement: dict[str, list[float]] = defaultdict(list)
        self.failed = 0
        self.statements = 0
        self.errors: list[str] = []
        self._lock = threading.Lock()

    def record(self, client: int, outcomes, ok: bool) -> None:
        seconds = sum(outcome.seconds for outcome in outcomes)
        if seconds > OPERATION_TIMEOUT_SECONDS:
            ok = False
        with self._lock:
            self.statements += len(outcomes)
            if not ok:
                self.failed += 1
                return
            self.latencies[client].append(seconds)
            for outcome in outcomes:
                self.by_statement[outcome.name].append(outcome.seconds)

    def record_error(self, error: BaseException) -> None:
        with self._lock:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{type(error).__name__}: {error}")

    def absorb(self, other: "PassRecorder", scale: float) -> None:
        """Take over *other*'s samples, each multiplied by *scale*."""
        for mine, theirs in zip(self.latencies, other.latencies):
            mine.extend(seconds * scale for seconds in theirs)
        for name, values in other.by_statement.items():
            self.by_statement[name].extend(v * scale for v in values)
        self.failed += other.failed
        self.statements += other.statements
        self.errors = (self.errors + other.errors)[:5]

    def summary(self) -> dict:
        samples = np.array(
            [s for client in self.latencies for s in client], dtype=float
        )
        succeeded = len(samples)
        if not succeeded:
            samples = np.array([float("nan")])
        busy = [sum(client) for client in self.latencies]
        return {
            "ops": succeeded + self.failed,
            "succeeded": succeeded,
            "failed": self.failed,
            "errors": self.errors,
            "statements": self.statements,
            "statement_seconds": float(sum(busy)),
            "p50_ms": float(np.percentile(samples, 50)) * 1e3,
            "p90_ms": float(np.percentile(samples, 90)) * 1e3,
            "p99_ms": float(np.percentile(samples, 99)) * 1e3,
            "quartiles_ms": [
                float(q) * 1e3 for q in np.percentile(samples, [25, 50, 75])
            ],
            "ops_per_s": float(sum(
                len(client) / seconds
                for client, seconds in zip(self.latencies, busy)
                if seconds
            )),
            "statement_p50_ms": {
                name: float(np.median(values)) * 1e3
                for name, values in self.by_statement.items()
            },
            "statement_total_s": {
                name: float(sum(values))
                for name, values in self.by_statement.items()
            },
        }


def run_clients(
    workload: Workload,
    recorder: PassRecorder,
    next_index: list[int],
    deadline: float | None = None,
    last_index: int | None = None,
) -> None:
    """Closed loop: each client issues its next operation when the
    previous one has been answered, until *deadline* has passed or its
    index reaches *last_index*.  ``next_index[client]`` is where the
    client starts and, afterwards, where it stopped."""

    def loop(client: int) -> None:
        index = next_index[client]
        while True:
            if last_index is not None and index >= last_index:
                break
            if deadline is not None and time.perf_counter() >= deadline:
                break
            try:
                outcomes = workload.operation(index, client)
                ok = workload.verify(index, outcomes, client)
            except Exception as error:  # a failed operation, not a crash
                recorder.record_error(error)
            else:
                recorder.record(client, outcomes, ok)
            index += 1
        next_index[client] = index

    clients = len(next_index)
    if clients == 1:
        loop(0)
    else:
        threads = [
            threading.Thread(target=loop, args=(client,), name=f"ledger-client-{client}")
            for client in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()


def run_pass(
    workload: Workload,
    first_index: int,
    seconds: float | None = None,
    operations: int | None = None,
    clients: int = 1,
) -> dict:
    """One closed-loop pass of *seconds* or of *operations* per client."""
    recorder = PassRecorder(clients)
    run_clients(
        workload,
        recorder,
        [first_index] * clients,
        deadline=None if seconds is None else time.perf_counter() + seconds,
        last_index=None if operations is None else first_index + operations,
    )
    return recorder.summary()


def run_calibrated_pass(
    workload: Workload, first_index: int, seconds: float, clients: int
) -> dict:
    """A pass of *seconds* in slices, each latency divided by the box's
    slowdown around its slice (mean of the calibrations before and after
    it).  The summary is at nominal speed; ``raw`` is as measured."""
    nominal, raw = PassRecorder(clients), PassRecorder(clients)
    next_index = [first_index] * clients
    slowdowns = []
    deadline = time.perf_counter() + seconds
    before = calibrate.slowdown()
    while time.perf_counter() < deadline:
        piece = PassRecorder(clients)
        run_clients(
            workload,
            piece,
            next_index,
            deadline=min(deadline, time.perf_counter() + calibrate.SLICE_SECONDS),
        )
        after = calibrate.slowdown()
        slowdowns.append((before + after) / 2.0)
        nominal.absorb(piece, 1.0 / slowdowns[-1])
        raw.absorb(piece, 1.0)
        before = after
    summary = nominal.summary()
    as_measured = raw.summary()
    summary["raw"] = {
        key: as_measured[key] for key in ("p50_ms", "p90_ms", "ops_per_s")
    }
    summary["slowdowns"] = slowdowns
    return summary


def peak_rss_mb() -> float:
    """ru_maxrss (KiB on Linux) of this process plus its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


#: ``WireServer.close()`` closes the listening socket but its daemon
#: accept thread stays blocked in ``accept()`` (README, findings); it is
#: reported in the detail document, not counted against ``correct``.
KNOWN_LEAKS = ("thread repro-wire-accept",)


class LeakCheck:
    """Threads, child processes and temp dirs a workload left behind."""

    def __init__(self):
        self.threads = {thread.ident for thread in threading.enumerate()}

    def leaks(self, workload: Workload) -> list[str]:
        deadline = time.perf_counter() + 2.0
        while True:
            threads = [
                thread.name
                for thread in threading.enumerate()
                if thread.ident not in self.threads and thread.is_alive()
            ]
            children = multiprocessing.active_children()
            waiting = [
                name for name in threads if f"thread {name}" not in KNOWN_LEAKS
            ]
            if not (waiting or children) or time.perf_counter() > deadline:
                break
            time.sleep(0.02)  # connection threads notice the close
        found = [f"thread {name}" for name in threads]
        found += [f"process {child.pid}" for child in children]
        if workload.directory and os.path.exists(workload.directory):
            found.append(f"temp dir {workload.directory}")
        if workload.pins_leaked:
            found.append(f"{workload.pins_leaked} pinned generations")
        return found


def split_leaks(found: list[str]) -> tuple[list[str], list[str]]:
    known = [leak for leak in found if leak in KNOWN_LEAKS]
    return known, [leak for leak in found if leak not in KNOWN_LEAKS]


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ.get(
            "OPENBLAS_NUM_THREADS", os.environ.get("OMP_NUM_THREADS", "default")
        ),
        "platform": platform.platform(),
        "os_page_cache": "warm",
    }


def build(name: str, seed: int, scale: str) -> tuple[Workload, float]:
    workload = WORKLOADS[name](seed, scale)
    started = time.perf_counter()
    workload.setup()
    return workload, time.perf_counter() - started


def build_calibrated(name: str, seed: int, scale: str):
    """``build`` plus the set-up time at nominal speed."""
    before = calibrate.slowdown()
    workload, elapsed = build(name, seed, scale)
    slowdown = (before + calibrate.slowdown()) / 2.0
    return workload, elapsed, elapsed / slowdown


def warm_up(workload: Workload) -> dict:
    return run_pass(
        workload, 0, operations=workload.warmup_ops, clients=workload.clients
    )


def metric_entries(values: dict) -> dict:
    return {
        name: {"value": float(value), "unit": UNITS[name]}
        for name, value in values.items()
    }


def run_end_to_end(name: str, seed: int, seconds: float, scale: str):
    check = LeakCheck()
    setups, raw_setups = [], []
    repeats = WORKLOADS[name].SETUP_REPEATS
    for repeat in range(repeats):
        workload, elapsed, nominal = build_calibrated(name, seed, scale)
        raw_setups.append(elapsed)
        setups.append(nominal)
        if repeat < repeats - 1:
            workload.teardown()
            del workload
            gc.collect()
    try:
        description = workload.describe()
        warm = warm_up(workload)
        timed = run_calibrated_pass(
            workload, workload.warmup_ops, seconds, workload.clients
        )
    finally:
        workload.teardown()
    known, leaks = split_leaks(check.leaks(workload))
    values = {
        "setup_s": statistics.median(setups),
        "query_p50_ms": timed["p50_ms"],
        "query_p90_ms": timed["p90_ms"],
        "ops_per_s": timed["ops_per_s"],
        "peak_rss_mb": peak_rss_mb(),
    }
    result = {
        "correct": not (timed["failed"] or warm["failed"] or leaks),
        "attempted": timed["ops"],
        "failed": timed["failed"],
        "metrics": metric_entries(values),
    }
    detail = {
        "workload": description,
        "setup_runs_s": setups,
        "setup_runs_raw_s": raw_setups,
        "warm_up": warm,
        "timed": timed,
        "leaks": leaks,
        "known_leaks": known,
    }
    return result, detail


def run_traced(name: str, seed: int, seconds: float, scale: str):
    check = LeakCheck()
    workload, _ = build(name, seed, scale)
    try:
        description = workload.describe()
        warm = warm_up(workload)
        untraced = run_pass(
            workload, workload.warmup_ops, seconds=seconds * UNTRACED_SHARE
        )
        before = workload.counters()
        workload.profile_sink = Counter()
        tracer = workload.trace_on()
        try:
            traced = run_pass(
                workload, TRACED_FIRST_INDEX, operations=workload.traced_ops
            )
        finally:
            workload.trace_off()
        profile, workload.profile_sink = workload.profile_sink, None
        after = workload.counters()
        after.subtract(before)
        spans = tracer.finished_spans()
        probes = workload.probes(untraced)
        values = layer_metrics(
            workload, spans, traced, untraced, after, profile, probes
        )
        dropped = tracer.dropped_events
    finally:
        workload.teardown()
    known, leaks = split_leaks(check.leaks(workload))
    failed = traced["failed"]
    result = {
        "correct": not (
            failed or untraced["failed"] or warm["failed"] or leaks or dropped
        ),
        "attempted": traced["ops"],
        "failed": failed,
        "metrics": metric_entries(values),
    }
    detail = {
        "workload": description,
        "warm_up": warm,
        "untraced": untraced,
        "traced": traced,
        "spans": len(spans),
        "dropped_spans": dropped,
        "leaks": leaks,
        "known_leaks": known,
    }
    return result, detail


def run(name: str, seed: int, seconds: float, trace: bool, scale: str = "full"):
    """One run of one workload: (driver result line, detail document)."""
    runner = run_traced if trace else run_end_to_end
    result, detail = runner(name, seed, seconds, scale)
    detail.update(
        seed=seed, seconds=seconds, scale=scale, trace=trace,
        environment=environment(),
    )
    return result, detail
