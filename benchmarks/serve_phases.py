"""Per-step cost of a served point statement: the table in PERFORMANCE.md.

Sets up the ``served_mix`` workload (its server, wire server and first
wire client) and runs the warm point MODEL JOIN through three paths,
interleaved so drift hits them alike:

* ``engine`` — ``Database.execute``;
* ``session`` — ``Session.execute`` on an in-process session;
* ``wire`` — ``WireClient.query`` over the workload's connection.

It wraps the serving steps with ``perf_counter`` timers and prints, as
one JSON line, the p50 microseconds per statement of each path
(``statement``), the process CPU microseconds per statement (``cpu``,
every thread of the process, so a dispatcher's work counts) and the p50
of each step the path went through:

* ``admit`` — ``Server._submit`` (the admission step);
* ``queue_wait`` — from admission to the start of
  ``Server._run_admitted`` (the hand-off to a dispatcher, on trees that
  make one);
* ``snapshot`` — ``Database.snapshot`` and ``DatabaseSnapshot.release``
  (capture and pin, then unpin);
* ``execute`` — ``Database.execute_statement``;
* ``respond`` — ``WireServer._respond`` (JSON encoding and send).

Wrappers add their own cost to every path alike; compare two trees with
the same script, alternating which runs first::

    PYTHONPATH=src:. python benchmarks/serve_phases.py [STATEMENTS] [SEED]
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
from collections import defaultdict

import numpy as np

from benchmarks.ledger.workloads import IRIS_USING, ServedMix
from repro.db.engine import Database
from repro.db.serve import server as serve_server
from repro.db.serve import wire
from repro.db.snapshot import DatabaseSnapshot

#: step name -> seconds, for the statement being timed
_steps: dict[str, float] = defaultdict(float)
_admitted: dict[int, float] = {}
_guard = threading.Lock()
#: set when the wire thread's response step has been counted
_responded = threading.Event()


def _add(label: str, seconds: float) -> None:
    with _guard:
        _steps[label] += seconds


def _wrap(owner, name: str, label: str, after=None) -> None:
    original = getattr(owner, name)
    static = isinstance(inspect.getattr_static(owner, name), staticmethod)

    @functools.wraps(original)
    def timed(*args, **kwargs):
        started = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            ended = time.perf_counter()
            _add(label, ended - started)
            if after is not None:
                after(args, ended)

    setattr(owner, name, staticmethod(timed) if static else timed)


def _mark_admitted(args, ended: float) -> None:
    _admitted[id(args[1])] = ended


def _mark_responded(args, ended: float) -> None:
    _responded.set()


def _wrap_run_admitted() -> None:
    original = serve_server.Server._run_admitted

    @functools.wraps(original)
    def timed(self, entry, *args, **kwargs):
        admitted = _admitted.pop(id(entry), None)
        if admitted is not None:
            _add("queue_wait", time.perf_counter() - admitted)
        return original(self, entry, *args, **kwargs)

    serve_server.Server._run_admitted = timed


def main(statements: int = 1_000, seed: int = 7) -> dict:
    _wrap(serve_server.Server, "_submit", "admit", after=_mark_admitted)
    _wrap_run_admitted()
    _wrap(Database, "snapshot", "snapshot")
    _wrap(DatabaseSnapshot, "release", "snapshot")
    _wrap(Database, "execute_statement", "execute")
    _wrap(wire.WireServer, "_respond", "respond", after=_mark_responded)
    workload = ServedMix(seed=seed, scale="full")
    workload.setup()
    text = (
        f"SELECT id, prediction_0 FROM iris MODEL JOIN d32x2 {IRIS_USING} "
        "WHERE id = {}"
    )
    session = workload.server.open_session()
    calls = {
        "engine": workload.db.execute,
        "session": session.execute,
        "wire": workload.connections[0].query,
    }
    samples = {path: defaultdict(list) for path in calls}
    cpu = dict.fromkeys(calls, 0.0)
    keys = np.random.default_rng(seed).integers(
        0, workload.rows, statements + 50
    )
    try:
        for index, key in enumerate(keys):
            sql = text.format(key)
            for path, call in calls.items():
                with _guard:
                    _steps.clear()
                cpu_started = time.process_time()
                started = time.perf_counter()
                call(sql)
                elapsed = time.perf_counter() - started
                if path == "wire":
                    # the reply reached the client before the wire
                    # thread counted its send: wait for that
                    _responded.wait(1.0)
                    _responded.clear()
                cpu_spent = time.process_time() - cpu_started
                if index < 50:  # warm-up
                    continue
                with _guard:
                    steps = dict(_steps)
                cpu[path] += cpu_spent
                samples[path]["statement"].append(elapsed)
                for label, seconds in steps.items():
                    samples[path][label].append(seconds)
    finally:
        session.close()
        workload.teardown()
    report = {}
    for path, steps in samples.items():
        row = {
            label: round(float(np.median(values)) * 1e6, 1)
            for label, values in sorted(steps.items())
        }
        row["cpu"] = round(cpu[path] / statements * 1e6, 1)
        report[path] = row
    return report


if __name__ == "__main__":
    arguments = [int(argument) for argument in sys.argv[1:3]]
    print(json.dumps(main(*arguments)))
