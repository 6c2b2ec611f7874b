"""Driver entry: one run of one workload, one JSON result line.

    python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1

Prints, as the last line of stdout, ``{"correct", "attempted",
"failed", "metrics"}`` with the end-to-end metrics (``--trace 0``) or
the per-layer metrics (``--trace 1``).  Exits non-zero without a result
line when the engine under ``src/`` is missing or the result does not
match the schema.  On every way out it stops and waits for each process
the run started: shard workers and the ``multiprocessing`` resource
tracker that the engine's spawn context brings up beside them.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
# Module level on purpose: shard workers are spawned and re-import this
# file as their main module; they need the same import path.
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

#: the driver allows 180 s per run; give up (non-zero, no result) before
WATCHDOG_SECONDS = 170.0


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    ``Database.close()`` already reaps the shard workers; what is left on
    a clean run is the resource tracker, which otherwise outlives this
    process (it only exits once it reads EOF on our pipe, after we are
    gone) and would still be there when the next run starts.
    """
    from multiprocessing import resource_tracker

    children = multiprocessing.active_children()
    for child in children:
        child.terminate()
    for child in children:
        child.join(timeout=5.0)
        if child.is_alive():
            child.kill()
            child.join()
    # closes the tracker's pipe and waitpid()s it; a no-op if none ran
    resource_tracker._resource_tracker._stop()


def arm_watchdog() -> threading.Timer:
    def give_up() -> None:
        stop_children()
        os._exit(3)

    timer = threading.Timer(WATCHDOG_SECONDS, give_up)
    timer.daemon = True
    timer.start()
    return timer


def main(argv: list[str] | None = None) -> int:
    from benchmarks.ledger.schema import WORKLOAD_WHY, validate_result

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOAD_WHY))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument(
        "--detail-out", help="also write the run's detail document here"
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print("no engine under src/repro: nothing to measure", file=sys.stderr)
        return 2
    watchdog = arm_watchdog()
    try:
        from benchmarks.ledger import harness  # imports repro: fails without src/

        result, detail = harness.run(
            args.workload, args.seed, args.seconds, bool(args.trace), args.scale
        )
    finally:
        watchdog.cancel()
        stop_children()
    problems = validate_result(result, bool(args.trace))
    if problems:
        print("invalid result: " + "; ".join(problems), file=sys.stderr)
        return 2
    if args.detail_out:
        detail["result"] = result
        with open(args.detail_out, "w") as handle:
            json.dump(detail, handle, indent=1)
            handle.write("\n")
    for note in detail["leaks"] + [
        error
        for phase in ("warm_up", "timed", "untraced", "traced")
        for error in detail.get(phase, {}).get("errors", [])
    ]:
        print(f"note: {note}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
