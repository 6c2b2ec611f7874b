"""``python -m benchmarks.ledger {run,compare,spread,manifest}``.

``run`` launches every workload in its own fresh Python process, one
after another (so ``peak_rss_mb`` and cache state are per workload):
``--repeats`` end-to-end runs and one traced run each, merged into one
JSON document in one schema, and prints every metric by name with its
unit.  ``compare A.json B.json`` is the verdict table later PRs paste
into their descriptions.  ``spread`` is the steadiness check of the
benchmark itself: ten driver-style runs per workload on ten seeds, and
each end-to-end metric's interquartile distance as a share of its
median.  ``manifest`` writes (or ``--check``s) the ``BENCHMARK.json``
generated from ``schema.py``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from benchmarks.ledger import compare as comparison
from benchmarks.ledger import schema

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"


def launch(workload: str, seed: int, seconds: float, trace: int, scale: str):
    """One run in a fresh interpreter; returns its detail document."""
    with tempfile.NamedTemporaryFile(
        suffix=".json", dir=OUT_DIR, delete=False
    ) as handle:
        detail_path = Path(handle.name)
    try:
        completed = subprocess.run(
            [
                sys.executable, str(HERE / "run.py"),
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace),
                "--scale", scale, "--detail-out", str(detail_path),
            ],
            cwd=ROOT, capture_output=True, text=True, timeout=180,
        )
        if completed.returncode != 0:
            raise SystemExit(
                f"{workload} (trace {trace}) exited {completed.returncode}:\n"
                f"{completed.stderr}"
            )
        return json.loads(detail_path.read_text())
    finally:
        detail_path.unlink(missing_ok=True)


def merge(workload: str, runs: list[dict], traced: dict) -> dict:
    """One workload's entry of the ledger document."""
    first = runs[0]
    end_to_end = {}
    for metric in schema.END_TO_END:
        values = [
            run["result"]["metrics"][metric.name]["value"] for run in runs
        ]
        end_to_end[metric.name] = {
            "value": statistics.median(values),
            "unit": metric.unit,
            "better": metric.better,
            "bound": metric.bound,
            "runs": values,
        }
    layers = {
        metric.name: {
            **traced["result"]["metrics"][metric.name],
            "layer": metric.layer,
            "source": metric.source,
        }
        for metric in schema.PER_LAYER
    }
    attempted = sum(run["result"]["attempted"] for run in runs)
    failed = sum(run["result"]["failed"] for run in runs)
    return {
        **first["workload"],
        "correct": all(run["result"]["correct"] for run in runs)
        and traced["result"]["correct"],
        "attempted": attempted,
        "succeeded": attempted - failed,
        "failed": failed,
        "samples_per_run": [run["timed"]["succeeded"] for run in runs],
        "latency_quartiles_ms": first["timed"]["quartiles_ms"],
        "setup_runs_s": first["setup_runs_s"],
        "end_to_end": end_to_end,
        "traced_pass": {
            "attempted": traced["result"]["attempted"],
            "failed": traced["result"]["failed"],
            "spans": traced["spans"],
            "untraced_samples": traced["untraced"]["succeeded"],
        },
        "per_layer": layers,
        "known_leaks": sorted(
            {leak for run in runs + [traced] for leak in run["known_leaks"]}
        ),
    }


def render(document: dict) -> str:
    workloads = document["workloads"]
    names = list(workloads)
    lines = [
        f"perf ledger  seed {document['seed']}  {document['seconds']} s/run  "
        f"{document['repeats']} repeat(s)  scale {document['scale']}",
        "box: " + ", ".join(
            f"{key}={value}" for key, value in document["environment"].items()
        ),
        "",
        "end-to-end (median of repeats; tracing off; closed loop)",
    ]
    header = f"{'workload':<13}" + "".join(
        f"{metric.name + ' [' + metric.unit + ']':>20}"
        for metric in schema.END_TO_END
    ) + f"{'ops ok/failed':>16}{'clients':>8}{'rows':>9}"
    lines.append(header)
    for name in names:
        entry = workloads[name]
        lines.append(
            f"{name:<13}" + "".join(
                f"{entry['end_to_end'][metric.name]['value']:>20.4f}"
                for metric in schema.END_TO_END
            )
            + f"{entry['succeeded']:>10}/{entry['failed']:<5}"
            + f"{entry['clients']:>8}{entry['rows']:>9}"
        )
    lines += ["", "per layer (traced pass; 0 = layer bypassed or not defined)"]
    lines.append(
        f"{'metric [unit]':<42}{'src':>4}" + "".join(
            f"{name[:12]:>13}" for name in names
        )
    )
    layer = None
    for metric in schema.PER_LAYER:
        if metric.layer != layer:
            layer = metric.layer
            lines.append(f"-- {layer}")
        lines.append(
            f"{metric.name + ' [' + metric.unit + ']':<42}{metric.source:>4}"
            + "".join(
                f"{workloads[name]['per_layer'][metric.name]['value']:>13.4g}"
                for name in names
            )
        )
    incorrect = [name for name in names if not workloads[name]["correct"]]
    lines += ["", f"incorrect workloads: {incorrect or 'none'}", '"claim": null']
    return "\n".join(lines)


def command_run(args) -> int:
    OUT_DIR.mkdir(exist_ok=True)
    names = args.workload or list(schema.WORKLOAD_WHY)
    document = {
        "schema": "ledger/1",
        "seed": args.seed,
        "seconds": args.seconds,
        "repeats": args.repeats,
        "scale": args.scale,
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "workloads": {},
    }
    for name in names:
        print(f"running {name} ...", file=sys.stderr, flush=True)
        runs = [
            launch(name, args.seed, args.seconds, 0, args.scale)
            for _ in range(args.repeats)
        ]
        traced = launch(name, args.seed, args.seconds, 1, args.scale)
        document.setdefault("environment", traced["environment"])
        document["workloads"][name] = merge(name, runs, traced)
    document["claim"] = None
    out = Path(args.out) if args.out else OUT_DIR / f"ledger-seed{args.seed}.json"
    out.write_text(json.dumps(document, indent=1) + "\n")
    print(render(document))
    print(f"written to {out}", file=sys.stderr)
    return 0 if all(e["correct"] for e in document["workloads"].values()) else 1


def command_compare(args) -> int:
    base = json.loads(Path(args.base).read_text())
    other = json.loads(Path(args.other).read_text())
    rows, ok = comparison.compare(base, other)
    print(comparison.render(rows, args.base, args.other))
    return 0 if ok else 1


def quartile_spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def command_spread(args) -> int:
    """Ten runs per workload, each on another seed, as the driver makes
    them; per metric the median and the spread, at nominal speed and (for
    the timings) as measured.  Exit 1 if a spread exceeds its bound."""
    OUT_DIR.mkdir(exist_ok=True)
    names = args.workload or list(schema.WORKLOAD_WHY)
    raw_keys = {"query_p50_ms": "p50_ms", "query_p90_ms": "p90_ms",
                "ops_per_s": "ops_per_s"}
    document, within = {}, True
    for name in names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + 10):
            started = time.perf_counter()
            detail = launch(name, seed, args.seconds, 0, "full")
            run = detail["result"]
            if not run["correct"]:
                raise SystemExit(f"{name} seed {seed}: incorrect run")
            raw = {m: detail["timed"]["raw"][k] for m, k in raw_keys.items()}
            raw["setup_s"] = statistics.median(detail["setup_runs_raw_s"])
            runs.append({
                **run, "seed": seed, "raw": raw,
                "slowdown": statistics.median(detail["timed"]["slowdowns"]),
                "wall_s": time.perf_counter() - started,
            })
        document[name] = runs
        cells = []
        for metric in schema.END_TO_END:
            values = [run["metrics"][metric.name]["value"] for run in runs]
            spread = quartile_spread(values)
            if metric.name != "setup_s" and spread > metric.bound:
                within = False
            cell = (f"{metric.name} {statistics.median(values):.4g} "
                    f"({spread:.1%}")
            if metric.name in runs[0]["raw"]:
                measured = [run["raw"][metric.name] for run in runs]
                cell += f"; as measured {quartile_spread(measured):.1%}"
            cells.append(cell + ")")
        print(f"{name}: " + "  ".join(cells), flush=True)
    out = Path(args.out) if args.out else (
        OUT_DIR / f"spread-seed{args.first_seed}.json"
    )
    out.write_text(json.dumps(document, indent=1) + "\n")
    print(f"written to {out}", file=sys.stderr)
    return 0 if within else 1


def command_manifest(args) -> int:
    text = json.dumps(schema.manifest(), indent=2) + "\n"
    path = ROOT / "BENCHMARK.json"
    if args.check:
        return 0 if path.exists() and path.read_text() == text else 1
    path.write_text(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run the ledger, write one JSON")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--workload", action="append",
                     choices=list(schema.WORKLOAD_WHY))
    run.add_argument("--out")
    run.add_argument("--seconds", type=float, default=schema.RUN_SECONDS)
    run.add_argument("--repeats", type=int, default=1)
    run.add_argument("--scale", choices=("full", "tiny"), default="full")
    run.set_defaults(function=command_run)
    compare = commands.add_parser("compare", help="verdict table A vs B")
    compare.add_argument("base")
    compare.add_argument("other")
    compare.set_defaults(function=command_compare)
    spread = commands.add_parser("spread", help="ten seeds per workload")
    spread.add_argument("--first-seed", type=int, default=101)
    spread.add_argument("--workload", action="append",
                        choices=list(schema.WORKLOAD_WHY))
    spread.add_argument("--out")
    spread.add_argument("--seconds", type=float, default=schema.RUN_SECONDS)
    spread.set_defaults(function=command_spread)
    manifest = commands.add_parser("manifest", help="write BENCHMARK.json")
    manifest.add_argument("--check", action="store_true")
    manifest.set_defaults(function=command_manifest)
    args = parser.parse_args(argv)
    return args.function(args)


if __name__ == "__main__":
    sys.exit(main())
