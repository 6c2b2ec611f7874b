"""The perf ledger: one harness, one schema, seven workloads.

``python -m benchmarks.ledger run`` measures the whole engine from the
outside — end-to-end latency/throughput/memory per workload, a
per-layer table derived from the tracer the engine already ships, and
ratios to a bare-NumPy floor.  ``python -m benchmarks.ledger compare``
turns two such documents into a verdict table.  ``run.py`` is the
single-workload entry the benchmark driver calls (see BENCHMARK.json).

Nothing here imports ``repro.bench``: the ledger outlives it.  See
README.md in this directory for the metric tables and caveats.
"""
