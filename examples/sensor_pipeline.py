"""An IoT-style analytics pipeline with inference in the middle.

The paper motivates in-DBMS inference with workloads where predictions
feed further relational processing ("query integration", Section 1):
once data leaves for Python, the rest of the pipeline must follow.

This example trains an anomaly model on labelled readings with
``CREATE MODEL``, then scores the readings with it and — inside the
same SQL query — joins device metadata, filters on the score, and
aggregates per site.  Only the small aggregate leaves
the engine, which is also the paper's privacy argument ("accessing
sensitive data"): raw readings never cross the database boundary.

Run:  python examples/sensor_pipeline.py
"""

import numpy as np

import repro

READINGS = ["temperature", "vibration", "current"]
SCALED = ", ".join(f"{name}_scaled" for name in READINGS)
POSITIVE_WEIGHT = 16  # each labelled anomaly is seen 16 times


def build_data(db, rows=5_000, devices=20):
    rng = np.random.default_rng(11)
    device_ids = rng.integers(0, devices, size=rows)
    temperature = rng.normal(40, 5, size=rows).astype(np.float32)
    vibration = rng.normal(1.0, 0.3, size=rows).astype(np.float32)
    current = rng.normal(10, 2, size=rows).astype(np.float32)
    # A planted anomaly pattern: hot + shaky machines.  The readings
    # carry it as the label of a historical, annotated log.
    anomaly = (
        (temperature > 46) & (vibration > 1.2)
    ).astype(np.float32)
    db.execute(
        "CREATE TABLE readings (id INTEGER, device_id INTEGER, "
        "temperature FLOAT, vibration FLOAT, current FLOAT, anomaly FLOAT)"
    )
    db.table("readings").append_columns(
        id=np.arange(rows, dtype=np.int64),
        device_id=device_ids.astype(np.int64),
        temperature=temperature,
        vibration=vibration,
        current=current,
        anomaly=anomaly,
    )
    db.execute("CREATE TABLE devices (device_id INTEGER, site INTEGER)")
    db.table("devices").append_columns(
        device_id=np.arange(devices, dtype=np.int64),
        site=(np.arange(devices) % 4).astype(np.int64),
    )
    db.execute("CREATE TABLE copies (n INTEGER)")
    db.table("copies").append_columns(
        n=np.arange(POSITIVE_WEIGHT, dtype=np.int64)
    )
    return int(anomaly.sum())


def standardized_query(db) -> str:
    """SELECT id and every reading as ``(x - mean) / std``; the stats
    are read through SQL (the engine has no global aggregation, so
    aggregate over a constant key)."""
    selects = ["id"]
    for name in READINGS:
        stats = db.execute(
            f"SELECT one, AVG({name}) AS mean, AVG({name} * {name}) AS sq "
            f"FROM (SELECT 1 AS one, {name} FROM readings) AS t GROUP BY one"
        )
        mean = float(stats.column("mean")[0])
        std = (float(stats.column("sq")[0]) - mean * mean) ** 0.5
        selects.append(f"(({name} - {mean!r}) / {std!r}) AS {name}_scaled")
    return f"SELECT {', '.join(selects)} FROM readings"


def main() -> None:
    db = repro.connect()
    true_anomalies = build_data(db)

    # Train on standardized readings (raw temperatures saturate tanh),
    # oversampling the ~3% positive class through a join with
    # the copies table so the model actually alarms: a positive row
    # matches every copy, a negative row only copy 0.
    scaled_query = standardized_query(db)
    (summary,) = db.execute(
        "CREATE MODEL anomaly_model AS TRAIN DENSE(12 tanh, 1 sigmoid) "
        f"ON (SELECT {SCALED}, r.anomaly "
        f"    FROM ({scaled_query}) AS s, readings AS r, copies AS k "
        "    WHERE s.id = r.id "
        f"    AND k.n < 1 + {POSITIVE_WEIGHT - 1} * r.anomaly) "
        "WITH (epochs=80, lr=0.1, seed=5)"
    ).rows
    print(
        f"anomaly model trained on {summary[4]} batches: "
        f"final loss {summary[5]:.3f}"
    )

    # One query: scale -> score -> filter -> join metadata -> aggregate.
    result = db.execute(
        "SELECT d.site AS site, COUNT(*) AS alarms, "
        "AVG(r.temperature) AS avg_temp "
        "FROM (SELECT id, prediction_0 "
        f"      FROM ({scaled_query}) AS s "
        f"      MODEL JOIN anomaly_model USING ({SCALED})) AS p, "
        "     readings AS r, devices AS d "
        "WHERE p.id = r.id AND r.device_id = d.device_id "
        "AND p.prediction_0 > 0.5 "
        "GROUP BY d.site ORDER BY site"
    )
    print("\nalarms per site (only this aggregate left the engine):")
    print(f"{'site':>6} {'alarms':>8} {'avg_temp':>10}")
    for site, alarms, avg_temp in result.rows:
        print(f"{site:>6} {alarms:>8} {avg_temp:>10.1f}")

    total_alarms = sum(row[1] for row in result.rows)
    print(
        f"\n{total_alarms} alarms raised, {true_anomalies} planted "
        "anomalies in the data"
    )


if __name__ == "__main__":
    main()
