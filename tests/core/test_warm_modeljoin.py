"""Warm point MODEL JOINs reuse the model cache's bias replicas.

On the host, the §5.4 bias replicas of a cached build are kept beside
its model-cache entry, read-only, and shared by every statement scoring
it.  Sharing must never show:

* four served sessions scoring one model at once, switching threads often,
  get what direct execution gets, bit for bit;
* after an INSERT into the model table, ``ALTER MODEL … SET VERSION``
  or dropping and republishing the model, the next warm hit serves the
  new weights (a cold plan on an emptied cache agrees);
* a simulated-GPU point MODEL JOIN keeps its per-query device counters:
  every warm hit makes the device calls the cold run's inference made,
  which are those of an engine without a model cache;
* an injected ``cache.load`` corruption still quarantines the entry and
  rebuilds it.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

import repro
from repro.core.modeljoin.operator import ModelJoinOperator
from repro.core.registry import publish_model
from repro.db import faults
from repro.db.faults import FaultInjector
from repro.db.serve import Server
from repro.nn.layers import Dense
from repro.nn.model import Sequential

# runs again under `python -X dev` with ResourceWarnings as errors
pytestmark = pytest.mark.leak_guard

ROWS = 5_000
POINT = (
    "SELECT id, prediction_0, prediction_1 FROM fact MODEL JOIN m "
    "USING (f0, f1, f2){variant} WHERE id = {key}"
)


def _model(seed: int) -> Sequential:
    return Sequential(
        [Dense(16, "relu"), Dense(8, "tanh"), Dense(2, "sigmoid")],
        input_width=3,
        seed=seed,
    )


@pytest.fixture
def db():
    database = repro.connect()
    database.execute(
        "CREATE TABLE fact (id INTEGER, f0 FLOAT, f1 FLOAT, f2 FLOAT)"
    )
    rng = np.random.default_rng(5)
    database.table("fact").append_columns(
        id=np.arange(ROWS, dtype=np.int64),
        f0=rng.random(ROWS, dtype=np.float32),
        f1=rng.random(ROWS, dtype=np.float32),
        f2=rng.random(ROWS, dtype=np.float32),
    )
    publish_model(database, "m", _model(1))
    yield database
    database.close()


@pytest.fixture(autouse=True)
def no_leaked_injector():
    yield
    faults.uninstall()


def point(key: int, variant: str = "") -> str:
    return POINT.format(key=key, variant=variant)


def scores(result) -> bytes:
    return b"".join(
        result.column(name).tobytes()
        for name in result.schema.names
    )


def cold(database, sql: str) -> bytes:
    """*sql* built and planned cold: no cached build, no kept replicas,
    no template."""
    database.model_cache.clear()
    database.plan_cache.clear()
    return scores(database.execute(sql))


def replicas(database) -> dict:
    """The bias replicas the model cache keeps, by entry."""
    return {
        key: dict(held[1])
        for key, held in database.model_cache._replicas.items()
    }


def point_replica_bytes(model: Sequential) -> int:
    """One float32 row per layer: a point statement's replicas."""
    return sum(4 * layer.units for layer in model.layers)


def test_warm_hits_share_the_entrys_replicas(db):
    first = db.execute(point(7))
    assert db.last_profile.counters.get("model-cache-misses") == 1
    kept = replicas(db)
    assert db.model_cache.replica_bytes == point_replica_bytes(_model(1))
    shown = db.execute("SELECT replica_bytes FROM system.model_cache")
    assert shown.column("replica_bytes").tolist() == [
        point_replica_bytes(_model(1))
    ]
    for key in (7, 8, 4999):
        warm = db.execute(point(key))
        assert db.last_profile.counters.get("model-cache-hits") == 1
        # the same arrays, not refilled copies
        now = replicas(db)
        assert now.keys() == kept.keys()
        assert all(
            now[entry][tag] is replica
            for entry, held in kept.items()
            for tag, replica in held.items()
        )
        if key == 7:
            assert scores(warm) == scores(first)
    assert scores(db.execute(point(4999))) == cold(db, point(4999))


def test_concurrent_sessions_match_direct_execution(db):
    # four sessions, switching threads often, all reading the one
    # entry's replicas
    keys = {index: range(1_000 * index, 1_000 * index + 100)
            for index in range(4)}
    direct = {
        key: scores(db.execute(point(key)))
        for session_keys in keys.values()
        for key in session_keys
    }
    served: dict[int, bytes] = {}
    errors: list[BaseException] = []
    start = threading.Barrier(len(keys))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with Server(db, dispatchers=len(keys)) as server:

            def client(index: int) -> None:
                try:
                    with server.open_session(tenant=f"t{index}") as session:
                        start.wait(timeout=30)
                        for key in keys[index]:
                            served[key] = scores(
                                session.execute(
                                    point(key), timeout_seconds=30
                                )
                            )
                except BaseException as error:  # reported below
                    errors.append(error)

            threads = [
                threading.Thread(target=client, args=(index,))
                for index in keys
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    assert served == direct
    assert db.model_cache.replica_bytes == point_replica_bytes(_model(1))


def test_insert_into_model_table_serves_the_new_weights(db):
    before = scores(db.execute(point(3)))
    db.execute(point(3))  # a warm hit on the kept replicas
    # rows fill by (node_in, node) coordinates and later rows win, so
    # re-appending the last row with another weight changes the build
    table = db.table("m_table")
    row = list(list(table.scan())[-1].to_rows()[-1])
    weight = table.schema.position_of("w_i")
    row[weight] = float(row[weight]) + 5.0
    table.append_rows([tuple(row)])
    after = scores(db.execute(point(3)))
    assert after != before
    assert scores(db.execute(point(3))) == after
    assert after == cold(db, point(3))


def _train(database, mode: str, seed: int) -> None:
    database.execute(
        f"CREATE MODEL clf AS {mode} DENSE(6 relu, 1 sigmoid) "
        "ON (SELECT f0, f1, f2 FROM fact WHERE id < 400) "
        f"WITH (epochs=2, batch_size=64, lr=0.05, seed={seed})"
    )


def test_alter_model_version_serves_the_new_weights(db):
    _train(db, "TRAIN", 1)
    _train(db, "RETRAIN", 2)
    sql = (
        "SELECT id, prediction_0 FROM fact MODEL JOIN clf "
        "USING (f0, f1) WHERE id = {}"
    )
    db.execute(sql.format(1))
    version1 = scores(db.execute(sql.format(11)))
    db.execute("ALTER MODEL clf SET VERSION 2")
    db.execute(sql.format(1))
    version2 = scores(db.execute(sql.format(11)))
    assert version2 != version1
    assert version2 == cold(db, sql.format(11))
    db.execute("ALTER MODEL clf SET VERSION 1")
    db.execute(sql.format(1))
    assert scores(db.execute(sql.format(11))) == version1


def test_dropped_and_republished_model_serves_the_new_weights(db):
    # the engine has no DROP MODEL: dropping the weight table drops the
    # model, and the name is then published afresh
    db.execute(point(9))
    before = scores(db.execute(point(9)))
    db.execute("DROP TABLE m_table")
    assert len(db.model_cache) == 0 and not replicas(db)
    assert db.model_cache.memory.current_bytes == 0
    publish_model(db, "m", _model(2))
    db.execute(point(9))
    after = scores(db.execute(point(9)))
    assert after != before
    assert after == cold(db, point(9))


#: the device counters a kernel moves (not the measured host seconds)
KERNEL_STATS = (
    "kernel_launches",
    "flops",
    "elementwise_elements",
    "bytes_to_host",
    "modeled_kernel_seconds",
)


def device_stats(database, sql: str):
    """The DeviceStats of *sql*'s ModelJoin (one pipeline)."""
    query = database.query_context(sql, analyze=True)
    database.execute_statement(database.parse(sql), query)
    stack = [query.plans[0]]
    while stack:
        operator = stack.pop()
        if isinstance(operator, ModelJoinOperator):
            return operator.device.stats
        stack.extend(operator.children())
    raise AssertionError("no ModelJoin in the plan")


def test_simulated_gpu_keeps_its_per_query_device_stats(db):
    # the cold run builds (uploading the weights) and then scores with a
    # fresh state; every warm hit must make the same device calls for
    # its inference, bias-replica fills included
    gpu = " VARIANT 'native-gpu'"
    cold_stats = device_stats(db, point(5, gpu))
    assert cold_stats.modeled_kernel_seconds > 0
    weights = sum(
        array.nbytes
        for built in db.model_cache._entries.values()
        for layer in built.layers
        for array in (layer.kernel, layer.bias)
    )
    for _ in range(3):
        warm = device_stats(db, point(5, gpu))
        assert db.last_profile.counters.get("model-cache-hits") == 1
        for name in KERNEL_STATS:
            assert getattr(warm, name) == getattr(cold_stats, name), name
        assert warm.bytes_to_device == cold_stats.bytes_to_device - weights
        assert (
            warm.modeled_transfer_seconds
            < cold_stats.modeled_transfer_seconds
        )
    # the replicas too: an engine without a model cache replicates per
    # statement in the arena, and a cached one must make the same calls
    db.model_cache = None
    db.plan_cache.clear()
    uncached = device_stats(db, point(5, gpu))
    for name in KERNEL_STATS:
        assert getattr(uncached, name) == getattr(cold_stats, name), name


def test_injected_corruption_quarantines_the_entry_and_its_replicas(db):
    want = scores(db.execute(point(21)))
    db.execute(point(21))
    (before,) = replicas(db).values()
    with faults.active(FaultInjector(seed=3)) as injector:
        injector.corrupt_payload("cache.load", probability=1.0)
        got = db.execute(point(21))
        counters = db.last_profile.counters
    assert scores(got) == want
    assert counters.get("model-cache-misses") == 1
    assert db.model_cache.statistics()["corruptions"] == 1
    assert db.metrics.counter("cache.corruption").value == 1
    # the rebuilt entry is verified and keeps replicas of its own
    assert scores(db.execute(point(21))) == want
    assert db.last_profile.counters.get("model-cache-hits") == 1
    assert db.model_cache.statistics()["corruptions"] == 1
    (after,) = replicas(db).values()
    assert all(after[tag] is not before[tag] for tag in before)
    assert db.model_cache.replica_bytes == point_replica_bytes(_model(1))
