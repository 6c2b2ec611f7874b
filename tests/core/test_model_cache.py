"""Cross-query model build cache: hits, invalidation, correctness."""

import numpy as np
import pytest

import repro
from repro.core.modeljoin.cache import CacheKey, ModelCache
from repro.core.modeljoin.runner import NativeModelJoin
from repro.core.registry import publish_model
from repro.nn.layers import Dense
from repro.nn.model import Sequential
from repro.workloads.models import make_dense_model

# runs again under `python -X dev` with ResourceWarnings as errors (the
# entries' bias replicas outlive the queries that made them)
pytestmark = pytest.mark.leak_guard

ROWS = 600


def make_db(parallelism: int = 1):
    db = repro.connect(parallelism=parallelism)
    db.execute(
        "CREATE TABLE fact (id BIGINT, f0 FLOAT, f1 FLOAT, f2 FLOAT) "
        "PARTITION BY (id) PARTITIONS "
        f"{max(parallelism, 1)}"
    )
    rng = np.random.default_rng(11)
    db.table("fact").append_columns(
        id=np.arange(ROWS, dtype=np.int64),
        f0=rng.random(ROWS, dtype=np.float32),
        f1=rng.random(ROWS, dtype=np.float32),
        f2=rng.random(ROWS, dtype=np.float32),
    )
    return db


def make_model(seed: int = 1) -> Sequential:
    return Sequential(
        [Dense(8, "relu"), Dense(2, "sigmoid")], input_width=3, seed=seed
    )


def run_query(db):
    """One ModelJoin query; returns (predictions, profile)."""
    runner = NativeModelJoin(db, "m")
    predictions = runner.predict(
        "fact", "id", ["f0", "f1", "f2"], parallel=db.parallelism > 1
    )
    return predictions, db.last_profile


class TestWarmQueries:
    def test_second_query_hits_cache(self):
        db = make_db()
        publish_model(db, "m", make_model())
        cold_predictions, cold_profile = run_query(db)
        warm_predictions, warm_profile = run_query(db)
        assert cold_profile.counters.get("model-cache-misses") == 1
        assert cold_profile.counters.get("model-cache-hits") == 0
        assert warm_profile.counters.get("model-cache-hits") == 1
        assert warm_profile.counters.get("model-cache-misses") == 0
        np.testing.assert_array_equal(cold_predictions, warm_predictions)
        db.close()

    def test_warm_build_phase_near_zero(self):
        # Wide enough that the cold build (a 265k-row model-table scan)
        # dwarfs what a hit pays (the checksum of the cached arrays): a
        # small model's cold build is tens of microseconds, where one
        # scheduler hiccup decides the ratio.
        model = Sequential(
            [Dense(512, "relu"), Dense(512, "relu"), Dense(2, "sigmoid")],
            input_width=3,
            seed=1,
        )
        db = make_db()
        publish_model(db, "m", model)

        def build_seconds() -> float:
            return run_query(db)[1].stopwatch.phases["modeljoin-build"]

        cold_build = build_seconds()
        warm_build = min(build_seconds() for _ in range(5))
        assert warm_build < cold_build / 5
        db.close()

    def test_cached_predictions_match_uncached_engine(self):
        cached = make_db()
        publish_model(cached, "m", make_model())
        run_query(cached)  # populate
        warm_predictions, _ = run_query(cached)

        uncached = make_db()
        uncached.model_cache = None
        publish_model(uncached, "m", make_model())
        plain_predictions, plain_profile = run_query(uncached)
        assert plain_profile.counters.get("model-cache-hits") == 0
        assert plain_profile.counters.get("model-cache-misses") == 0
        np.testing.assert_array_equal(warm_predictions, plain_predictions)
        cached.close()
        uncached.close()

    def test_parallel_pipelines_share_one_hit(self):
        db = make_db(parallelism=4)
        publish_model(
            db, "m", make_model(), model_table_partitions=4
        )
        run_query(db)
        warm_predictions, warm_profile = run_query(db)
        # One decision per query, not one per pipeline — a split
        # decision would deadlock on the build barrier.
        assert warm_profile.counters.get("model-cache-hits") == 1
        assert len(warm_predictions) == ROWS
        db.close()

    def test_entry_bytes_do_not_grow_with_vector_size(self):
        # A build holds weights only: the bias replicas are sized by the
        # scored batches and live in each pipeline's arena.
        model = make_dense_model(32, 2, input_width=3, seed=5)
        weights = sum(
            layer.kernel.nbytes + layer.bias.nbytes for layer in model.layers
        )
        for vector_size in (64, 1024, 4096):
            db = make_db()
            db.vector_size = vector_size
            publish_model(db, "m", model)
            run_query(db)
            (entry,) = [built for _, built in db.model_cache.entries()]
            assert entry.nominal_bytes() == weights
            assert db.model_cache.resident_bytes == weights
            db.close()

    def test_many_models_with_replicas_stay_under_the_cap(self):
        # each query keeps one 600-row replica per layer beside its
        # build; with six models the builds and replicas together pass
        # the cap many times over, and LRU eviction must keep them
        # under it without changing a prediction
        db = make_db()
        db.vector_size = ROWS
        models = [make_model(seed) for seed in range(6)]
        for index, model in enumerate(models):
            publish_model(db, f"m{index}", model)
        weights = sum(
            layer.kernel.nbytes + layer.bias.nbytes
            for layer in models[0].layers
        )
        replicas = ROWS * 4 * (8 + 2)
        db.model_cache.capacity_bytes = 2 * (weights + replicas) + weights
        expected = {}
        for _ in range(2):
            for index in range(len(models)):
                runner = NativeModelJoin(db, f"m{index}")
                got = runner.predict("fact", "id", ["f0", "f1", "f2"])
                expected.setdefault(index, got)
                np.testing.assert_array_equal(got, expected[index])
                kept = db.model_cache.memory.current_bytes
                assert kept <= db.model_cache.capacity_bytes
                assert db.model_cache.replica_bytes > 0
        assert db.model_cache.statistics()["evictions"] >= len(models)
        db.close()

    def test_sql_model_join_uses_the_same_cache(self):
        db = make_db()
        publish_model(db, "m", make_model())
        run_query(db)  # native API populates the cache
        db.execute(
            "SELECT id, m.prediction_0 FROM fact "
            "MODEL JOIN m USING (f0, f1, f2)"
        )
        assert db.last_profile.counters.get("model-cache-hits") == 1
        db.close()


class TestInvalidation:
    def test_insert_into_model_table_misses_and_changes_predictions(self):
        db = make_db()
        publish_model(db, "m", make_model())
        before, _ = run_query(db)
        run_query(db)  # warm: entry definitely resident

        # Overwrite one weight: rows fill by (node_in, node) coordinates
        # and later rows win, so re-inserting an existing coordinate
        # with a new w_i value changes the rebuilt model.  The last
        # row's: appends keep the table's SORTED BY (node) order.
        table = db.table("m_table")
        row = list(list(table.scan())[-1].to_rows()[-1])
        weight_position = table.schema.position_of("w_i")
        row[weight_position] = float(row[weight_position]) + 5.0
        version_before = table.version
        table.append_rows([tuple(row)])
        assert table.version == version_before + 1

        after, profile = run_query(db)
        assert profile.counters.get("model-cache-misses") == 1
        assert profile.counters.get("model-cache-hits") == 0
        assert not np.array_equal(before, after)
        db.close()

    def test_reregister_invalidates_and_changes_predictions(self):
        db = make_db()
        publish_model(db, "m", make_model(seed=1))
        before, _ = run_query(db)
        publish_model(db, "m", make_model(seed=2), replace=True)
        after, profile = run_query(db)
        assert profile.counters.get("model-cache-misses") == 1
        assert not np.array_equal(before, after)
        db.close()

    def test_drop_table_evicts_entries(self):
        db = make_db()
        publish_model(db, "m", make_model())
        run_query(db)
        assert len(db.model_cache) == 1
        db.execute("DROP TABLE m_table")
        assert len(db.model_cache) == 0
        assert db.model_cache.statistics()["invalidations"] == 1
        assert db.model_cache.resident_bytes == 0
        db.close()

    def test_recreated_table_cannot_alias_old_entry(self):
        db = make_db()
        publish_model(db, "m", make_model(seed=1))
        run_query(db)
        old_uid = db.table("m_table").uid
        db.execute("DROP TABLE m_table")
        publish_model(db, "m", make_model(seed=2))
        # Same name, fresh identity: version counters restart but the
        # uid differs, so even a stale entry could never match.
        assert db.table("m_table").uid != old_uid
        _, profile = run_query(db)
        assert profile.counters.get("model-cache-misses") == 1
        db.close()


class _StubModel:
    def __init__(self, nbytes: int):
        self._nbytes = nbytes

    def nominal_bytes(self) -> int:
        return self._nbytes


def stub_key(tag: int) -> CacheKey:
    return CacheKey(
        model_table="t",
        table_uid=tag,
        table_version=0,
        model_name="m",
        device="cpu",
    )


class TestCacheDataStructure:
    def test_lru_eviction_respects_capacity(self):
        cache = ModelCache(capacity_bytes=250)
        cache.put(stub_key(1), _StubModel(100))
        cache.put(stub_key(2), _StubModel(100))
        cache.get(stub_key(1))  # make key 2 the LRU entry
        cache.put(stub_key(3), _StubModel(100))
        assert cache.get(stub_key(2)) is None
        assert cache.get(stub_key(1)) is not None
        assert cache.get(stub_key(3)) is not None
        assert cache.statistics()["evictions"] == 1
        assert cache.resident_bytes <= 250

    def test_oversized_build_not_retained(self):
        cache = ModelCache(capacity_bytes=50)
        cache.put(stub_key(1), _StubModel(100))
        assert len(cache) == 0
        assert cache.resident_bytes == 0

    def test_invalidate_table_releases_bytes(self):
        cache = ModelCache()
        cache.put(stub_key(1), _StubModel(100))
        removed = cache.invalidate_table("T")  # case-insensitive
        assert removed == 1
        assert cache.resident_bytes == 0

    def test_replicas_are_shared_read_only_and_grow(self):
        cache = ModelCache()
        built = _StubModel(100)
        cache.put(stub_key(1), built)
        bias = np.arange(10, dtype=np.float32)  # 40 bytes a row
        replica = cache.bias_replica(stub_key(1), built, "b", bias, 3)
        np.testing.assert_array_equal(replica, np.tile(bias, (3, 1)))
        assert not replica.flags.writeable
        assert cache.replica_bytes == 120 and cache.resident_bytes == 100
        again = cache.bias_replica(stub_key(1), built, "b", bias, 2)
        assert np.shares_memory(again, replica)
        longer = cache.bias_replica(stub_key(1), built, "b", bias, 5)
        assert longer.shape == (5, 10) and cache.replica_bytes == 200
        assert cache.statistics()["replica_bytes"] == 200
        # a build the entry does not hold gets none
        assert cache.bias_replica(stub_key(1), _StubModel(100), "b",
                                  bias, 1) is None
        assert cache.bias_replica(stub_key(2), built, "b", bias, 1) is None

    def test_replicas_count_toward_the_cap(self):
        cache = ModelCache(capacity_bytes=1_000)
        bias = np.ones(10, dtype=np.float32)  # 40 bytes a row
        first = _StubModel(300)
        cache.put(stub_key(1), first)
        assert cache.bias_replica(stub_key(1), first, "b", bias, 10) is not None
        # 300 + 800 would pass the cap: not kept, the caller replicates
        assert cache.bias_replica(stub_key(1), first, "b", bias, 20) is None
        assert cache.replica_bytes == 400
        cache.put(stub_key(2), _StubModel(300))  # 1 000: still fits
        assert cache.statistics()["evictions"] == 0
        # the LRU entry goes with its replicas
        cache.put(stub_key(3), _StubModel(300))
        assert cache.statistics()["evictions"] == 1
        assert cache.get(stub_key(1)) is None
        assert cache.replica_bytes == 0
        assert cache.memory.current_bytes == 600
        assert cache.bias_replica(stub_key(1), first, "b", bias, 1) is None

    def test_invalidation_and_clear_release_replicas(self):
        cache = ModelCache()
        built = _StubModel(100)
        cache.put(stub_key(1), built)
        cache.bias_replica(stub_key(1), built, "b", np.ones(4, np.float32), 8)
        cache.invalidate_table("t")
        assert cache.memory.current_bytes == 0
        cache.put(stub_key(1), built)
        cache.bias_replica(stub_key(1), built, "b", np.ones(4, np.float32), 8)
        cache.clear()
        assert cache.memory.current_bytes == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            ModelCache(capacity_bytes=-1)
