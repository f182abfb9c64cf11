"""Tests for the online serving layer: sharded index, micro-batcher,
service facade, and store-backed model/index snapshots."""

import itertools
import sys
import threading
import time

import numpy as np
import pytest

from repro.config import TrainConfig, UHSCMConfig
from repro.core.hashing_network import HashingNetwork
from repro.core.persistence import save_uhscm
from repro.core.uhscm import UHSCM
from repro.errors import (
    ConfigurationError,
    NotFittedError,
    OverloadedError,
    ShapeError,
)
from repro.pipeline import ArtifactStore
from repro.retrieval import HammingIndex
from repro.serving import (
    INDEX_STAGE,
    EncodeBatcher,
    HashingService,
    ShardedIndex,
    load_model,
    publish_model,
)


def random_codes(n, k, seed=0):
    rng = np.random.default_rng(seed)
    return np.where(rng.random((n, k)) < 0.5, -1.0, 1.0)


def identity_network(bits=16, dim=8, rng=0, dtype="float64"):
    return HashingNetwork(bits, mode="feature", feature_extractor=lambda x: x,
                         feature_dim=dim, rng=rng, dtype=dtype)


class TestShardedIndex:
    def test_partition_by_id_modulo(self):
        index = ShardedIndex(8, n_shards=3).add(random_codes(10, 8))
        assert index.shard_sizes == (4, 3, 3)  # ids 0,3,6,9 / 1,4,7 / 2,5,8
        assert len(index) == 10

    def test_merge_identical_to_single_index_under_churn(self):
        k = 32
        single = HammingIndex(k)
        sharded = ShardedIndex(k, n_shards=3)
        rng = np.random.default_rng(3)
        for step in range(3):
            batch = random_codes(50, k, seed=50 + step)
            single.add(batch)
            sharded.add(batch)
            drop = rng.choice((step + 1) * 50, size=9, replace=False)
            assert single.remove(drop) == sharded.remove(drop)
        queries = random_codes(6, k, seed=60)
        s_ids, s_dist = single.search(queries, top_k=17)
        m_ids, m_dist = sharded.search(queries, top_k=17)
        np.testing.assert_array_equal(s_ids, m_ids)
        np.testing.assert_array_equal(s_dist, m_dist)
        for radius in (0, 5, k):
            for a, b in zip(single.radius_search(queries, radius),
                            sharded.radius_search(queries, radius)):
                np.testing.assert_array_equal(a, b)

    def test_more_shards_than_rows(self):
        index = ShardedIndex(8, n_shards=6).add(random_codes(3, 8, seed=1))
        assert len(index) == 3
        assert sum(index.shard_sizes) == 3
        ids, dist = index.search(random_codes(2, 8, seed=2), top_k=3)
        brute = HammingIndex(8).add(random_codes(3, 8, seed=1))
        b_ids, b_dist = brute.search(random_codes(2, 8, seed=2), top_k=3)
        np.testing.assert_array_equal(ids, b_ids)
        np.testing.assert_array_equal(dist, b_dist)

    def test_empty_raises_not_fitted(self):
        with pytest.raises(NotFittedError):
            ShardedIndex(8).search(random_codes(1, 8), top_k=1)

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            ShardedIndex(8, n_shards=0)
        with pytest.raises(ShapeError):
            ShardedIndex(0)


class TestEncodeBatcher:
    def test_size_trigger(self):
        net = identity_network()
        batcher = EncodeBatcher(net, max_batch=3)
        vectors = np.random.default_rng(0).normal(size=(5, 8))
        tickets = batcher.submit_many(vectors)
        assert not any(t.ready for t in tickets)  # submit never forwards
        assert len(batcher) == 5
        assert tickets[0].result().shape == (16,)
        assert [t.ready for t in tickets] == [True] * 3 + [False] * 2
        got = np.stack([t.result() for t in tickets])
        np.testing.assert_array_equal(got, net.encode(vectors))
        assert batcher.stats()["flush_sizes"] == {3: 1, 2: 1}
        assert len(batcher) == 0

    def test_result_forces_flush(self):
        net = identity_network()
        batcher = EncodeBatcher(net, max_batch=100)
        (ticket,) = batcher.submit_many(np.full((1, 8), 0.5))
        code = ticket.result()
        np.testing.assert_array_equal(code, net.encode(np.full((1, 8), 0.5))[0])
        assert batcher.flushes == 1

    def test_codes_match_bulk_encode(self):
        net = identity_network()
        vectors = np.random.default_rng(1).normal(size=(7, 8))
        batcher = EncodeBatcher(net, max_batch=4)
        tickets = batcher.submit_many(vectors)
        assert batcher.flush() == 7
        got = np.stack([t.result() for t in tickets])
        np.testing.assert_array_equal(got, net.encode(vectors))

    def test_float32_dtype_policy(self):
        net = identity_network(dtype="float32")
        batcher = EncodeBatcher(net, max_batch=2)
        (ticket,) = batcher.submit_many(
            np.random.default_rng(2).normal(size=(1, 8)))
        assert ticket.result().shape == (16,)

    def test_stats_histogram(self):
        net = identity_network()
        batcher = EncodeBatcher(net, max_batch=2)
        batcher.submit_many(np.random.default_rng(3).normal(size=(5, 8)))
        batcher.flush()
        stats = batcher.stats()
        assert stats["requests"] == 5
        assert stats["flush_sizes"] == {2: 2, 1: 1}
        assert stats["pending"] == 0

    def test_invalid_arguments(self):
        net = identity_network()
        with pytest.raises(ConfigurationError):
            EncodeBatcher(net, max_batch=0)
        with pytest.raises(ShapeError):
            EncodeBatcher(net).submit_many(np.float64(3.0))
        with pytest.raises(ShapeError):
            EncodeBatcher(net).submit_many(np.zeros(8))  # no item axis


class GatedEncoder:
    """Encoder whose forwards block until ``release`` is set.

    Counts the forwards in flight, so a test can assert the batcher never
    overlaps two of them.
    """

    n_bits = 16

    def __init__(self, net):
        self.net = net
        self.entered = threading.Event()
        self.release = threading.Event()
        self._lock = threading.Lock()
        self._inflight = 0
        self.max_inflight = 0

    def encode(self, matrix):
        with self._lock:
            self._inflight += 1
            self.max_inflight = max(self.max_inflight, self._inflight)
        try:
            self.entered.set()
            assert self.release.wait(10)
            return self.net.encode(matrix)
        finally:
            with self._lock:
                self._inflight -= 1


def wait_until(condition, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.001)
    return condition()


class TestIdleFlushing:
    """The batcher forwards when idle and batches only what queued."""

    def gated_service(self, db, **kwargs):
        encoder = GatedEncoder(identity_network())
        service = HashingService(encoder, backend="bruteforce", **kwargs)
        encoder.release.set()  # let the database load through
        service.add(db)
        encoder.release.clear()
        encoder.entered.clear()
        return encoder, service

    def oracle(self, db, rows):
        service = HashingService(identity_network(), backend="bruteforce")
        service.add(db)
        return [service.query(row, top_k=3) for row in rows]

    def test_isolated_query_takes_ceil_n_over_max_batch_forwards(self):
        # The clock only feeds the latency histograms: however far it
        # jumps between rows, one 300-row query is three forwards.
        ticks = itertools.count(0.0, 1.0)
        rng = np.random.default_rng(5)
        db, queries = rng.normal(size=(40, 8)), rng.normal(size=(300, 8))
        service = HashingService(identity_network(), backend="bruteforce",
                                 max_batch=128, clock=lambda: next(ticks))
        service.add(db)
        ids, dist = service.query(queries, top_k=3)
        assert service.batcher.stats()["flush_sizes"] == {128: 2, 44: 1}
        reference = HammingIndex(16).add(identity_network().encode(db))
        ref_ids, ref_dist = reference.search(
            identity_network().encode(queries), top_k=3)
        np.testing.assert_array_equal(ids, ref_ids)
        np.testing.assert_array_equal(dist, ref_dist)

    def test_rows_queued_behind_a_forward_share_the_next(self):
        n = 6
        rng = np.random.default_rng(6)
        db, rows = rng.normal(size=(30, 8)), rng.normal(size=(n, 8))
        encoder, service = self.gated_service(db, max_batch=64)
        answers = [None] * n

        def client(i):
            answers[i] = service.query(rows[i], top_k=3)

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(n)]
        try:
            threads[0].start()
            assert encoder.entered.wait(10)  # the first forward is held
            for thread in threads[1:]:
                thread.start()
            assert wait_until(lambda: len(service.batcher) == n - 1)
        finally:
            encoder.release.set()
            for thread in threads:
                thread.join(10)
        assert not any(thread.is_alive() for thread in threads)
        assert service.batcher.stats()["flush_sizes"] == {1: 1, n - 1: 1}
        assert encoder.max_inflight == 1
        for got, want in zip(answers, self.oracle(db, rows)):
            assert got is not None
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])

    def test_max_pending_holds_under_concurrent_queries(self):
        n_queries, rows_each, bound = 6, 3, 8
        rng = np.random.default_rng(7)
        db = rng.normal(size=(30, 8))
        queries = rng.normal(size=(n_queries, rows_each, 8))
        encoder, service = self.gated_service(db, max_batch=64,
                                              max_pending=bound)
        answers, shed = [None] * n_queries, []
        peak = [0]
        done = threading.Event()

        def client(i):
            try:
                answers[i] = service.query(queries[i], top_k=3)
            except OverloadedError:
                shed.append(i)

        def monitor():
            while not done.is_set():
                peak[0] = max(peak[0], len(service.batcher))

        holder = threading.Thread(
            target=lambda: service.query(rng.normal(size=8), top_k=3))
        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(n_queries)]
        watcher = threading.Thread(target=monitor)
        try:
            holder.start()
            assert encoder.entered.wait(10)  # the first forward is held
            watcher.start()
            for thread in threads:
                thread.start()
            total = n_queries * rows_each
            assert wait_until(lambda: service.stats()["shed"]
                              + len(service.batcher) == total)
            accepted = len(service.batcher)
        finally:
            encoder.release.set()
            for thread in [holder, *threads]:
                thread.join(10)
            done.set()
            watcher.join(10)
        assert not any(t.is_alive() for t in [holder, *threads, watcher])
        assert peak[0] <= bound
        assert accepted == (bound // rows_each) * rows_each
        assert accepted + service.stats()["shed"] == total
        assert len(shed) * rows_each == service.stats()["shed"]
        oracle = self.oracle(db, queries)
        for i in set(range(n_queries)) - set(shed):
            np.testing.assert_array_equal(answers[i][0], oracle[i][0])
            np.testing.assert_array_equal(answers[i][1], oracle[i][1])


class TestHashingService:
    def make_service(self, dim=8, bits=16, store=None, **kwargs):
        kwargs.setdefault("n_shards", 3)
        return HashingService(identity_network(bits, dim), store=store,
                              **kwargs)

    def test_query_matches_direct_backend(self):
        rng = np.random.default_rng(4)
        db = rng.normal(size=(60, 8))
        queries = rng.normal(size=(5, 8))
        service = self.make_service()
        service.load_database(db)
        ids, dist = service.query(queries, top_k=7)
        net = identity_network()
        reference = HammingIndex(16).add(net.encode(db))
        r_ids, r_dist = reference.search(net.encode(queries), top_k=7)
        np.testing.assert_array_equal(ids, r_ids)
        np.testing.assert_array_equal(dist, r_dist)

    def test_single_query_vector(self):
        rng = np.random.default_rng(5)
        service = self.make_service()
        service.load_database(rng.normal(size=(20, 8)))
        ids, dist = service.query(rng.normal(size=8), top_k=3)
        assert ids.shape == dist.shape == (1, 3)

    def test_add_remove_external_ids(self):
        rng = np.random.default_rng(6)
        service = self.make_service()
        db_ids = service.load_database(rng.normal(size=(10, 8)))
        np.testing.assert_array_equal(db_ids, np.arange(10))
        vectors = rng.normal(size=(3, 8))
        ext = service.add(vectors, ids=[500, 501, 502])
        np.testing.assert_array_equal(ext, [500, 501, 502])
        ids, dist = service.query(vectors, top_k=1)
        np.testing.assert_array_equal(ids.ravel(), [500, 501, 502])
        assert (dist.ravel() == 0).all()
        assert service.remove([501, 999]) == 1
        assert len(service) == 12
        ids, _ = service.query(vectors[1], top_k=12)
        assert 501 not in ids

    def test_duplicate_external_ids_raise(self):
        service = self.make_service()
        service.add(np.zeros((2, 8)), ids=[7, 8])
        with pytest.raises(ConfigurationError):
            service.add(np.ones((1, 8)), ids=[7])
        with pytest.raises(ConfigurationError):
            service.add(np.ones((2, 8)), ids=[9, 9])
        with pytest.raises(ShapeError):
            service.add(np.ones((2, 8)), ids=[1, 2, 3])

    def test_auto_ids_never_collide_with_caller_ids(self):
        # Auto-assigned ids are the internal counter; if a caller already
        # claimed one of those values the add must refuse, not remap it.
        service = self.make_service()
        service.add(np.zeros((1, 8)), ids=[2])  # internal 0 -> external 2
        with pytest.raises(ConfigurationError):
            service.add(np.ones((3, 8)))  # would auto-assign 1, 2, 3
        assert len(service) == 1  # nothing was indexed by the refused add

    def test_query_between_index_add_and_return_maps_every_hit(self):
        # A query that finds the new rows right after the index append must
        # already be able to map their internal ids to external ones.
        rng = np.random.default_rng(13)
        service = self.make_service()
        service.load_database(rng.normal(size=(20, 8)))
        vectors = rng.normal(size=(4, 8))
        index_add = service.index.add
        answers = []

        def add_then_query(codes):
            index_add(codes)
            answers.append(service.query(vectors, top_k=24))

        service.index.add = add_then_query
        service.add(vectors, ids=[100, 101, 102, 103])
        (ids, _), = answers
        expected = set(range(20)) | {100, 101, 102, 103}
        assert all(set(row.tolist()) == expected for row in ids)

    def test_concurrent_explicit_id_adds_map_each_id_to_its_row(self):
        rng = np.random.default_rng(14)
        service = self.make_service(dim=32, bits=64)
        n_threads, n_adds, rows = 2, 40, 3
        vectors = rng.normal(size=(n_threads, n_adds, rows, 32))
        ext_ids = (np.arange(n_threads)[:, None, None] * 1000
                   + np.arange(n_adds * rows).reshape(n_adds, rows))
        errors = []

        def writer(t):
            try:
                for i in range(n_adds):
                    service.add(vectors[t, i], ids=ext_ids[t, i])
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer, args=(t,))
                       for t in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert len(service) == n_threads * n_adds * rows
        ids, dist = service.query(vectors.reshape(-1, 32), top_k=1)
        np.testing.assert_array_equal(ids.ravel(), ext_ids.ravel())
        assert (dist == 0).all()

    def test_empty_query_raises(self):
        service = self.make_service()
        service.load_database(np.random.default_rng(12).normal(size=(6, 8)))
        with pytest.raises(ShapeError):
            service.query(np.empty((0, 8)))

    def test_stats_shape(self):
        rng = np.random.default_rng(7)
        service = self.make_service()
        service.load_database(rng.normal(size=(12, 8)))
        service.query(rng.normal(size=(2, 8)), top_k=2)
        service.query(rng.normal(size=(2, 8)), top_k=2)
        stats = service.stats()
        assert stats["backend"] == "sharded"
        assert stats["size"] == 12
        assert len(stats["shards"]) == 3
        assert stats["batcher"]["requests"] == 4
        assert "store_stages" not in stats

    def test_store_snapshot_warm_restart(self, tmp_path):
        rng = np.random.default_rng(8)
        db = rng.normal(size=(30, 8))
        store = ArtifactStore(tmp_path / "cache")
        cold = self.make_service(store=store)
        cold.load_database(db, key={"name": "unit"})
        assert cold.stats()["database"] == {
            "encodes": 1, "warm_loads": 0, "snapshot_mmapped": False,
        }
        assert store.stats()["stages"][INDEX_STAGE]["puts"] == 1

        warm_store = ArtifactStore(tmp_path / "cache")
        warm = self.make_service(store=warm_store)
        warm.load_database(db, key={"name": "unit"})
        assert warm.stats()["database"] == {
            "encodes": 0, "warm_loads": 1, "snapshot_mmapped": False,
        }
        stages = warm_store.stats()["stages"][INDEX_STAGE]
        assert stages["puts"] == 1 and stages["misses"] == 1
        queries = rng.normal(size=(4, 8))
        a = cold.query(queries, top_k=5)
        b = warm.query(queries, top_k=5)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_different_db_key_is_a_different_snapshot(self, tmp_path):
        rng = np.random.default_rng(9)
        store = ArtifactStore(tmp_path / "cache")
        first = self.make_service(store=store)
        first.load_database(rng.normal(size=(10, 8)), key={"name": "a"})
        second = self.make_service(store=store)
        second.load_database(rng.normal(size=(10, 8)), key={"name": "b"})
        assert second.stats()["database"]["encodes"] == 1

    def test_callable_encoder_needs_explicit_bits(self):
        encode = lambda x: np.where(x[:, :4] > 0, 1.0, -1.0)  # noqa: E731
        with pytest.raises(ConfigurationError):
            HashingService(encode)
        service = HashingService(encode, n_bits=4, n_shards=2)
        service.load_database(np.random.default_rng(10).normal(size=(8, 6)))
        assert len(service) == 8
        # no inspectable state -> no model key -> snapshots disabled
        assert service.model_key is None

    def test_backend_override(self):
        service = HashingService(identity_network(), backend="bruteforce")
        service.load_database(np.random.default_rng(11).normal(size=(6, 8)))
        assert service.stats()["shards"] == [6]


@pytest.fixture()
def served_model(clip, cifar_tiny):
    config = UHSCMConfig(n_bits=16, train=TrainConfig(epochs=3), seed=0)
    model = UHSCM(config, clip=clip)
    model.fit(cifar_tiny.train_images)
    return model


class TestModelSnapshots:
    def test_publish_and_from_snapshot(self, served_model, clip, cifar_tiny,
                                       tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        fp = publish_model(store, served_model)
        assert len(fp) == 64
        assert publish_model(store, served_model) == fp  # content-addressed
        service = HashingService.from_snapshot(store, fp, clip, n_shards=2)
        assert service.model_key == fp
        service.load_database(cifar_tiny.database_images[:40])
        ids, dist = service.query(cifar_tiny.query_images[:2], top_k=3)
        direct = served_model.encode(cifar_tiny.query_images[:2])
        loaded_codes = service.encoder.encode(cifar_tiny.query_images[:2])
        np.testing.assert_array_equal(direct, loaded_codes)

    def test_load_model_path_fallback(self, served_model, clip, tmp_path):
        path = tmp_path / "model.npz"
        save_uhscm(served_model, path)
        loaded = load_model(path, clip)
        assert loaded.config == served_model.config

    def test_load_model_unknown_source_raises(self, clip, tmp_path):
        with pytest.raises(ConfigurationError):
            load_model(tmp_path / "nope.npz", clip)
        with pytest.raises(ConfigurationError):
            load_model("ab" * 32, clip, store=ArtifactStore(tmp_path / "c"))
