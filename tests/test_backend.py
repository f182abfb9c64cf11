"""Tests for the retrieval serving layer: backend protocol, registry, and
incremental add/remove semantics."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, NotFittedError, ShapeError
from repro.retrieval import (
    HammingIndex,
    RetrievalBackend,
    backend_names,
    evaluate_codes,
    make_backend,
)

#: Every registered backend, including the serving layer's "sharded".
BACKENDS = backend_names()


def random_codes(n, k, seed=0):
    rng = np.random.default_rng(seed)
    return np.where(rng.random((n, k)) < 0.5, -1.0, 1.0)


def distinct_codes(n, k, seed=0):
    """±1 codes with pairwise-distinct rows (distinct k-bit integers)."""
    rng = np.random.default_rng(seed)
    values = rng.choice(1 << k, size=n, replace=False)
    bits = (values[:, None] >> np.arange(k)[None, :]) & 1
    return np.where(bits.astype(bool), 1.0, -1.0)


class TestRegistry:
    def test_builtin_names(self):
        names = backend_names()
        assert "bruteforce" in names

    def test_make_backend_types(self):
        assert isinstance(make_backend("bruteforce", 16), HammingIndex)

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError):
            make_backend("faiss", 16)

    def test_sharded_registered(self):
        from repro.serving import ShardedIndex

        index = make_backend("sharded", 16, n_shards=3)
        assert isinstance(index, ShardedIndex)
        assert index.n_shards == 3
        assert all(isinstance(shard, HammingIndex) for shard in index.shards)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_unknown_kwargs_raise_configuration_error(self, name):
        # Unexpected constructor options must not escape as bare TypeError;
        # the error names the backend and its accepted options.
        with pytest.raises(ConfigurationError) as excinfo:
            make_backend(name, 16, bogus_option=3)
        message = str(excinfo.value)
        assert name in message
        assert "bogus_option" in message
        accepted = message.split("accepted options: ")[1]
        expected = {"bruteforce": "(none)", "sharded": "n_shards"}[name]
        assert expected in accepted

    @pytest.mark.parametrize("name", BACKENDS)
    def test_satisfies_protocol(self, name):
        assert isinstance(make_backend(name, 8), RetrievalBackend)


class TestIncrementalAdd:
    @pytest.mark.parametrize("name", BACKENDS)
    def test_chunked_add_equals_one_shot(self, name):
        db = random_codes(120, 16, seed=1)
        queries = random_codes(6, 16, seed=2)
        one_shot = make_backend(name, 16).add(db)
        chunked = make_backend(name, 16)
        for chunk in np.array_split(db, 5):
            chunked.add(chunk)
        assert len(chunked) == len(one_shot) == 120
        for index_pair in (("search", 7), ("radius", 4)):
            kind, arg = index_pair
            if kind == "search":
                a = one_shot.search(queries, top_k=arg)
                b = chunked.search(queries, top_k=arg)
                np.testing.assert_array_equal(a[0], b[0])
                np.testing.assert_array_equal(a[1], b[1])
            else:
                for ra, rb in zip(one_shot.radius_search(queries, arg),
                                  chunked.radius_search(queries, arg)):
                    np.testing.assert_array_equal(ra, rb)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_ids_are_stable_across_adds(self, name):
        first = random_codes(10, 8, seed=3)
        second = random_codes(10, 8, seed=4)
        index = make_backend(name, 8).add(first).add(second)
        # Searching for an exact code from the second batch must return its
        # insertion-order id (10 + offset), not a renumbered position.
        ids, dist = index.search(second[:1], top_k=1)
        assert dist[0, 0] == 0
        assert ids[0, 0] >= 10 or (first == second[0]).all(axis=1).any()


class TestRemove:
    @pytest.mark.parametrize("name", BACKENDS)
    def test_remove_excludes_ids(self, name):
        db = random_codes(50, 16, seed=5)
        queries = random_codes(4, 16, seed=6)
        index = make_backend(name, 16).add(db)
        removed = index.remove([0, 7, 49])
        assert removed == 3
        assert len(index) == 47
        ids, _ = index.search(queries, top_k=47)
        assert not set(ids.ravel()) & {0, 7, 49}
        for hits in index.radius_search(queries, 16):
            assert not set(hits) & {0, 7, 49}

    @pytest.mark.parametrize("name", BACKENDS)
    def test_remove_unknown_ids_ignored(self, name):
        index = make_backend(name, 8).add(random_codes(5, 8))
        assert index.remove([99, -3]) == 0
        assert index.remove([2, 2, 99]) == 1
        assert index.remove([2]) == 0  # already gone
        assert len(index) == 4

    @pytest.mark.parametrize("name", BACKENDS)
    def test_remove_all_then_search_raises(self, name):
        index = make_backend(name, 8).add(random_codes(3, 8))
        assert index.remove([0, 1, 2]) == 3
        with pytest.raises(NotFittedError):
            index.search(random_codes(1, 8), top_k=1)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_remove_then_add_id_stability(self, name):
        """Rows added after a removal get fresh ids; dead ids never return."""
        k = 16
        pool = distinct_codes(40, k, seed=40)  # pairwise-distinct rows
        first, second = pool[:30], pool[30:]
        index = make_backend(name, k).add(first)
        assert index.remove(np.arange(10)) == 10
        index.add(second)
        assert len(index) == 30
        # each new row matches itself at distance 0 under a post-removal id
        ids, dist = index.search(second, top_k=1)
        assert (dist.ravel() == 0).all()
        assert (ids.ravel() >= 30).all()
        np.testing.assert_array_equal(ids.ravel(), np.arange(30, 40))
        # surviving old rows keep their original ids
        ids, dist = index.search(first[10:], top_k=1)
        assert (dist.ravel() == 0).all()
        np.testing.assert_array_equal(ids.ravel(), np.arange(10, 30))
        # removed ids never resurface in a full ranking
        all_ids, _ = index.search(second[:3], top_k=30)
        assert not set(all_ids.ravel()) & set(range(10))

    @pytest.mark.parametrize("name", BACKENDS)
    def test_readding_removed_content_gets_fresh_ids(self, name):
        k = 16
        codes = distinct_codes(12, k, seed=42)
        index = make_backend(name, k).add(codes)
        assert index.remove([3, 4]) == 2
        index.add(codes[3:5])  # identical content, new rows
        ids, dist = index.search(codes[3:5], top_k=1)
        assert (dist.ravel() == 0).all()
        np.testing.assert_array_equal(ids.ravel(), [12, 13])


class TestEvaluateCodesBackend:
    @pytest.mark.parametrize("name", BACKENDS)
    def test_backend_matches_blas_path(self, name):
        q = random_codes(5, 16, seed=18)
        db = random_codes(30, 16, seed=19)
        rng = np.random.default_rng(20)
        ql = rng.integers(0, 2, size=(5, 3))
        ql[ql.sum(axis=1) == 0, 0] = 1
        dl = rng.integers(0, 2, size=(30, 3))
        dl[dl.sum(axis=1) == 0, 0] = 1
        base = evaluate_codes(q, db, ql, dl, pn_points=(5, 10))
        served = evaluate_codes(q, db, ql, dl, pn_points=(5, 10), backend=name)
        assert served.map == pytest.approx(base.map)
        assert served.precision_at_n == pytest.approx(base.precision_at_n)

    def test_backend_instance_accepted(self):
        q = random_codes(3, 8, seed=21)
        db = random_codes(12, 8, seed=22)
        ql = np.ones((3, 2), dtype=int)
        dl = np.ones((12, 2), dtype=int)
        index = HammingIndex(8)
        report = evaluate_codes(q, db, ql, dl, pn_points=(4,), backend=index)
        base = evaluate_codes(q, db, ql, dl, pn_points=(4,))
        assert report.map == pytest.approx(base.map)

    def test_prebuilt_backend_with_id_gaps_raises(self):
        # Right row count but renumbered ids (remove + re-add) must raise
        # ShapeError, not crash or feed garbage into the metrics.
        q = random_codes(2, 8, seed=26)
        db = random_codes(6, 8, seed=27)
        gappy = HammingIndex(8).add(db)
        gappy.remove([2])
        gappy.add(random_codes(1, 8, seed=28))  # len matches, ids have a gap
        with pytest.raises(ShapeError):
            evaluate_codes(q, db, np.ones((2, 1), int), np.ones((6, 1), int),
                           pn_points=(2,), backend=gappy)

    def test_backend_size_mismatch_raises(self):
        q = random_codes(2, 8, seed=23)
        db = random_codes(10, 8, seed=24)
        stale = HammingIndex(8).add(random_codes(4, 8, seed=25))
        with pytest.raises(ShapeError):
            evaluate_codes(q, db, np.ones((2, 1), int), np.ones((10, 1), int),
                           pn_points=(2,), backend=stale)


class TestShardedWorkers:
    """Concurrent fan-out (PR 8): pooled probes are bit-identical to serial,
    including the composite-key ``(distance, id)`` tie-breaking."""

    @pytest.mark.parametrize("workers", [1, 4])
    def test_all_ties_merge_id_ascending(self, workers):
        # Every row identical: every candidate ties at distance 0, so the
        # merged top-k must fall back to pure id order regardless of which
        # worker thread returned its shard first.
        codes = np.tile(random_codes(1, 16), (12, 1))
        index = make_backend("sharded", 16, n_shards=3, workers=workers)
        index.add(codes)
        ids, dist = index.search(codes[:2], top_k=6)
        np.testing.assert_array_equal(ids, [[0, 1, 2, 3, 4, 5]] * 2)
        assert (dist == 0).all()

    @pytest.mark.parametrize("workers", [1, 4])
    def test_adjacent_equal_distance_merge_is_deterministic(self, workers):
        # Duplicate pairs (ids 2i, 2i+1) land on different shards under
        # round-robin placement; the equal-distance candidates they produce
        # must interleave id-ascending, exactly like one flat index.
        base = distinct_codes(10, 16, seed=7)
        codes = np.repeat(base, 2, axis=0)
        sharded = make_backend("sharded", 16, n_shards=4, workers=workers)
        sharded.add(codes)
        ids, dist = sharded.search(base, top_k=8)
        reference = HammingIndex(16).add(codes)
        r_ids, r_dist = reference.search(base, top_k=8)
        np.testing.assert_array_equal(ids, r_ids)
        np.testing.assert_array_equal(dist, r_dist)
        # Each query's own duplicate pair heads the ranking, id-ascending.
        np.testing.assert_array_equal(ids[:, 0] + 1, ids[:, 1])
        np.testing.assert_array_equal(dist[:, 0], dist[:, 1])

    def test_pooled_results_match_serial(self):
        codes = random_codes(60, 16, seed=9)
        queries = random_codes(5, 16, seed=10)
        serial = make_backend("sharded", 16, n_shards=4, workers=1).add(codes)
        pooled = make_backend("sharded", 16, n_shards=4, workers=4).add(codes)
        for got, want in zip(pooled.search(queries, top_k=7),
                             serial.search(queries, top_k=7)):
            np.testing.assert_array_equal(got, want)
        for got, want in zip(pooled.radius_search(queries, 6),
                             serial.radius_search(queries, 6)):
            np.testing.assert_array_equal(got, want)
        # The effective count may clamp to os.cpu_count() on small boxes;
        # the pre-clamp request is what the backend plumbing owes us.
        assert pooled.pool_stats()["requested"] == 4
        assert serial.pool_stats()["serial"] is True
