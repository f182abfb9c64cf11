"""Tests for the shared worker-pool layer (``repro.utils.parallel``).

The pool's contract is what every parallel kernel's bit-identity rests
on: deterministic index-ordered collection, a serial fallback that is a
plain inline call, exception transparency in both modes (inline and
thread), and one knob resolved argument → env → default (``workers`` via
``$REPRO_WORKERS``).  The kernels themselves are covered where they live
(``test_utils_mathops``, ``test_backend``, ``test_resilience``, the
parallel-scale bench); this file pins the substrate plus the pooled
top-k Q builders at several worker counts.
"""

import logging
import os
import threading

import numpy as np
import pytest

from repro.config import UHSCMConfig
from repro.errors import ConfigurationError
from repro.utils.parallel import (
    WORKERS_ENV,
    WorkerPool,
    as_pool,
    resolve_workers,
)


@pytest.fixture(autouse=True)
def _isolated_pool_env(monkeypatch):
    """Eight fake cores + clean pool env for every test.

    The CI tier-1 runner may be a 1- or 2-core box; without the
    ``cpu_count`` patch the new oversubscription clamp would silently
    turn every ``WorkerPool(4)`` below into the serial fallback and the
    pooled assertions would test nothing.  Tests that probe the clamp
    itself re-patch ``cpu_count`` to a smaller value.
    """
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.delenv(WORKERS_ENV, raising=False)


class TestResolveWorkers:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "8")
        assert resolve_workers(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "6")
        assert resolve_workers(None) == 6

    def test_default_is_serial(self):
        assert resolve_workers(None) == 1

    def test_blank_env_is_serial(self, monkeypatch):
        # CI sets REPRO_WORKERS='' on non-parallel matrix entries.
        monkeypatch.setenv(WORKERS_ENV, "  ")
        assert resolve_workers(None) == 1

    @pytest.mark.parametrize("value", [0, -2, 1])
    def test_subunit_counts_clamp_to_serial(self, value):
        assert resolve_workers(value) == 1

    def test_invalid_env_raises_configuration_error(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "many")
        with pytest.raises(ConfigurationError, match=WORKERS_ENV):
            resolve_workers(None)

    def test_clamps_to_cpu_count_with_warning(self, monkeypatch, caplog):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        with caplog.at_level("WARNING", logger="repro.parallel"):
            assert resolve_workers(16) == 2
        assert any("clamping" in record.message for record in caplog.records)

    def test_requested_count_survives_clamp_in_stats(self, monkeypatch,
                                                     caplog):
        # ``requested`` is the pre-clamp request however it arrives — an
        # int, a numpy integer, or $REPRO_WORKERS — and each pool parses
        # and clamps it once, so the clamp warning is logged once.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setenv(WORKERS_ENV, "16")
        for workers in (16, np.int64(16), None):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="repro.parallel"):
                with WorkerPool(workers) as pool:
                    stats = pool.stats()
            assert stats["workers"] == 2, workers
            assert stats["requested"] == 16, workers
            clamps = [record for record in caplog.records
                      if "clamping" in record.getMessage()]
            assert len(clamps) == 1, (workers, clamps)


class TestSerialPool:
    def test_submit_runs_inline_on_calling_thread(self):
        pool = WorkerPool(1)
        assert pool.serial
        seen = []
        pool.submit(lambda: seen.append(threading.current_thread()))
        assert seen == [threading.main_thread()]

    def test_result_available_before_close(self):
        pool = WorkerPool(1)
        future = pool.submit(lambda: 41 + 1)
        assert future.result() == 42

    def test_exception_captured_and_reraised_at_result(self):
        pool = WorkerPool(1)

        def boom():
            raise ValueError("inline failure")

        future = pool.submit(boom)  # must NOT raise here
        with pytest.raises(ValueError, match="inline failure"):
            future.result()
        assert pool.stats()["completed"] == 1  # failures still count

    def test_counters(self):
        pool = WorkerPool(0)  # clamps to serial
        pool.map(str, range(5))
        assert pool.stats() == {
            "backend": "thread", "workers": 1, "requested": 1,
            "serial": True, "submitted": 5, "completed": 5, "rejected": 0,
        }


class TestThreadedPool:
    def test_map_preserves_item_order(self):
        # Delay inversely with index so later items finish first; the
        # collected results must still come back in submission order.
        import time

        def slow_identity(i):
            time.sleep((4 - i) * 0.01)
            return i

        with WorkerPool(4) as pool:
            assert not pool.serial
            assert pool.map(slow_identity, range(5)) == list(range(5))

    def test_exception_propagates_in_item_order(self):
        def maybe_boom(i):
            if i == 2:
                raise RuntimeError("task 2 failed")
            return i

        with WorkerPool(4) as pool:
            with pytest.raises(RuntimeError, match="task 2 failed"):
                pool.map(maybe_boom, range(6))
            stats = pool.stats()
        assert stats["submitted"] == 6  # all dispatched before the raise
        assert stats["completed"] == 6

    def test_work_runs_off_the_calling_thread(self):
        with WorkerPool(2, name="probe") as pool:
            names = pool.map(
                lambda _: threading.current_thread().name, range(4)
            )
        assert all(name.startswith("probe-worker") for name in names)


class TestPooledTopk:
    """The top-k Q builders on real thread pools at several worker counts."""

    def test_blocked_topk_bit_identical_across_worker_counts(self):
        # Fixed tile geometry means identical BLAS summation order at any
        # worker count, so the CSR bytes must match the serial oracle
        # exactly.
        from repro.utils.mathops import blocked_topk_cosine

        rng = np.random.default_rng(7)
        features = rng.normal(size=(300, 24))
        serial = blocked_topk_cosine(features, 16, block_rows=64)
        for workers in (1, 2, 4):
            with WorkerPool(workers) as pool:
                got = blocked_topk_cosine(
                    features, 16, block_rows=64, workers=pool
                )
                stats = pool.stats()
            assert stats["submitted"] == stats["completed"]
            assert stats["serial"] or stats["submitted"] > 0, workers
            for oracle, candidate in zip(serial, got):
                assert oracle.tobytes() == candidate.tobytes(), workers

    def test_streaming_topk_bit_identical_across_worker_counts(self,
                                                               tmp_path):
        # The out-of-core build: pooled tiles read the one normalized
        # scratch memmap and write disjoint rows of on-disk CSR buffers.
        from repro.utils.mathops import blocked_topk_cosine, streaming_topk_cosine

        rng = np.random.default_rng(7)
        features = rng.normal(size=(300, 24))
        serial = blocked_topk_cosine(features, 16, block_rows=64)

        for workers in (1, 2, 4):
            def create(name, shape, dtype):
                return np.lib.format.open_memmap(
                    tmp_path / f"{name}-{workers}.npy", mode="w+",
                    dtype=dtype, shape=shape,
                )

            with WorkerPool(workers) as pool:
                streamed = streaming_topk_cosine(
                    features, 16, create, block_rows=64, workers=pool
                )
                stats = pool.stats()
            assert stats["submitted"] == stats["completed"]
            assert stats["serial"] or stats["submitted"] > 0, workers
            for oracle, candidate in zip(serial, streamed):
                assert oracle.tobytes() == np.asarray(candidate).tobytes(), (
                    workers,
                )


class TestLifecycle:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_closed_pool_rejects_submissions(self, workers):
        pool = WorkerPool(workers)
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(ConfigurationError, match="closed"):
            pool.submit(lambda: None)
        assert pool.stats()["rejected"] == 1

    def test_context_manager_closes(self):
        with WorkerPool(2) as pool:
            pool.submit(lambda: None).result()
        with pytest.raises(ConfigurationError):
            pool.submit(lambda: None)


class TestAsPool:
    def test_instance_passes_through_unowned(self):
        shared = WorkerPool(1)
        pool, owned = as_pool(shared)
        assert pool is shared and not owned
        shared.close()

    @pytest.mark.parametrize("workers", [None, 1, 3])
    def test_counts_build_owned_pools(self, workers):
        pool, owned = as_pool(workers, name="kernel")
        assert owned
        assert pool.workers == resolve_workers(workers)
        pool.close()


class TestConfigIntegration:
    def test_workers_field_validated(self):
        assert UHSCMConfig(workers=4).workers == 4
        assert UHSCMConfig().workers is None
        with pytest.raises(ConfigurationError, match="workers"):
            UHSCMConfig(workers=0)

    def test_execution_policy_excluded_from_fingerprint(self):
        # Execution policy, not semantics: artifacts built at any worker
        # count are bit-identical, so they must share cache keys.
        serial = UHSCMConfig().fingerprint_payload()
        pooled = UHSCMConfig(workers=8).fingerprint_payload()
        assert serial == pooled
        assert "workers" not in pooled

    def test_trainer_prefetch_bit_identical(self):
        # End-to-end pin at unit-test scale (the scale bench re-checks at
        # size): pooled one-slot prefetch reproduces serial loss history.
        from repro.config import TrainConfig
        from repro.core.hashing_network import HashingNetwork
        from repro.core.trainer import UHSCMTrainer

        rng = np.random.default_rng(11)
        features = rng.normal(size=(96, 16))
        labels = rng.integers(0, 4, size=96)
        q = (labels[:, None] == labels[None, :]).astype(np.float64)

        def history(workers):
            config = UHSCMConfig(
                n_bits=16, workers=workers,
                train=TrainConfig(batch_size=32, epochs=2),
            )
            network = HashingNetwork(
                16, mode="feature", feature_extractor=lambda x: x,
                feature_dim=16, rng=0,
            )
            return UHSCMTrainer(network, config).fit(features, q).total

        assert history(1) == history(4)
