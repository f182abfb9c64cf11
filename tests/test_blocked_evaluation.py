"""Blocked evaluation: every block boundary reproduces the float oracle.

``evaluate_codes`` ranks the queries in blocks of ``BLOCK_ROWS`` rows.
These tests pin the block edges (one row, a block less one, one block, one
more, several blocks and a remainder), every popcount word width and the
``uint16`` distances past 255 bits against the unblocked references in
``tests/test_ranking.py`` — ``==`` on floats, not approximately — and bound
the evaluation's traced memory well below one (queries × database) matrix.
"""

import tracemalloc

import numpy as np
import pytest

from repro.retrieval import (
    HammingIndex,
    average_precision,
    evaluate_codes,
    hamming_distance_matrix,
    pack_codes,
    packed_hamming_distance,
)
from repro.retrieval.hamming import BLOCK_ROWS
from repro.retrieval.metrics import _mean_average_precision
from tests.test_ranking import reference_evaluate, tied_codes

B = BLOCK_ROWS
N_DB = 150


def labelled_cell(n_q, k, labels, seed=0, n_db=N_DB):
    """Tied codes whose largest distance is exactly ``k``, with labels that
    give every query at least one relevant database row."""
    rng = np.random.default_rng(seed + 1000 * k + n_q)
    protos = np.where(rng.random((5, k)) < 0.5, -1.0, 1.0)
    q = tied_codes(n_q, k, rng, protos)
    db = tied_codes(n_db, k, rng, protos)
    db[n_db // 2] = -q[0]
    if labels == "multi-label":
        ql = (rng.random((n_q, 5)) < 0.35).astype(int)
        dl = (rng.random((n_db, 5)) < 0.35).astype(int)
    else:  # non-binary: the int64 product, with cancelling +/- labels
        ql = rng.integers(-1, 3, size=(n_q, 5))
        dl = rng.integers(-1, 3, size=(n_db, 5))
    ql[:, 0] = 1
    dl[0] = [1, 0, 0, 0, 0]
    return q, db, ql, dl


@pytest.mark.parametrize("n_q", [1, B - 1, B, B + 1, 3 * B + 5])
@pytest.mark.parametrize("k", [8, 12, 24, 48, 64, 128, 256])
@pytest.mark.parametrize("backend", [None, "bruteforce"])
@pytest.mark.parametrize("labels", ["multi-label", "non-binary"])
def test_blocked_evaluation_bit_identical_to_reference(n_q, k, backend, labels):
    q, db, ql, dl = labelled_cell(n_q, k, labels)
    assert hamming_distance_matrix(q, db).max() == k
    pn_points = (40, 5, 20)
    # top_n 30 ranks a prefix of the database; 5000 clamps to all of it.
    for top_n in (30, 5000):
        report = evaluate_codes(q, db, ql, dl, top_n=top_n,
                                pn_points=pn_points, backend=backend)
        ref_map, ref_pn, (radii, precision, recall) = reference_evaluate(
            q, db, ql, dl, top_n=top_n, pn_points=pn_points)
        assert report.map == ref_map
        assert list(report.precision_at_n.items()) == list(ref_pn.items())
        assert np.array_equal(report.pr_curve.radii, radii)
        assert np.array_equal(report.pr_curve.precision, precision)
        assert np.array_equal(report.pr_curve.recall, recall)


@pytest.mark.parametrize("k", [32, 64])
def test_deep_prefix_bit_identical_to_reference(k):
    # A prefix of a third of a 3,000-row database: large enough that the
    # partition alone does not leave the prefix sorted.
    q, db, ql, dl = labelled_cell(B + 3, k, "multi-label", n_db=3000)
    report = evaluate_codes(q, db, ql, dl, top_n=1000, pn_points=(700, 100))
    ref_map, ref_pn, _ = reference_evaluate(q, db, ql, dl, top_n=1000,
                                            pn_points=(700, 100))
    assert report.map == ref_map
    assert list(report.precision_at_n.items()) == list(ref_pn.items())


def test_prebuilt_backend_bit_identical_across_blocks():
    q, db, ql, dl = labelled_cell(3 * B + 5, 64, "multi-label")
    report = evaluate_codes(q, db, ql, dl, top_n=30, pn_points=(5, 20),
                            backend=HammingIndex(64).add(db))
    ref_map, ref_pn, (_, precision, recall) = reference_evaluate(
        q, db, ql, dl, top_n=30, pn_points=(5, 20))
    assert report.map == ref_map
    assert report.precision_at_n == ref_pn
    assert np.array_equal(report.pr_curve.precision, precision)
    assert np.array_equal(report.pr_curve.recall, recall)


@pytest.mark.parametrize("k, dtype", [(64, np.uint8), (255, np.uint8),
                                      (256, np.uint16)])
def test_packed_distances_take_the_narrowest_exact_dtype(k, dtype):
    rng = np.random.default_rng(k)
    q = np.where(rng.random((B + 3, k)) < 0.5, -1.0, 1.0)
    db = np.concatenate([-q[:1], q[1:]])
    distances = packed_hamming_distance(pack_codes(q), pack_codes(db))
    assert distances.dtype == dtype
    assert distances[0, 0] == k
    assert np.array_equal(distances, hamming_distance_matrix(q, db))


def test_vectorized_map_equals_per_row_average_precision():
    rng = np.random.default_rng(4)
    ranked = (rng.random((40, 60)) < 0.2).astype(np.float64)
    ranked[::7] = 0.0  # queries with no relevant result score 0
    ranked[3] *= 0.5  # graded relevance passes through unchanged
    for top_n in (1, 9, 60):
        loop = float(np.mean([average_precision(r, top_n) for r in ranked]))
        assert _mean_average_precision(ranked, top_n) == loop


def test_evaluation_memory_stays_below_a_quarter_of_one_full_matrix():
    n_q, n_db, k = 1000, 20_000, 64
    rng = np.random.default_rng(0)
    q = np.where(rng.random((n_q, k)) < 0.5, -1.0, 1.0)
    db = np.where(rng.random((n_db, k)) < 0.5, -1.0, 1.0)
    ql = np.eye(10, dtype=int)[rng.integers(0, 10, n_q)]
    dl = np.eye(10, dtype=int)[rng.integers(0, 10, n_db)]
    tracemalloc.start()
    try:
        evaluate_codes(q, db, ql, dl, top_n=100, pn_points=(100,))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n_q * n_db * 8 / 4, f"peak {peak / 1e6:.1f} MB"
