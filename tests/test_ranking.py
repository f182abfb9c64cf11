"""Evaluation ranking: one integer radix sort reproduces the float oracle.

The reference functions below are the evaluation as it was before the
ranking was shared: two independent float ``kind="stable"`` argsorts (MAP
and P@N), ``np.histogram`` for the PR curve, and the int64 relevance
product.  Every metric the library returns must equal them exactly —
``==`` on floats, ``np.array_equal`` on arrays — not approximately.
"""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.retrieval import (
    HammingIndex,
    backend_names,
    evaluate_codes,
    hamming_distance_matrix,
    mean_average_precision_from_distances,
    pr_curve_hamming,
    precision_at_n,
    relevance_matrix,
)


# -- reference implementation --------------------------------------------------

def reference_relevance(query_labels, db_labels):
    q = np.asarray(query_labels)
    d = np.asarray(db_labels)
    return (q.astype(np.int64) @ d.astype(np.int64).T) > 0


def reference_average_precision(ranked_relevance, top_n):
    rel = np.asarray(ranked_relevance, dtype=np.float64)[:top_n]
    n_rel = rel.sum()
    if n_rel == 0:
        return 0.0
    cum_precision = np.cumsum(rel) / np.arange(1, rel.size + 1)
    return float((cum_precision * rel).sum() / n_rel)


def reference_map(distances, relevance, top_n):
    order = np.argsort(distances, axis=1, kind="stable")
    ranked = np.take_along_axis(relevance.astype(np.float64), order, axis=1)
    aps = [reference_average_precision(row, top_n) for row in ranked]
    return float(np.mean(aps))


def reference_precision_at_n(distances, relevance, points):
    if not points:
        return {}
    order = np.argsort(distances, axis=1, kind="stable")[:, :max(points)]
    ranked = np.take_along_axis(relevance.astype(np.float64), order, axis=1)
    cum = np.cumsum(ranked, axis=1)
    return {n: float((cum[:, n - 1] / n).mean()) for n in points}


def reference_pr_curve(query_codes, db_codes, relevance):
    distances = hamming_distance_matrix(query_codes, db_codes).astype(np.int64)
    k = query_codes.shape[1]
    rel = relevance.astype(bool)
    bins = np.arange(k + 2)
    relevant_cum = np.cumsum(
        np.histogram(distances[rel], bins=bins)[0]).astype(np.float64)
    all_cum = np.cumsum(np.histogram(distances, bins=bins)[0]).astype(np.float64)
    precision = np.divide(
        relevant_cum, all_cum, out=np.zeros_like(relevant_cum), where=all_cum > 0
    )
    return np.arange(k + 1), precision, relevant_cum / float(rel.sum())


def reference_evaluate(query_codes, db_codes, query_labels, db_labels,
                       top_n, pn_points):
    relevance = reference_relevance(query_labels, db_labels)
    distances = hamming_distance_matrix(query_codes, db_codes)
    n_db = db_codes.shape[0]
    usable = tuple(p for p in pn_points if p <= n_db)
    if not usable and pn_points:
        usable = (n_db,)
    return (
        reference_map(distances, relevance, min(top_n, n_db)),
        reference_precision_at_n(distances, relevance, usable),
        reference_pr_curve(query_codes, db_codes, relevance),
    )


# -- fixtures -----------------------------------------------------------------

def tied_codes(n, k, rng, protos):
    """Rows drawn from a few prototypes with ~2 flipped bits: heavy ties."""
    codes = protos[rng.integers(0, len(protos), n)].copy()
    codes[rng.random((n, k)) < 2.0 / k] *= -1
    return codes


def cell(k, n_db, seed=0):
    """Query/db codes and labels; the db holds a query's complement, so the
    largest distance is exactly ``k`` (k=256 needs the 16-bit key)."""
    rng = np.random.default_rng(seed + k)
    protos = np.where(rng.random((5, k)) < 0.5, -1.0, 1.0)
    q = tied_codes(9, k, rng, protos)
    db = tied_codes(n_db, k, rng, protos)
    db[n_db // 2] = -q[0]
    ql = (rng.random((9, 4)) < 0.35).astype(int)
    dl = (rng.random((n_db, 4)) < 0.35).astype(int)
    return q, db, ql, dl


def prebuilt(k, db):
    return HammingIndex(k).add(db)


BACKENDS = [None, *backend_names(), prebuilt]


@pytest.mark.parametrize("k", [8, 12, 64, 256])
@pytest.mark.parametrize("n_db", [30, 120])
@pytest.mark.parametrize("pn_points", [(40, 5, 20), (500, 100), (5, 200, 10)])
@pytest.mark.parametrize("backend", BACKENDS,
                         ids=lambda b: getattr(b, "__name__", str(b)))
def test_evaluate_codes_bit_identical_to_reference(k, n_db, pn_points, backend):
    q, db, ql, dl = cell(k, n_db)
    assert hamming_distance_matrix(q, db).max() == k
    if callable(backend):
        backend = backend(k, db)
    report = evaluate_codes(q, db, ql, dl, top_n=50, pn_points=pn_points,
                            backend=backend)
    ref_map, ref_pn, (radii, precision, recall) = reference_evaluate(
        q, db, ql, dl, top_n=50, pn_points=pn_points)
    assert report.map == ref_map
    assert list(report.precision_at_n.items()) == list(ref_pn.items())
    assert np.array_equal(report.pr_curve.radii, radii)
    assert np.array_equal(report.pr_curve.precision, precision)
    assert np.array_equal(report.pr_curve.recall, recall)


@pytest.mark.parametrize("k", [12, 256])
def test_public_wrappers_bit_identical_to_reference(k):
    q, db, ql, dl = cell(k, 120, seed=5)
    rel = relevance_matrix(ql, dl)
    d = hamming_distance_matrix(q, db)
    for top_n in (1, 7, 50, 120, 5000):
        assert (mean_average_precision_from_distances(d, rel, top_n)
                == reference_map(d, rel, top_n))
    assert precision_at_n(d, rel, (60, 1, 13)) == reference_precision_at_n(
        d, rel, (60, 1, 13))
    curve = pr_curve_hamming(q, db, rel)
    radii, precision, recall = reference_pr_curve(q, db, rel)
    assert np.array_equal(curve.radii, radii)
    assert np.array_equal(curve.precision, precision)
    assert np.array_equal(curve.recall, recall)


@pytest.mark.parametrize("n_q, n_db", [(40, 4000), (3, 70000)])
def test_pr_curve_counted_in_row_blocks_matches_reference(n_q, n_db):
    # Both shapes span several counting blocks; the second needs one row
    # per block.
    rng = np.random.default_rng(n_db)
    q = np.where(rng.random((n_q, 16)) < 0.5, -1.0, 1.0)
    db = np.where(rng.random((n_db, 16)) < 0.5, -1.0, 1.0)
    rel = rng.random((n_q, n_db)) < 0.2
    curve = pr_curve_hamming(q, db, rel)
    _, precision, recall = reference_pr_curve(q, db, rel)
    assert np.array_equal(curve.precision, precision)
    assert np.array_equal(curve.recall, recall)


# -- non-Hamming distances keep the stable float order ------------------------

DISTANCE_SHAPES = {
    "half-steps": lambda base: base * 0.5,
    "negative": lambda base: base - 3.0,
    "above-uint16": lambda base: base * 20000.0,
    "fractional-offset": lambda base: base + 0.25,
    "with-inf": lambda base: np.where(base == 5, np.inf, base),
    "int64": lambda base: base.astype(np.int64),
    "uint16-range": lambda base: base * 300.0,
}


@pytest.mark.parametrize("shape", DISTANCE_SHAPES)
def test_fallback_distances_match_reference(shape):
    rng = np.random.default_rng(11)
    distances = DISTANCE_SHAPES[shape](
        rng.integers(0, 6, size=(7, 40)).astype(np.float64))
    rel = rng.random((7, 40)) < 0.3
    for top_n in (1, 10, 40, 100):
        assert (mean_average_precision_from_distances(distances, rel, top_n)
                == reference_map(distances, rel, top_n))
    points = (25, 1, 3, 40)
    assert (list(precision_at_n(distances, rel, points).items())
            == list(reference_precision_at_n(distances, rel, points).items()))


def test_fallback_ties_break_by_index():
    distances = np.array([[0.5, 0.5, -1.0, 0.5]])
    rel = np.array([[False, True, False, False]])
    # Ranked: index 2 (-1.0), then the 0.5 ties in index order 0, 1, 3.
    assert precision_at_n(distances, rel, (2, 3)) == {2: 0.0, 3: 1 / 3}
    assert mean_average_precision_from_distances(distances, rel, 4) == 1 / 3


# -- relevance -----------------------------------------------------------------

@pytest.mark.parametrize("dtype", [int, bool, np.float64, np.uint8])
def test_multi_hot_relevance_matches_int64_product(dtype):
    rng = np.random.default_rng(2)
    ql = (rng.random((15, 6)) < 0.3).astype(dtype)
    dl = (rng.random((70, 6)) < 0.3).astype(dtype)
    assert np.array_equal(relevance_matrix(ql, dl), reference_relevance(ql, dl))


def test_non_binary_labels_keep_int64_product():
    # Labels outside {0, 1} keep the int64 product: 0.5 truncates to 0, so
    # query 0 shares no label with db row 0 (a float product would say it
    # does), and +1/-1 cancel for query 1.
    ql = np.array([[0.5, 0.0, 0.0], [1.0, 1.0, 0.0]])
    dl = np.array([[1.0, 0.0, 0.0], [1.0, -1.0, 0.0], [0.0, 1.0, 2.0]])
    assert np.array_equal(relevance_matrix(ql, dl), reference_relevance(ql, dl))
    assert not relevance_matrix(ql, dl)[0, 0]
    assert not relevance_matrix(ql, dl)[1, 1]


# -- depth validation at the public boundary ----------------------------------

def small_inputs():
    distances = np.array([[0.0, 1.0, 2.0, 3.0]])
    rel = np.array([[True, False, True, False]])
    return distances, rel


@pytest.mark.parametrize("top_n", [-2, 0])
def test_map_rejects_nonpositive_depth(top_n):
    with pytest.raises(ShapeError):
        mean_average_precision_from_distances(*small_inputs(), top_n=top_n)


@pytest.mark.parametrize("points", [(-1, 2), (0,)])
def test_precision_at_n_rejects_nonpositive_points(points):
    with pytest.raises(ShapeError):
        precision_at_n(*small_inputs(), points=points)


@pytest.mark.parametrize("kwargs", [{"pn_points": (-3, 2)}, {"top_n": 0},
                                    {"top_n": -1}])
def test_evaluate_codes_rejects_nonpositive_depths(kwargs):
    q, db, ql, dl = cell(8, 30)
    with pytest.raises(ShapeError):
        evaluate_codes(q, db, ql, dl, **kwargs)
