"""Retrieval quality metrics: MAP@n, P@N curves, Hamming-radius PR curves.

These implement the paper's three evaluation metrics (§4.2):

- **MAP** with top-n truncation (Eq. 12; the paper uses n = 5000),
- **P@N** — precision among the top-N Hamming-ranked results,
- **PR curve** — precision/recall of hash-lookup as the Hamming radius
  sweeps 0..k (Figure 3's protocol).

Each evaluation ranks once.  Integer Hamming distances are cast to the
narrowest exact unsigned key (uint8 up to 255, else uint16) and ranked by
one stable argsort — a radix sort in numpy — whose order equals the stable
float order, ties breaking by database index.  MAP and P@N both read the
same ranked relevance prefix (only the first ``max(top_n, max N)`` columns
are gathered), and the PR curve is a ``bincount`` over the same integer
distances.  Distances that are not small non-negative integers
(fractional, negative or above uint16, as public callers may pass) fall
back to the stable float argsort with the same tie-break.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ShapeError
from repro.retrieval.hamming import hamming_distance_matrix

#: The paper's MAP truncation depth (§4.2: "we set n as 5000").
PAPER_MAP_DEPTH = 5000

#: P@N evaluation points used in Figure 2.
PAPER_PN_POINTS: tuple[int, ...] = (100, 300, 500, 700, 900, 1000)

#: Distances per PR-curve counting block (512 KiB of intp codes).
_PR_BLOCK_ELEMENTS = 1 << 16


def _check_rank_inputs(distances: np.ndarray, relevance: np.ndarray) -> None:
    if distances.shape != relevance.shape:
        raise ShapeError(
            f"distances {distances.shape} and relevance {relevance.shape} differ"
        )
    if distances.ndim != 2:
        raise ShapeError(f"expected 2-D matrices, got {distances.shape}")


def average_precision(ranked_relevance: np.ndarray, top_n: int) -> float:
    """AP@n of one ranked relevance vector (paper Eq. 12).

    ``AP = Σ_i [I(i)/N · Σ_{j<=i} I(j)/i]`` over the top ``n`` results,
    where ``N`` is the number of relevant items among them.  Queries with no
    relevant item in the top n score 0 (the usual convention).
    """
    rel = np.asarray(ranked_relevance, dtype=np.float64)[:top_n]
    n_rel = rel.sum()
    if n_rel == 0:
        return 0.0
    cum_precision = np.cumsum(rel) / np.arange(1, rel.size + 1)
    return float((cum_precision * rel).sum() / n_rel)


def mean_average_precision(
    query_codes: np.ndarray,
    db_codes: np.ndarray,
    relevance: np.ndarray,
    top_n: int = PAPER_MAP_DEPTH,
) -> float:
    """MAP@n over Hamming-ranked retrieval (the paper's headline metric)."""
    distances = hamming_distance_matrix(query_codes, db_codes)
    return mean_average_precision_from_distances(distances, relevance, top_n)


def mean_average_precision_from_distances(
    distances: np.ndarray,
    relevance: np.ndarray,
    top_n: int = PAPER_MAP_DEPTH,
) -> float:
    """MAP@n given a precomputed distance matrix."""
    _check_rank_inputs(distances, relevance)
    _check_depths(top_n)
    ranked = _ranked_relevance(_sort_key(distances), relevance, top_n)
    return _mean_average_precision(ranked, top_n)


def precision_at_n(
    distances: np.ndarray,
    relevance: np.ndarray,
    points: tuple[int, ...] = PAPER_PN_POINTS,
) -> dict[int, float]:
    """Mean precision among the top-N results for each N (Figure 2).

    ``points`` may be unsorted; an empty tuple yields an empty dict.
    """
    _check_rank_inputs(distances, relevance)
    _check_depths(points=points)
    if not points:
        return {}
    max_n = max(points)
    if max_n > distances.shape[1]:
        raise ShapeError(
            f"P@{max_n} requested but database has {distances.shape[1]} items"
        )
    ranked = _ranked_relevance(_sort_key(distances), relevance, max_n)
    return _precision_at(ranked, points)


def _check_depths(top_n: int = 1, points: tuple[int, ...] = ()) -> None:
    if top_n < 1:
        raise ShapeError(f"top_n must be >= 1, got {top_n}")
    bad = [n for n in points if n < 1]
    if bad:
        raise ShapeError(f"P@N points must be >= 1, got {bad}")


def _sort_key(distances: np.ndarray) -> np.ndarray:
    """``distances`` as the narrowest unsigned ints that hold them exactly.

    Hamming distances are small non-negative integers, and numpy's stable
    argsort of an 8/16-bit integer key is a radix sort whose order equals
    the stable float order.  Anything else (fractional, negative, above
    uint16, NaN) is returned unchanged and ranks by the stable float sort.
    """
    if distances.size == 0:
        return distances
    lo, hi = distances.min(), distances.max()
    if not (lo >= 0 and hi <= np.iinfo(np.uint16).max):
        return distances
    key = distances.astype(np.uint8 if hi <= np.iinfo(np.uint8).max
                           else np.uint16)
    return key if np.array_equal(key, distances) else distances


def _ranked_relevance(
    key: np.ndarray, relevance: np.ndarray, depth: int
) -> np.ndarray:
    """float64 relevance of each query's first ``depth`` ranked results.

    Ranking is one stable argsort (ties break by database index); only the
    ranked prefix is gathered and cast.
    """
    order = np.argsort(key, axis=1, kind="stable")[:, :depth]
    return np.take_along_axis(relevance, order, axis=1).astype(np.float64)


def _mean_average_precision(ranked: np.ndarray, top_n: int) -> float:
    aps = [average_precision(row, top_n) for row in ranked]
    return float(np.mean(aps))


def _precision_at(ranked: np.ndarray, points: tuple[int, ...]) -> dict[int, float]:
    if not points:
        return {}
    cum = np.cumsum(ranked[:, :max(points)], axis=1)
    return {
        n: float((cum[:, n - 1] / n).mean())
        for n in points
    }


@dataclass(frozen=True)
class PRCurve:
    """Precision/recall at each Hamming radius 0..k (Figure 3's protocol).

    ``precision[r]`` / ``recall[r]`` aggregate retrieval within radius ``r``
    micro-averaged over queries (total relevant retrieved / total retrieved),
    which keeps small radii well-defined even when some queries retrieve
    nothing.
    """

    radii: np.ndarray
    precision: np.ndarray
    recall: np.ndarray

    def __post_init__(self) -> None:
        if not (self.radii.shape == self.precision.shape == self.recall.shape):
            raise ShapeError("PRCurve arrays must share one shape")


def pr_curve_hamming(
    query_codes: np.ndarray,
    db_codes: np.ndarray,
    relevance: np.ndarray,
) -> PRCurve:
    """PR curve from a full Hamming-radius sweep (0..k, step 1)."""
    distances = _sort_key(hamming_distance_matrix(query_codes, db_codes))
    _check_rank_inputs(distances, relevance)
    return _pr_curve(distances, relevance, query_codes.shape[1])


def _pr_curve(distances: np.ndarray, relevance: np.ndarray, k: int) -> PRCurve:
    """PR curve from integer-valued Hamming distances in ``0..k``."""
    rel = relevance.astype(bool)
    total_relevant = rel.sum()
    if total_relevant == 0:
        raise ShapeError("relevance matrix has no relevant pairs")

    # Count ``2·distance + relevant`` once: odd bins are the relevant pairs,
    # even + odd all pairs.  Row blocks keep the intp codes in cache.
    counts = np.zeros(2 * (k + 1), dtype=np.intp)
    step = max(1, _PR_BLOCK_ELEMENTS // distances.shape[1])
    for start in range(0, distances.shape[0], step):
        codes = distances[start:start + step].astype(np.intp)
        codes <<= 1
        codes |= rel[start:start + step]
        counts += np.bincount(codes.ravel(), minlength=counts.size)
    relevant_cum = np.cumsum(counts[1::2]).astype(np.float64)
    all_cum = np.cumsum(counts[0::2] + counts[1::2]).astype(np.float64)

    precision = np.divide(
        relevant_cum, all_cum, out=np.zeros_like(relevant_cum), where=all_cum > 0
    )
    recall = relevant_cum / float(total_relevant)
    return PRCurve(radii=np.arange(k + 1), precision=precision, recall=recall)
