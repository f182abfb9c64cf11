"""Retrieval quality metrics: MAP@n, P@N curves, Hamming-radius PR curves.

These implement the paper's three evaluation metrics (§4.2):

- **MAP** with top-n truncation (Eq. 12; the paper uses n = 5000),
- **P@N** — precision among the top-N Hamming-ranked results,
- **PR curve** — precision/recall of hash-lookup as the Hamming radius
  sweeps 0..k (Figure 3's protocol).

Evaluation from codes is one blocked pass (:func:`_rank_blocks`): for each
block of query rows, exact integer Hamming distances (``uint8``, or
``uint16`` past 255 bits) come from the packed popcount kernel
(:func:`~repro.retrieval.hamming.packed_distance_blocks`) or from a
serving backend, and the block's relevance rows are computed from labels
checked once.  The block is ranked once, by a composite (distance,
database index) key — the stable argsort order — and only its first
``max(top_n, max N)`` results are gathered, into one shared
``(n_query, depth)`` relevance array that MAP and P@N both read.  The
block's ``2·distance + relevant`` codes are counted into the PR
histogram.  No ``(n_query, n_db)`` matrix is ever built.

The entry points that take arbitrary distances
(:func:`mean_average_precision_from_distances`, :func:`precision_at_n`)
cast them to the narrowest exact unsigned key when they are small
non-negative integers; anything else (fractional, negative or above
uint16) keeps the stable float argsort with the same tie-break.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from repro.errors import ShapeError
from repro.retrieval.hamming import (
    PackedCodes,
    distance_dtype,
    pack_codes,
    packed_distance_blocks,
)

#: The paper's MAP truncation depth (§4.2: "we set n as 5000").
PAPER_MAP_DEPTH = 5000

#: P@N evaluation points used in Figure 2.
PAPER_PN_POINTS: tuple[int, ...] = (100, 300, 500, 700, 900, 1000)


def _check_rank_inputs(
    distances_shape: tuple[int, ...], relevance_shape: tuple[int, ...]
) -> None:
    if distances_shape != relevance_shape:
        raise ShapeError(
            f"distances {distances_shape} and relevance {relevance_shape} differ"
        )
    if len(distances_shape) != 2:
        raise ShapeError(f"expected 2-D matrices, got {distances_shape}")


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
    _check_depths(top_n)
    ranked, _ = _rank_codes(query_codes, db_codes, relevance, top_n)
    return _mean_average_precision(ranked, top_n)


def mean_average_precision_from_distances(
    distances: np.ndarray,
    relevance: np.ndarray,
    top_n: int = PAPER_MAP_DEPTH,
) -> float:
    """MAP@n given a precomputed distance matrix."""
    _check_rank_inputs(distances.shape, relevance.shape)
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
    _check_rank_inputs(distances.shape, relevance.shape)
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


def _pack_pair(
    query_codes: np.ndarray, db_codes: np.ndarray
) -> tuple[PackedCodes, PackedCodes]:
    """Validate and bit-pack both ±1 code sets, which must share a length."""
    query, db = pack_codes(query_codes), pack_codes(db_codes)
    if query.n_bits != db.n_bits:
        raise ShapeError(
            f"code lengths differ: {query.n_bits} vs {db.n_bits}"
        )
    return query, db


def _rank_codes(
    query_codes: np.ndarray,
    db_codes: np.ndarray,
    relevance: np.ndarray,
    depth: int,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_rank_blocks` over packed codes and a relevance matrix."""
    query, db = _pack_pair(query_codes, db_codes)
    shape = (len(query), len(db))
    _check_rank_inputs(shape, relevance.shape)
    return _rank_blocks(packed_distance_blocks(query, db),
                        lambda start, stop: relevance[start:stop],
                        shape, depth, query.n_bits)


def _rank_blocks(
    blocks: Iterable[tuple[int, np.ndarray]],
    relevance_rows: Callable[[int, int], np.ndarray],
    shape: tuple[int, int],
    depth: int,
    n_bits: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Rank blocks of query rows once; return the ranked prefix and PR counts.

    ``blocks`` yields ``(start, distances)``: integer Hamming distances in
    ``0..n_bits`` of consecutive query rows against the whole database, of
    the ``shape`` (queries, database) evaluation.  ``relevance_rows(start,
    stop)`` returns the same rows' relevance.  Returns the float64
    relevance of each query's first ``min(depth, n_db)`` results, ranked by
    distance with ties broken by database index (the stable argsort
    order), and the counts of ``2·distance + relevant`` over every pair.
    """
    n_query, n_db = shape
    depth = min(depth, n_db)
    ranked = np.empty((n_query, depth))
    counts = np.zeros(2 * (n_bits + 1), dtype=np.intp)
    code_dtype = distance_dtype(counts.size - 1)
    # One collision-free key per pair, distance major and database index
    # minor: partitioning off the ``depth`` smallest keys and sorting them
    # gives exactly the stable (distance, index) order, without sorting
    # the rest of the row.
    shift = (n_db - 1).bit_length()
    key_dtype = (np.int32 if (n_bits + 1) << shift <= 1 << 31 else np.int64)
    db_index = np.arange(n_db, dtype=key_dtype)
    for start, distances in blocks:
        stop = start + len(distances)
        relevance = relevance_rows(start, stop)
        if depth:
            keys = distances.astype(key_dtype)
            keys <<= shift
            keys |= db_index
            keys = np.partition(keys, depth - 1, axis=1)[:, :depth]
            keys.sort(axis=1)
            keys &= (1 << shift) - 1
            # A flat take is a third of take_along_axis's time here.
            row_starts = np.arange(len(keys))[:, None] * n_db
            ranked[start:stop] = np.take(relevance, keys + row_starts)
        # Odd bins count the relevant pairs, even + odd all pairs.
        codes = distances.astype(code_dtype)
        codes <<= 1
        codes |= relevance.astype(bool, copy=False)
        counts += np.bincount(codes.ravel(), minlength=counts.size)
    return ranked, counts


def _mean_average_precision(ranked: np.ndarray, top_n: int) -> float:
    """Mean :func:`average_precision` of every ranked row, in one pass.

    Each row takes the same float operations in the same order as
    :func:`average_precision`, so the mean is bit-identical to the
    per-row loop; rows with no relevant result score 0.
    """
    rel = ranked[:, :top_n]
    n_rel = rel.sum(axis=1)
    cum_precision = np.cumsum(rel, axis=1)
    cum_precision /= np.arange(1, rel.shape[1] + 1)
    cum_precision *= rel
    aps = np.divide(cum_precision.sum(axis=1), n_rel,
                    out=np.zeros_like(n_rel), where=n_rel != 0)
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
    _, counts = _rank_codes(query_codes, db_codes, relevance, depth=0)
    return _pr_curve(counts)


def _pr_curve(counts: np.ndarray) -> PRCurve:
    """PR curve from :func:`_rank_blocks`' ``2·distance + relevant`` counts."""
    relevant = counts[1::2]
    total_relevant = relevant.sum()
    if total_relevant == 0:
        raise ShapeError("relevance matrix has no relevant pairs")
    relevant_cum = np.cumsum(relevant).astype(np.float64)
    all_cum = np.cumsum(counts[0::2] + relevant).astype(np.float64)

    precision = np.divide(
        relevant_cum, all_cum, out=np.zeros_like(relevant_cum), where=all_cum > 0
    )
    recall = relevant_cum / float(total_relevant)
    return PRCurve(radii=np.arange(relevant.size), precision=precision,
                   recall=recall)
