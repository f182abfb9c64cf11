"""Ground-truth relevance protocol.

Following §4.2: two images form a *similar pair* iff they share at least one
label; otherwise they are dissimilar.  Relevance matrices are boolean with
queries as rows.

Labels are checked once by :func:`prepare_labels`, which also picks the
exact product dtype; :func:`shares_label` then computes relevance for any
block of query rows, so a blocked evaluation never re-checks the database
labels.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError


def relevance_matrix(query_labels: np.ndarray, db_labels: np.ndarray) -> np.ndarray:
    """Boolean (n_query, n_db) matrix: share >= 1 label (paper §4.2)."""
    return shares_label(*prepare_labels(query_labels, db_labels))


def prepare_labels(
    query_labels: np.ndarray, db_labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Validate a query/database label pair and cast both for the product.

    Multi-hot (0/1) labels become float32: their product runs in BLAS
    (numpy's int64 matmul does not), and a float sum of 0/1 terms is
    positive exactly when one term is 1, at any precision and label count.
    Any other labels keep the int64 product.
    """
    q = np.asarray(query_labels)
    d = np.asarray(db_labels)
    if q.ndim != 2 or d.ndim != 2:
        raise ShapeError(
            f"labels must be 2-D multi-hot arrays, got {q.shape} and {d.shape}"
        )
    if q.shape[1] != d.shape[1]:
        raise ShapeError(
            f"label dimensions differ: {q.shape[1]} vs {d.shape[1]}"
        )
    if _is_multi_hot(q) and _is_multi_hot(d):
        return q.astype(np.float32), d.astype(np.float32)
    return q.astype(np.int64), d.astype(np.int64)


def shares_label(query_labels: np.ndarray, db_labels: np.ndarray) -> np.ndarray:
    """Relevance of :func:`prepare_labels` output: rows share >= 1 label."""
    return (query_labels @ db_labels.T) > 0


def _is_multi_hot(labels: np.ndarray) -> bool:
    return bool(((labels == 0) | (labels == 1)).all())
