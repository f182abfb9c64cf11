"""Ground-truth relevance protocol.

Following §4.2: two images form a *similar pair* iff they share at least one
label; otherwise they are dissimilar.  Relevance matrices are boolean with
queries as rows.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError


def relevance_matrix(query_labels: np.ndarray, db_labels: np.ndarray) -> np.ndarray:
    """Boolean (n_query, n_db) matrix: share >= 1 label (paper §4.2)."""
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
        # Counts of shared 0/1 labels are exact in float64, and the float
        # product runs in BLAS (numpy's int64 matmul does not).
        return (q.astype(np.float64) @ d.astype(np.float64).T) > 0
    return (q.astype(np.int64) @ d.astype(np.int64).T) > 0


def _is_multi_hot(labels: np.ndarray) -> bool:
    return bool(((labels == 0) | (labels == 1)).all())
