"""Seeded synthetic inputs: feature vectors and their JSON request text.

Every vector coordinate is drawn from one seeded table of 65,536 standard
normals.  The JSON text of each table entry is built once, so a request
body of 64 x 512 floats is a string join rather than 32k float
formattings, and it parses back to exactly the drawn float64 values
(``repr`` round-trips).  Rows are independent uniform draws of table
indices, so no two query rows of a run repeat.
"""

from __future__ import annotations

from operator import itemgetter

import numpy as np

TABLE_SIZE = 1 << 16


def stream(seed: int, *labels: int) -> np.random.Generator:
    """An independent generator for one named use of the workload seed."""
    return np.random.default_rng([seed, *labels])


class VectorSource:
    """Input rows of width ``dim`` drawn from a seeded value table."""

    def __init__(self, seed: int, dim: int) -> None:
        self.dim = dim
        self.values = stream(seed, 0).standard_normal(TABLE_SIZE)
        self._text = [repr(v) for v in self.values.tolist()]

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Table indices of ``n`` fresh rows, shape ``(n, dim)``."""
        return rng.integers(0, TABLE_SIZE, size=(n, self.dim), dtype=np.uint16)

    def matrix(self, idx: np.ndarray) -> np.ndarray:
        """The float64 rows the indices stand for."""
        return self.values[idx]

    def json_rows(self, idx: np.ndarray) -> str:
        """``idx`` as a JSON array of rows (one row: a flat array)."""
        text = self._text
        if idx.ndim == 1:
            return "[" + ", ".join(itemgetter(*idx.tolist())(text)) + "]"
        return "[" + ", ".join(
            "[" + ", ".join(itemgetter(*row)(text)) + "]"
            for row in idx.tolist()
        ) + "]"
