"""Hamming retrieval engine and the paper's evaluation protocol (§4.2).

The backend registry (:mod:`repro.retrieval.backend`) exposes every index
through the :class:`RetrievalBackend` protocol: ``"bruteforce"`` is the
bit-packed linear scan and ``"sharded"`` hash-partitions rows across
brute-force shards.  Both support incremental ``add()``/``remove()``, and
both agree bit-for-bit.
"""

from repro.retrieval.backend import (
    RetrievalBackend,
    backend_names,
    backend_options,
    make_backend,
    register_backend,
)
from repro.retrieval.engine import (
    HammingIndex,
    Hasher,
    RetrievalReport,
    evaluate_codes,
    evaluate_hashing,
)
from repro.retrieval.hamming import (
    PackedCodes,
    hamming_distance_matrix,
    pack_codes,
    packed_hamming_distance,
    unpack_codes,
)
from repro.retrieval.sharded import ShardedIndex
from repro.retrieval.metrics import (
    PAPER_MAP_DEPTH,
    PAPER_PN_POINTS,
    PRCurve,
    average_precision,
    mean_average_precision,
    mean_average_precision_from_distances,
    pr_curve_hamming,
    precision_at_n,
)
from repro.retrieval.protocol import relevance_matrix

__all__ = [
    "HammingIndex",
    "Hasher",
    "PAPER_MAP_DEPTH",
    "PAPER_PN_POINTS",
    "PRCurve",
    "PackedCodes",
    "RetrievalBackend",
    "RetrievalReport",
    "ShardedIndex",
    "average_precision",
    "backend_names",
    "backend_options",
    "evaluate_codes",
    "evaluate_hashing",
    "hamming_distance_matrix",
    "make_backend",
    "mean_average_precision",
    "mean_average_precision_from_distances",
    "pack_codes",
    "packed_hamming_distance",
    "pr_curve_hamming",
    "precision_at_n",
    "register_backend",
    "relevance_matrix",
    "unpack_codes",
]
