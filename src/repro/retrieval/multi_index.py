"""Multi-Index Hashing for sublinear Hamming-radius search.

Implements the classic MIH decomposition (Norouzi, Punjani & Fleet, CVPR
2012): split each k-bit code into ``m`` disjoint substrings and bucket the
database by each substring.  By the pigeonhole principle, any code within
Hamming radius ``r`` of a query must match the query within ``floor(r/m)``
in at least one substring — so radius search only probes a small
neighbourhood of buckets per table instead of scanning the corpus.

This is the serving-side structure the paper's hash-lookup protocol
(Figure 3) implies at production scale; it registers as the
``"multi-index"`` :mod:`~repro.retrieval.backend`.  The brute-force
:class:`~repro.retrieval.engine.HammingIndex` remains the reference
implementation and the two are tested to agree exactly.

Serving hot paths are vectorized end to end:

- **build** packs whole substring columns into integer bucket keys at once
  (:func:`_bulk_keys`, no per-row Python loop);
- **buckets** are CSR-shaped — an offsets array plus one flat members
  array per table (direct-addressed for substrings up to
  ``_DIRECT_WIDTH`` bits, binary-searched over sorted unique keys beyond
  that) — so one probe resolves thousands of candidate keys with array
  gathers instead of per-key dict lookups;
- **probing** grows the radius incrementally: each expansion step XORs the
  query key against a cached mask ring (exactly ``t`` flipped bits) and
  only the new ring is probed;
- **verification** runs on bit-packed codes with LUT popcounts — no float
  BLAS, and no re-validation: codes are validated exactly once, when they
  enter the index.

``add()`` appends with stable insertion-order ids; ``remove(ids)``
tombstones rows and the CSR probe structures are lazily rebuilt over alive
rows only (call :meth:`MultiIndexHammingIndex.vacuum` to force the rebuild
eagerly after heavy churn).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from repro.errors import NotFittedError, ShapeError
from repro.retrieval.backend import register_backend
from repro.retrieval.hamming import _POPCOUNT, packed_distances_to_one
from repro.utils.validation import check_binary_codes

_EMPTY_IDS = np.empty(0, dtype=np.int64)


def _popcount_keys(x: np.ndarray) -> np.ndarray:
    """Popcount of each non-negative integer key (object dtype supported)."""
    if x.dtype == object:
        return np.array([bin(int(v)).count("1") for v in x], dtype=np.int64)
    b = np.ascontiguousarray(x.astype(np.int64)).view(np.uint8).reshape(-1, 8)
    return _POPCOUNT[b].sum(axis=1, dtype=np.int64)

#: Widest substring that gets a direct-addressed offsets array (2^w + 1
#: int64 entries, so 18 bits = 2 MiB per table); wider substrings fall back
#: to binary search over sorted unique keys.
_DIRECT_WIDTH = 18


def _split_points(n_bits: int, n_tables: int) -> list[tuple[int, int]]:
    """Contiguous substring spans covering 0..n_bits as evenly as possible."""
    base = n_bits // n_tables
    remainder = n_bits % n_tables
    spans = []
    start = 0
    for t in range(n_tables):
        width = base + (1 if t < remainder else 0)
        spans.append((start, start + width))
        start += width
    return spans


def _substring_key(bits: np.ndarray) -> int:
    """Pack one boolean substring into an integer bucket key (MSB first)."""
    key = 0
    for b in bits:
        key = (key << 1) | int(b)
    return key


def _bulk_keys(bools: np.ndarray) -> np.ndarray:
    """Bucket keys for every row of a boolean substring matrix at once.

    Equivalent to ``[_substring_key(row) for row in bools]`` but vectorized:
    one matmul against powers of two for widths that fit int64, a packbits
    fallback (object dtype, arbitrary precision) for wider substrings.
    """
    width = bools.shape[1]
    if width <= 62:
        powers = (1 << np.arange(width - 1, -1, -1)).astype(np.int64)
        return bools.astype(np.int64) @ powers
    packed = np.packbits(bools, axis=1)
    shift = 8 * packed.shape[1] - width
    return np.array(
        [int.from_bytes(row.tobytes(), "big") >> shift for row in packed],
        dtype=object,
    )


def _keys_within_radius(key: int, width: int, radius: int) -> list[int]:
    """All integer keys within Hamming distance ``radius`` of ``key``."""
    keys = [key]
    for r in range(1, radius + 1):
        for flip in combinations(range(width), r):
            mask = 0
            for bit in flip:
                mask |= 1 << bit
            keys.append(key ^ mask)
    return keys


@lru_cache(maxsize=None)
def _ring_masks(width: int, r: int) -> np.ndarray:
    """All XOR masks over ``width`` bits with exactly ``r`` bits set.

    Cached per (width, r) so probe expansion reuses the enumeration; int64
    for widths that fit, object dtype (arbitrary-precision ints) beyond.
    """
    dtype = np.int64 if width <= 62 else object
    if r == 0:
        return np.zeros(1, dtype=dtype)
    masks = []
    for flip in combinations(range(width), r):
        mask = 0
        for bit in flip:
            mask |= 1 << bit
        masks.append(mask)
    return np.array(masks, dtype=dtype)


@lru_cache(maxsize=None)
def _masks_within_radius(width: int, radius: int) -> np.ndarray:
    """All XOR masks over ``width`` bits with at most ``radius`` bits set."""
    return np.concatenate(
        [_ring_masks(width, r) for r in range(radius + 1)]
    )


def _gather_slices(
    starts: np.ndarray, lengths: np.ndarray, members: np.ndarray
) -> np.ndarray:
    """Concatenate ``members[starts[i] : starts[i]+lengths[i]]`` slices."""
    nz = lengths > 0
    starts, lengths = starts[nz], lengths[nz]
    total = int(lengths.sum())
    if total == 0:
        return _EMPTY_IDS
    out_starts = np.cumsum(lengths) - lengths
    indices = np.arange(total, dtype=np.int64) + np.repeat(
        starts - out_starts, lengths
    )
    return members[indices]


@register_backend("multi-index")
class MultiIndexHammingIndex:
    """Bucketed Hamming index with pigeonhole radius search.

    Parameters
    ----------
    n_bits:
        Code length ``k``.
    n_tables:
        Number of substring tables ``m``.  Larger m = cheaper probes but
        more candidate verification; m ≈ k / log2(n) is the classic choice.
    """

    def __init__(self, n_bits: int, n_tables: int = 4) -> None:
        if n_bits <= 0:
            raise ShapeError(f"n_bits must be positive: {n_bits}")
        if not 1 <= n_tables <= n_bits:
            raise ShapeError(
                f"n_tables must be in [1, {n_bits}], got {n_tables}"
            )
        self.n_bits = n_bits
        self.n_tables = n_tables
        self._spans = _split_points(n_bits, n_tables)
        self._widths = [end - start for start, end in self._spans]
        #: Per table: bucket key of every row ever added (dead rows included).
        self._row_keys: list[np.ndarray] = [
            np.empty(0, dtype=np.int64 if w <= 62 else object)
            for w in self._widths
        ]
        #: Per table: lazily (re)built CSR probe structure over alive rows.
        self._csr: list[tuple | None] = [None] * n_tables
        self._bits = np.empty((0, (n_bits + 7) // 8), dtype=np.uint8)
        self._alive = np.empty(0, dtype=bool)
        self._n_alive = 0

    # -- mutation ---------------------------------------------------------------

    def add(self, codes: np.ndarray) -> "MultiIndexHammingIndex":
        """Append ±1 codes; new rows get the next insertion-order ids.

        Validation happens here, once — queries and searches never rescan
        the database codes.
        """
        codes = check_binary_codes(codes)
        if codes.shape[1] != self.n_bits:
            raise ShapeError(
                f"expected {self.n_bits}-bit codes, got {codes.shape[1]}"
            )
        bools = codes > 0
        n_new = bools.shape[0]
        self._bits = np.concatenate([self._bits, np.packbits(bools, axis=1)])
        self._alive = np.concatenate([self._alive, np.ones(n_new, dtype=bool)])
        self._n_alive += n_new
        for ti, (start, end) in enumerate(self._spans):
            self._row_keys[ti] = np.concatenate(
                [self._row_keys[ti], _bulk_keys(bools[:, start:end])]
            )
            self._csr[ti] = None
        return self

    def remove(self, ids: np.ndarray) -> int:
        """Tombstone rows by stable id (unknown ids are ignored).

        Returns the number of rows actually removed.  Probe structures are
        rebuilt lazily over the surviving rows; ids are never renumbered.
        """
        ids = np.atleast_1d(np.asarray(ids, dtype=np.int64))
        ids = ids[(ids >= 0) & (ids < self._alive.size)]
        targets = np.unique(ids[self._alive[ids]])
        if targets.size:
            self._alive[targets] = False
            self._n_alive -= int(targets.size)
            self._csr = [None] * self.n_tables
        return int(targets.size)

    def vacuum(self) -> "MultiIndexHammingIndex":
        """Eagerly rebuild every probe structure over the alive rows."""
        for ti in range(self.n_tables):
            self._csr[ti] = None
            self._csr_table(ti)
        return self

    # -- introspection ----------------------------------------------------------

    def __len__(self) -> int:
        return self._n_alive

    @property
    def bucket_counts(self) -> list[int]:
        """Number of buckets holding at least one alive row, per table."""
        self._require_built()
        return [self._occupied_buckets(ti) for ti in range(self.n_tables)]

    # -- probe structures -------------------------------------------------------

    def _csr_table(self, ti: int) -> tuple:
        """CSR probe structure for table ``ti``, rebuilt if stale.

        Direct mode: ``("direct", offsets, members, occupied_keys)`` with
        ``offsets`` of length ``2^width + 1`` so a probe key indexes its
        bucket directly.  Sorted mode: ``("sorted", unique_keys, offsets,
        members)`` resolved by binary search.  ``members`` holds alive row
        ids grouped by key.
        """
        csr = self._csr[ti]
        if csr is not None:
            return csr
        width = self._widths[ti]
        alive_rows = np.flatnonzero(self._alive)
        keys = self._row_keys[ti][alive_rows]
        order = np.argsort(keys, kind="stable")
        members = alive_rows[order]
        if width <= _DIRECT_WIDTH:
            counts = np.bincount(
                keys.astype(np.int64), minlength=1 << width
            )
            offsets = np.concatenate(
                [np.zeros(1, dtype=np.int64), np.cumsum(counts)]
            )
            csr = ("direct", offsets, members, np.flatnonzero(counts))
        else:
            sorted_keys = keys[order]
            if sorted_keys.size:
                boundaries = (
                    np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
                )
                unique_keys = sorted_keys[
                    np.concatenate([np.zeros(1, dtype=np.int64), boundaries])
                ]
                offsets = np.concatenate(
                    [np.zeros(1, dtype=np.int64), boundaries,
                     np.array([sorted_keys.size], dtype=np.int64)]
                )
            else:
                unique_keys = sorted_keys
                offsets = np.zeros(1, dtype=np.int64)
            csr = ("sorted", unique_keys, offsets, members)
        self._csr[ti] = csr
        return csr

    def _occupied_buckets(self, ti: int) -> int:
        csr = self._csr_table(ti)
        return len(csr[3]) if csr[0] == "direct" else len(csr[1])

    def _probe_table(self, ti: int, probe_keys: np.ndarray) -> np.ndarray:
        """Alive row ids in any of the probed buckets (one vectorized gather)."""
        csr = self._csr_table(ti)
        if csr[0] == "direct":
            _, offsets, members, _ = csr
            starts = offsets[probe_keys]
            lengths = offsets[probe_keys + 1] - starts
        else:
            _, unique_keys, offsets, members = csr
            if unique_keys.size == 0:
                return _EMPTY_IDS
            pos = np.searchsorted(unique_keys, probe_keys)
            pos[pos == unique_keys.size] = 0
            valid = unique_keys[pos] == probe_keys
            pos = pos[valid]
            starts = offsets[pos]
            lengths = offsets[pos + 1] - starts
        return _gather_slices(starts, lengths, members)

    def _probe_scan(self, ti: int, query_key: int, lo: int, hi: int) -> np.ndarray:
        """Alive ids in buckets whose key lies within [lo, hi] of the query.

        Scans the occupied bucket keys with a vectorized popcount instead of
        enumerating probe masks — the cheaper strategy once the mask
        neighbourhood outgrows the number of occupied buckets (deep radii,
        where C(width, r) explodes but the table only holds n keys).
        """
        csr = self._csr_table(ti)
        if csr[0] == "direct":
            _, offsets, members, occupied = csr
            keys = occupied
        else:
            _, keys, offsets, members = csr
        if keys.size == 0:
            return _EMPTY_IDS
        distance = _popcount_keys(keys ^ query_key)
        if csr[0] == "direct":
            sel = keys[(distance >= lo) & (distance <= hi)]
            starts = offsets[sel]
            lengths = offsets[sel + 1] - starts
        else:
            pos = np.flatnonzero((distance >= lo) & (distance <= hi))
            starts = offsets[pos]
            lengths = offsets[pos + 1] - starts
        return _gather_slices(starts, lengths, members)

    # -- internals --------------------------------------------------------------

    def _require_built(self) -> None:
        if self._n_alive == 0:
            raise NotFittedError("index is empty; call add() first")

    def _check_queries(self, query_codes: np.ndarray) -> np.ndarray:
        query_codes = check_binary_codes(query_codes, "query_codes")
        if query_codes.shape[1] != self.n_bits:
            raise ShapeError(
                f"expected {self.n_bits}-bit queries, got {query_codes.shape[1]}"
            )
        return query_codes

    def _query_keys(self, query_bools: np.ndarray) -> list[np.ndarray]:
        """Per-table bucket key of every query row (bulk keying)."""
        return [
            _bulk_keys(query_bools[:, start:end]) for start, end in self._spans
        ]

    def _candidates_from_keys(
        self, keys_per_table: list, radius: int
    ) -> np.ndarray:
        """Pigeonhole candidate ids for one query at the given radius.

        ``keys_per_table[ti]`` is the query's bucket key in table ``ti``.
        Returns alive ids sorted ascending (so downstream lexsort
        tie-breaking matches the brute-force engine).
        """
        per_table_radius = radius // self.n_tables
        hit_lists = []
        for ti, width in enumerate(self._widths):
            probe_radius = min(per_table_radius, width)
            n_masks = sum(comb(width, r) for r in range(probe_radius + 1))
            if n_masks > self._occupied_buckets(ti):
                hits = self._probe_scan(ti, keys_per_table[ti], 0, probe_radius)
            else:
                masks = _masks_within_radius(width, probe_radius)
                hits = self._probe_table(ti, keys_per_table[ti] ^ masks)
            hit_lists.append(hits)
        found = np.concatenate(hit_lists)
        if found.size == 0:
            return _EMPTY_IDS
        return np.unique(found)

    def _candidates(self, query_bits: np.ndarray, radius: int) -> np.ndarray:
        """Candidate ids for one boolean query row (testing/diagnostic entry)."""
        keys = [
            _substring_key(query_bits[start:end]) for start, end in self._spans
        ]
        return self._candidates_from_keys(keys, radius)

    def _verify(
        self, packed_query_row: np.ndarray, candidates: np.ndarray
    ) -> np.ndarray:
        """Exact distances from one packed query to the candidate rows."""
        return packed_distances_to_one(packed_query_row, self._bits[candidates])

    # -- queries ----------------------------------------------------------------

    def radius_search(
        self, query_codes: np.ndarray, radius: int
    ) -> list[np.ndarray]:
        """All alive ids within ``radius`` per query (sorted ascending).

        Exact — candidates from the pigeonhole probe are verified against
        the packed codes, and the pigeonhole bound guarantees no true
        neighbour is missed.
        """
        self._require_built()
        if not 0 <= radius <= self.n_bits:
            raise ShapeError(f"radius must be in [0, {self.n_bits}], got {radius}")
        query_codes = self._check_queries(query_codes)
        query_bools = query_codes > 0
        packed_q = np.packbits(query_bools, axis=1)
        query_keys = self._query_keys(query_bools)
        results = []
        for qi in range(query_codes.shape[0]):
            candidates = self._candidates_from_keys(
                [keys[qi] for keys in query_keys], radius
            )
            if candidates.size:
                distances = self._verify(packed_q[qi], candidates)
                hits = candidates[distances <= radius]
            else:
                hits = candidates
            results.append(hits)
        return results

    def search(
        self, query_codes: np.ndarray, top_k: int = 10
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-k search by expanding the probe radius until k hits verify.

        Ties break by id, matching the brute-force engine.  The probe grows
        one mask ring per step (per-table radius t covers every id within
        global Hamming distance ``m·t + m - 1`` by the pigeonhole bound),
        and each step verifies only the candidates that ring newly
        surfaced — accumulated distances are reused for both the stopping
        test and the final ranking, so every candidate is verified exactly
        once.
        """
        self._require_built()
        if not 1 <= top_k <= self._n_alive:
            raise ShapeError(
                f"top_k must be in [1, {self._n_alive}], got {top_k}"
            )
        query_codes = self._check_queries(query_codes)
        n_queries = query_codes.shape[0]
        out_idx = np.empty((n_queries, top_k), dtype=np.int64)
        out_dist = np.empty((n_queries, top_k), dtype=np.float64)
        query_bools = query_codes > 0
        packed_q = np.packbits(query_bools, axis=1)
        query_keys = self._query_keys(query_bools)
        m = self.n_tables
        for qi in range(n_queries):
            seen = np.zeros(self._alive.size, dtype=bool)
            candidates = _EMPTY_IDS
            distances = np.empty(0, dtype=np.uint16)
            t = 0
            while True:
                ring_hits = []
                for ti, width in enumerate(self._widths):
                    if t > width:
                        continue
                    if comb(width, t) > self._occupied_buckets(ti):
                        hits = self._probe_scan(ti, query_keys[ti][qi], t, t)
                    else:
                        probe = query_keys[ti][qi] ^ _ring_masks(width, t)
                        hits = self._probe_table(ti, probe)
                    ring_hits.append(hits)
                fresh = np.unique(np.concatenate(ring_hits)) if ring_hits \
                    else _EMPTY_IDS
                fresh = fresh[~seen[fresh]]
                if fresh.size:
                    seen[fresh] = True
                    candidates = np.concatenate([candidates, fresh])
                    distances = np.concatenate(
                        [distances, self._verify(packed_q[qi], fresh)]
                    )
                guaranteed = min(m * t + m - 1, self.n_bits)
                if (int((distances <= guaranteed).sum()) >= top_k
                        or guaranteed >= self.n_bits):
                    break
                t += 1
            order = np.lexsort((candidates, distances))[:top_k]
            out_idx[qi] = candidates[order]
            out_dist[qi] = distances[order]
        return out_idx, out_dist
