"""Hamming-space primitives: code packing and distance computation.

Hash codes live in {-1, +1}^k (paper §3.1).  Two distance paths are provided:

- :func:`hamming_distance_matrix` — BLAS path using the identity
  ``Hd(b_i, b_j) = (k - b_i·b_j) / 2`` (paper §3.4), for callers that want
  one float matrix (Figure 2's P@N panels).
- :class:`PackedCodes` + :func:`packed_hamming_distance` — bit-packed uint8
  storage, the representation a production system ships (64x smaller than
  float codes), with exact integer distances.  Tested to agree exactly
  with the BLAS path.

One popcount kernel, :func:`packed_distance_blocks`, computes every packed
distance: serving search, radius lookup and the §4.2 evaluation all take
their distances from it.  It walks the left operand in blocks of
:data:`BLOCK_ROWS` rows, XORs each block against every right row over the
widest uint64/uint32/uint16 words that divide the byte width, and
popcounts straight into ``uint8`` (``uint16`` past 255 bits) — hardware
``np.bitwise_count`` on numpy >= 2, a byte lookup table otherwise.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.errors import ShapeError
from repro.utils.validation import check_binary_codes

#: Popcount lookup table for all byte values.
_POPCOUNT = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)

#: numpy >= 2.0 ships a hardware popcount ufunc; the LUT gather above stays
#: as the fallback so older numpys keep working.
_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")

#: Byte budget for one block's uint8 distances against a 32k-row database
#: (the scale of the paper's splits): 512 KiB, which stays resident in a
#: per-core L2 of 1 MiB or more.
_BLOCK_BYTES = 1 << 19

#: Left-operand rows per distance block (16).  Measured on a 2-vCPU host,
#: 16 rows beat 4, 8, 32, 64 and 128 for 500 × 29.5k evaluation cells at
#: 32 and 64 bits, and beat 256-row chunks for 64-query serving batches.
BLOCK_ROWS = _BLOCK_BYTES // (1 << 15)

#: Popcount words, widest first; the first that divides a code's byte width
#: is used (odd byte widths popcount byte by byte).
_WORDS = (np.uint64, np.uint32, np.uint16)


def hamming_distance_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise Hamming distances between ±1 code matrices.

    Uses ``Hd = (k - a·b) / 2``; the result is an integer-valued float
    matrix of shape ``(len(a), len(b))``.
    """
    a = check_binary_codes(a, "a")
    b = check_binary_codes(b, "b")
    if a.shape[1] != b.shape[1]:
        raise ShapeError(
            f"code lengths differ: {a.shape[1]} vs {b.shape[1]}"
        )
    k = a.shape[1]
    return (k - a @ b.T) / 2.0


@dataclass(frozen=True)
class PackedCodes:
    """Bit-packed ±1 hash codes: +1 -> bit 1, -1 -> bit 0.

    Attributes
    ----------
    bits:
        uint8 array of shape ``(n, ceil(k/8))``.
    n_bits:
        Original code length ``k`` (needed because packing pads to bytes).
    """

    bits: np.ndarray
    n_bits: int

    def __post_init__(self) -> None:
        if self.bits.dtype != np.uint8 or self.bits.ndim != 2:
            raise ShapeError("bits must be a 2-D uint8 array")
        expected = (self.n_bits + 7) // 8
        if self.bits.shape[1] != expected:
            raise ShapeError(
                f"bits has {self.bits.shape[1]} bytes per code, expected {expected} "
                f"for {self.n_bits}-bit codes"
            )

    def __len__(self) -> int:
        return self.bits.shape[0]

    @property
    def nbytes(self) -> int:
        return int(self.bits.nbytes)


def pack_codes(codes: np.ndarray) -> PackedCodes:
    """Pack a ±1 code matrix into bits (padding bits are zero)."""
    codes = check_binary_codes(codes)
    bools = codes > 0
    return PackedCodes(bits=np.packbits(bools, axis=1), n_bits=codes.shape[1])


def unpack_codes(packed: PackedCodes) -> np.ndarray:
    """Inverse of :func:`pack_codes`, recovering the ±1 matrix."""
    bools = np.unpackbits(packed.bits, axis=1)[:, : packed.n_bits]
    return np.where(bools.astype(bool), 1.0, -1.0)


def distance_dtype(n_bits: int) -> type[np.unsignedinteger]:
    """Narrowest unsigned dtype that holds every distance of ``n_bits`` codes."""
    return np.uint8 if n_bits < 256 else np.uint16


def packed_distance_blocks(
    a: PackedCodes, b: PackedCodes
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(start, distances)`` for each :data:`BLOCK_ROWS`-row block of ``a``.

    ``distances`` holds the Hamming distances of rows ``start:start + rows``
    of ``a`` against every row of ``b``, as :func:`distance_dtype` integers.
    """
    if a.n_bits != b.n_bits:
        raise ShapeError(f"code lengths differ: {a.n_bits} vs {b.n_bits}")
    a_bits, b_bits = a.bits, b.bits
    if _HAS_BITWISE_COUNT:
        # Reinterpret both operands as the widest words that divide the
        # byte width *before* the pairwise XOR: the broadcast buffer
        # shrinks by the word size in element count, and each word
        # resolves with one hardware popcount (32-bit codes: one uint32).
        word = next((w for w in _WORDS
                     if a_bits.shape[1] % np.dtype(w).itemsize == 0), None)
        if word is not None:
            a_bits = np.ascontiguousarray(a_bits).view(word)
            b_bits = np.ascontiguousarray(b_bits).view(word)
        popcount = np.bitwise_count
    else:
        popcount = _POPCOUNT.__getitem__
    dtype = distance_dtype(a.n_bits)
    if a_bits.shape[1] == 1:  # one word per code: the popcount is the distance
        b_word = b_bits[:, 0]
        for start in range(0, len(a), BLOCK_ROWS):
            block = a_bits[start:start + BLOCK_ROWS, 0]
            yield start, popcount(block[:, None] ^ b_word[None, :])
        return
    for start in range(0, len(a), BLOCK_ROWS):
        block = a_bits[start:start + BLOCK_ROWS]
        counts = popcount(block[:, None, :] ^ b_bits[None, :, :])
        yield start, counts.sum(axis=2, dtype=dtype)


def packed_hamming_distance(a: PackedCodes, b: PackedCodes) -> np.ndarray:
    """Pairwise Hamming distances between packed code sets.

    The matrix is :func:`distance_dtype` integers: ``uint8``, or ``uint16``
    past 255 bits.
    """
    out = np.empty((len(a), len(b)), dtype=distance_dtype(a.n_bits))
    for start, block in packed_distance_blocks(a, b):
        if len(block) == len(a):  # one block holds every row: no copy
            return block
        out[start:start + len(block)] = block
    return out
