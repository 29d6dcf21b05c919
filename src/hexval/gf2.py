"""Bit-packed linear algebra over GF(2).

Vectors are stored as arbitrary-precision Python integers (bit i of the
integer is coordinate i), which keeps XOR-based elimination on 63-bit
vectors a single machine-word operation. ``span_words`` lays a whole span
out as a numpy array of 64-bit words, one row per vector.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence

import numpy as np

_WORD = (1 << 64) - 1


@dataclass(frozen=True)
class BitVector:
    """A GF(2) vector of fixed length, packed into an int."""

    length: int
    bits: int = 0

    def __post_init__(self):
        if self.length < 0:
            raise ValueError("negative length")
        if self.bits >> self.length:
            raise ValueError("bits set beyond vector length")

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.length != other.length:
            raise ValueError("length mismatch")
        return BitVector(self.length, self.bits ^ other.bits)

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(i)
        return (self.bits >> i) & 1

    def weight(self) -> int:
        return self.bits.bit_count()

    def support(self) -> List[int]:
        """Indices of the nonzero coordinates, ascending."""
        out = []
        b = self.bits
        while b:
            low = b & -b
            out.append(low.bit_length() - 1)
            b ^= low
        return out


@dataclass(frozen=True)
class BitMatrix:
    """A GF(2) matrix as a list of BitVector rows."""

    rows: int
    cols: int
    row_data: tuple

    def __post_init__(self):
        if len(self.row_data) != self.rows:
            raise ValueError("row count mismatch")
        for r in self.row_data:
            if r.length != self.cols:
                raise ValueError("row length mismatch")

    @classmethod
    def from_rows(cls, cols: int, rows: Iterable[BitVector]) -> "BitMatrix":
        rows = tuple(rows)
        return cls(len(rows), cols, rows)


def _eliminate(row_bits: List[int], cols: int, col_order: Iterable[int]):
    """Row-reduce in place over the given column order.

    Returns the list of (pivot_row, pivot_col) pairs in elimination order.
    """
    pivots = []
    row = 0
    for col in col_order:
        mask = 1 << col
        pivot = None
        for r in range(row, len(row_bits)):
            if row_bits[r] & mask:
                pivot = r
                break
        if pivot is None:
            continue
        row_bits[row], row_bits[pivot] = row_bits[pivot], row_bits[row]
        for r in range(len(row_bits)):
            if r != row and row_bits[r] & mask:
                row_bits[r] ^= row_bits[row]
        pivots.append((row, col))
        row += 1
        if row == len(row_bits):
            break
    return pivots


def rank(m: BitMatrix, col_order: Iterable[int] | None = None) -> int:
    """GF(2) rank, optionally with a custom column elimination order."""
    if col_order is None:
        col_order = range(m.cols)
    bits = [r.bits for r in m.row_data]
    return len(_eliminate(bits, m.cols, col_order))


def nullspace(m: BitMatrix) -> List[BitVector]:
    """Basis of {v : M v = 0} in reduced echelon form of the kernel.

    Pivoting is deterministic (lowest-index column first); the basis
    vectors are sorted by their pivot (free) column.
    """
    bits = [r.bits for r in m.row_data]
    pivots = _eliminate(bits, m.cols, range(m.cols))
    pivot_cols = {col: row for row, col in pivots}
    free_cols = [c for c in range(m.cols) if c not in pivot_cols]
    basis = []
    for f in free_cols:
        v = 1 << f
        for col, row in pivot_cols.items():
            if bits[row] & (1 << f):
                v |= 1 << col
        basis.append(BitVector(m.cols, v))
    return basis


def span_iter(basis: List[BitVector]) -> Iterator[BitVector]:
    """Yield all 2^k vectors of the span of an independent basis.

    Order is the Gray-code walk over coefficient vectors: step i flips the
    basis element indexed by the number of trailing zeros of i. The walk is
    stable for a fixed basis, starting at the zero vector.
    """
    if not basis:
        yield BitVector(0, 0)
        return
    length = basis[0].length
    mat = BitMatrix.from_rows(length, basis)
    if rank(mat) != len(basis):
        raise ValueError("basis vectors are linearly dependent")
    cur = 0
    yield BitVector(length, cur)
    for i in range(1, 1 << len(basis)):
        j = (i & -i).bit_length() - 1
        cur ^= basis[j].bits
        yield BitVector(length, cur)


def to_words(values: Sequence[int], words: int) -> np.ndarray:
    """The low ``64 * words`` bits of each int as a [len(values), words]
    uint64 array, low word first."""
    return np.array([[v >> (64 * w) & _WORD for w in range(words)]
                     for v in values], dtype=np.uint64).reshape(-1, words)


def from_words(row: np.ndarray) -> int:
    """The int whose uint64 words, low word first, are row."""
    return sum(int(x) << (64 * w) for w, x in enumerate(row))


def span_rows(rows: np.ndarray) -> np.ndarray:
    """All 2^k XOR combinations of the k rows of an integer array, as
    rows: row i is the XOR of rows[j] over the bits j of i, built by
    doubling (rows 2^j .. 2^(j+1) - 1 are rows 0 .. 2^j - 1 XOR
    rows[j])."""
    out = np.zeros((1 << len(rows), rows.shape[1]), dtype=rows.dtype)
    for j, row in enumerate(rows):
        out[1 << j:2 << j] = out[:1 << j] ^ row
    return out


def span_words(basis: Sequence[int], length: int) -> np.ndarray:
    """All 2^k vectors of the span of k basis vectors of the given length,
    as a [2^k, max(1, ceil(length / 64))] uint64 array of words; row i is
    the XOR of basis[j] over the bits j of i."""
    return span_rows(to_words(basis, max(1, -(-length // 64))))
