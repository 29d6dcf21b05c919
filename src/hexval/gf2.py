"""Bit-packed linear algebra over GF(2).

A vector, and a matrix row, is a plain Python int: bit i is coordinate
i, so a point set of a geometry is its own GF(2) vector and XOR-based
elimination on 63-bit vectors is a single machine-word operation.
``nullspace`` takes a sequence of int rows and the column count;
``span_words`` lays a whole span out as a numpy array of 64-bit words,
one row per vector. ``bits_at`` reads such packed rows back bit by
bit.
"""
from __future__ import annotations

from typing import List, Sequence

import numpy as np

_WORD = (1 << 64) - 1


def _eliminate(row_bits: List[int], cols: int):
    """Row-reduce in place over the columns 0..cols-1, lowest first.

    Returns the list of (pivot_row, pivot_col) pairs in elimination order.
    """
    pivots = []
    row = 0
    for col in range(cols):
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


def nullspace(rows: Sequence[int], cols: int) -> List[int]:
    """Basis of {v : (row & v) has even weight for every row}, in reduced
    echelon form of the kernel.

    Pivoting is deterministic (lowest-index column first); the basis
    vectors are sorted by their pivot (free) column.
    """
    bits = list(rows)
    pivots = _eliminate(bits, cols)
    pivot_cols = {col: row for row, col in pivots}
    free_cols = [c for c in range(cols) if c not in pivot_cols]
    basis = []
    for f in free_cols:
        v = 1 << f
        for col, row in pivot_cols.items():
            if bits[row] & (1 << f):
                v |= 1 << col
        basis.append(v)
    return basis


def to_words(values: Sequence[int], words: int) -> np.ndarray:
    """The low ``64 * words`` bits of each int as a [len(values), words]
    uint64 array, low word first."""
    return np.array([[v >> (64 * w) & _WORD for w in range(words)]
                     for v in values], dtype=np.uint64).reshape(-1, words)


def from_words(row: np.ndarray) -> int:
    """The int whose uint64 words, low word first, are row."""
    return sum(x << (64 * w) for w, x in enumerate(row.tolist()))


def bits_at(words: np.ndarray, rows: np.ndarray,
            cols: np.ndarray) -> np.ndarray:
    """Whether bit cols of row rows of the packed uint64 array words is
    set, elementwise over the broadcast index arrays; the bits of a row
    are in the to_words layout. A column below 0 reads some bit of its
    row's last word, so callers mask such columns out."""
    # one flat gather: numpy's 1-D take is faster than a 2-D index
    flat = words.reshape(-1)[rows * words.shape[1] + (cols >> 6)]
    return (flat >> (cols & 63).astype(np.uint64) & np.uint64(1)).astype(bool)


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
