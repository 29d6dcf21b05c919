"""GF(2) linear algebra: nullspace against brute force, rank invariance
under column reordering, span iteration."""
import random

import pytest
from hypothesis import given, strategies as st

from hexval import gf2


def from_support(length, support):
    """The vector of the given length with ones exactly on support."""
    return gf2.BitVector(length, sum(1 << i for i in set(support)))


def random_matrix(rng, rows, cols):
    data = [gf2.BitVector(cols, rng.getrandbits(cols)) for _ in range(rows)]
    return gf2.BitMatrix.from_rows(cols, data)


def mul_vec(m, v):
    """Matrix-vector product over GF(2)."""
    if v.length != m.cols:
        raise ValueError("dimension mismatch")
    bits = 0
    for i, row in enumerate(m.row_data):
        if (row.bits & v.bits).bit_count() & 1:
            bits |= 1 << i
    return gf2.BitVector(m.rows, bits)


def brute_force_kernel(m):
    """All vectors v with Mv = 0, by checking every vector."""
    zero = gf2.BitVector(m.rows, 0)
    return sorted(v for v in range(1 << m.cols)
                  if mul_vec(m, gf2.BitVector(m.cols, v)) == zero)


class TestBitVector:
    def test_basic(self):
        v = from_support(8, [0, 3, 7])
        assert v.bits == 0b10001001
        assert v.weight() == 3
        assert v.support() == [0, 3, 7]
        assert v[3] == 1 and v[4] == 0

    def test_xor(self):
        a = gf2.BitVector(5, 0b10110)
        b = gf2.BitVector(5, 0b01110)
        assert (a ^ b).bits == 0b11000

    def test_length_guard(self):
        with pytest.raises(ValueError):
            gf2.BitVector(3, 0b1000)
        with pytest.raises(ValueError):
            gf2.BitVector(4, 1) ^ gf2.BitVector(5, 1)

    @given(st.integers(1, 60), st.data())
    def test_xor_involution(self, length, data):
        bits = st.integers(0, (1 << length) - 1)
        a = gf2.BitVector(length, data.draw(bits))
        b = gf2.BitVector(length, data.draw(bits))
        assert (a ^ b) ^ b == a
        assert (a ^ a).bits == 0

    @given(st.integers(1, 60), st.data())
    def test_support_roundtrip(self, length, data):
        v = gf2.BitVector(length, data.draw(st.integers(0, (1 << length) - 1)))
        assert from_support(length, v.support()) == v
        assert v.weight() == len(v.support())


class TestNullspace:
    def test_identity_has_trivial_kernel(self):
        m = gf2.BitMatrix.from_rows(
            4, [gf2.BitVector(4, 1 << i) for i in range(4)])
        assert gf2.nullspace(m) == []

    def test_zero_matrix_full_kernel(self):
        m = gf2.BitMatrix.from_rows(3, [gf2.BitVector(3, 0)])
        basis = gf2.nullspace(m)
        assert len(basis) == 3

    def test_matches_brute_force_small_random(self):
        rng = random.Random(0)
        for trial in range(40):
            rows = rng.randrange(1, 9)
            cols = rng.randrange(1, 13)
            m = random_matrix(rng, rows, cols)
            basis = gf2.nullspace(m)
            spanned = sorted(v.bits for v in gf2.span_iter(basis))
            assert spanned == brute_force_kernel(m)

    def test_rank_nullity(self):
        rng = random.Random(1)
        for trial in range(40):
            m = random_matrix(rng, rng.randrange(1, 10), rng.randrange(1, 14))
            assert gf2.rank(m) + len(gf2.nullspace(m)) == m.cols

    def test_rank_independent_of_column_order(self):
        rng = random.Random(2)
        for trial in range(20):
            cols = rng.randrange(1, 14)
            m = random_matrix(rng, rng.randrange(1, 10), cols)
            order = list(range(cols))
            rng.shuffle(order)
            assert gf2.rank(m) == gf2.rank(m, col_order=order)
            assert gf2.rank(m) == gf2.rank(m, col_order=reversed(range(cols)))

    def test_kernel_vectors_annihilate(self):
        rng = random.Random(3)
        m = random_matrix(rng, 12, 20)
        zero = gf2.BitVector(m.rows, 0)
        for v in gf2.nullspace(m):
            assert mul_vec(m, v) == zero


class TestSpanIter:
    def test_empty_basis(self):
        assert [v.bits for v in gf2.span_iter([])] == [0]

    def test_gray_code_order(self):
        basis = [gf2.BitVector(3, 0b001), gf2.BitVector(3, 0b010),
                 gf2.BitVector(3, 0b100)]
        seen = [v.bits for v in gf2.span_iter(basis)]
        assert len(seen) == 8
        assert len(set(seen)) == 8
        assert seen[0] == 0
        # consecutive outputs differ by exactly one basis vector
        for a, b in zip(seen, seen[1:]):
            assert (a ^ b) in {v.bits for v in basis}

    def test_rejects_dependent_basis(self):
        basis = [gf2.BitVector(3, 0b011), gf2.BitVector(3, 0b101),
                 gf2.BitVector(3, 0b110)]
        with pytest.raises(ValueError):
            list(gf2.span_iter(basis))

    def test_deterministic(self):
        rng = random.Random(4)
        m = random_matrix(rng, 6, 10)
        basis = gf2.nullspace(m)
        first = [v.bits for v in gf2.span_iter(basis)]
        second = [v.bits for v in gf2.span_iter(basis)]
        assert first == second
