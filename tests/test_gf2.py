"""GF(2) linear algebra on int vectors: nullspace against brute force,
rank invariance under column reordering, span enumeration."""
import random

from hypothesis import given, strategies as st

from hexval import gf2
from hexval.geometry import _bits
from oracles import rank


def from_support(support):
    """The vector with ones exactly on support."""
    return sum(1 << i for i in set(support))


def random_rows(rng, rows, cols):
    return [rng.getrandbits(cols) for _ in range(rows)]


def mul_vec(rows, v):
    """Matrix-vector product over GF(2): bit i is the parity of row i & v."""
    return sum(((row & v).bit_count() & 1) << i for i, row in enumerate(rows))


def brute_force_kernel(rows, cols):
    """All vectors v with Mv = 0, by checking every vector."""
    return [v for v in range(1 << cols) if mul_vec(rows, v) == 0]


def spanned(basis, length):
    """The span of basis as sorted ints, through span_words."""
    return sorted(gf2.from_words(row)
                  for row in gf2.span_words(basis, length))


class TestBitVector:
    def test_basic(self):
        v = from_support([0, 3, 7])
        assert v == 0b10001001
        assert v.bit_count() == 3
        assert list(_bits(v)) == [0, 3, 7]

    @given(st.integers(1, 60), st.data())
    def test_support_roundtrip(self, length, data):
        v = data.draw(st.integers(0, (1 << length) - 1))
        assert from_support(_bits(v)) == v
        assert v.bit_count() == len(list(_bits(v)))


class TestNullspace:
    def test_identity_has_trivial_kernel(self):
        assert gf2.nullspace([1 << i for i in range(4)], 4) == []

    def test_zero_matrix_full_kernel(self):
        basis = gf2.nullspace([0], 3)
        assert basis == [0b001, 0b010, 0b100]

    def test_matches_brute_force_small_random(self):
        rng = random.Random(0)
        for trial in range(40):
            n_rows, cols = rng.randrange(1, 9), rng.randrange(1, 13)
            rows = random_rows(rng, n_rows, cols)
            basis = gf2.nullspace(rows, cols)
            assert spanned(basis, cols) == brute_force_kernel(rows, cols)

    def test_rank_nullity(self):
        rng = random.Random(1)
        for trial in range(40):
            n_rows, cols = rng.randrange(1, 10), rng.randrange(1, 14)
            rows = random_rows(rng, n_rows, cols)
            assert rank(rows, cols) + len(gf2.nullspace(rows, cols)) == cols

    def test_rank_independent_of_column_order(self):
        rng = random.Random(2)
        for trial in range(20):
            cols = rng.randrange(1, 14)
            rows = random_rows(rng, rng.randrange(1, 10), cols)
            order = list(range(cols))
            rng.shuffle(order)
            assert rank(rows, cols) == rank(rows, cols, col_order=order)
            assert rank(rows, cols) == rank(
                rows, cols, col_order=reversed(range(cols)))

    def test_kernel_vectors_annihilate(self):
        rng = random.Random(3)
        rows = random_rows(rng, 12, 20)
        for v in gf2.nullspace(rows, 20):
            assert mul_vec(rows, v) == 0


class TestSpanIter:
    """The span of a basis as enumerated by span_words."""

    def test_empty_basis(self):
        assert spanned([], 3) == [0]

    def test_doubling_order(self):
        basis = [0b011, 0b101, 0b1000]
        seen = [gf2.from_words(row) for row in gf2.span_words(basis, 4)]
        assert len(seen) == 8
        assert len(set(seen)) == 8
        assert seen[0] == 0
        # row i is the XOR of the basis vectors at the bits of i
        for i, v in enumerate(seen):
            want = 0
            for j in _bits(i):
                want ^= basis[j]
            assert v == want

    def test_deterministic(self):
        rng = random.Random(4)
        basis = gf2.nullspace(random_rows(rng, 6, 10), 10)
        first = gf2.span_words(basis, 10)
        second = gf2.span_words(basis, 10)
        assert (first == second).all()
