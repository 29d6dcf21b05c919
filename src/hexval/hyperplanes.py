"""Hyperplane enumeration and classification for 3-points-per-line
geometries.

A proper point set is a hyperplane iff every line meets it in 1 or 3
points, which happens exactly when the characteristic vector of its
complement lies in the GF(2) nullspace of the line-point incidence
matrix, the universal embedding space (Ronan, Embeddings and hyperplanes
of discrete geometries, Europ. J. Combin. 8 (1987)). So the hyperplanes
are the 2^dim - 1 nonzero vectors of that space, and their number needs
only its dimension.

Point sets and nullspace vectors are int bitmasks throughout: the
incidence matrix is the tuple of line masks, and ``gf2.nullspace`` of it,
kept once per geometry as ``Geometry.nullspace_basis``, is a basis in
which vector i alone has its free column f_i, its highest bit. So a
vector's coordinates are its bits at the free columns, and in
free-column order (``enumerable_basis``) the vector with coordinates x
ascends with x and its hyperplane descends: no mask is sorted.

All 2^dim vectors are one numpy array of words built by doubling, and
none is scanned against the lines: the 1-or-3 line rule is checked on
the basis (``_check_line_rule``), and full lines are counted from the
point degrees. ``enumerate_hyperplanes`` lists the hyperplanes as
``Hyperplane`` objects. Neither ``classify_hyperplanes`` nor the full
valuation sweep builds that list; the classification works on
coordinate vectors. An automorphism acts linearly on the coordinates,
the images of all vectors are built by the same doubling, orbits come
from min-label propagation, and an orbit's representative is its
largest vector. Spaces above ``MAX_DIMENSION`` are refused first.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Sequence, Tuple

import numpy as np

from . import gf2
from .geometry import Geometry, GeometryError, _bits

if TYPE_CHECKING:
    from .perm import AutGroup

#: largest nullspace dimension whose 2^dim vectors are enumerated
MAX_DIMENSION = 24


@dataclass(frozen=True)
class Hyperplane:
    """A hyperplane as a bitmask of member points."""

    num_points: int
    member_bits: int

    def size(self) -> int:
        return self.member_bits.bit_count()

    def complement_bits(self) -> int:
        return ((1 << self.num_points) - 1) ^ self.member_bits


@dataclass(frozen=True)
class HyperplaneClass:
    representative: Hyperplane
    orbit_size: int
    stabilizer_order: int
    invariant_key: Tuple[int, int]  # (size, number of full lines)


def _hyperplane_basis(g: Geometry) -> Tuple[int, ...]:
    """The nullspace basis ``g.nullspace_basis``, which spans the
    hyperplane complements when every line has 3 points (GeometryError
    otherwise)."""
    for line in g.lines:
        if len(line) != 3:
            raise GeometryError("hyperplane enumeration requires 3-point lines")
    return g.nullspace_basis


def hyperplane_count(g: Geometry) -> int:
    """The number of hyperplanes, 2^dim - 1; nothing is enumerated."""
    return (1 << len(_hyperplane_basis(g))) - 1


def enumerable_basis(g: Geometry) -> Tuple[int, ...]:
    """_hyperplane_basis(g) sorted by free column, each vector's highest
    bit, which no other vector may hold (RuntimeError): then row i of
    ``gf2.span_words(basis, n)`` ascends with i. Refused above
    MAX_DIMENSION (GeometryError)."""
    basis = _hyperplane_basis(g)
    if len(basis) > MAX_DIMENSION:
        raise GeometryError(
            f"the hyperplane space has dimension {len(basis)}; its "
            f"2^{len(basis)} - 1 hyperplanes are not enumerated above "
            f"dimension {MAX_DIMENSION}")
    basis = tuple(sorted(basis, key=int.bit_length))
    for b in basis:
        top = 1 << b.bit_length() >> 1
        if sum(v & top != 0 for v in basis) != 1:
            raise RuntimeError(f"nullspace basis vector {b:b} is not the "
                               f"only one with its free column")
    return basis


def _check_line_rule(g: Geometry, basis: Sequence[int]) -> None:
    """RuntimeError unless each basis vector meets each line in 0 or 2
    points. |v & line| mod 2 is linear in v, so then every span vector
    does, and else the first span vector to fail is 2^j for the first
    basis vector j that fails: its hyperplane is the one named."""
    for b in basis:
        if any((b & mask).bit_count() & 1 for mask in g.line_masks):
            member = ((1 << g.num_points) - 1) ^ b
            raise RuntimeError(f"hyperplane {member:b} fails the 1-or-3 "
                               f"line rule")


def enumerate_hyperplanes(g: Geometry) -> List[Hyperplane]:
    """All hyperplanes, sorted by member bitmask; count is 2^dim - 1:
    the complements of span rows 2^dim - 1 down to 1 (enumerable_basis).
    A basis vector that fails the 1-or-3 line rule raises RuntimeError."""
    basis = enumerable_basis(g)
    _check_line_rule(g, basis)
    full = (1 << g.num_points) - 1
    return [Hyperplane(g.num_points, full ^ gf2.from_words(row))
            for row in gf2.span_words(basis, g.num_points)[:0:-1]]


def _image_coordinates(basis: Sequence[int], free: List[int], p) -> List[int]:
    """The coordinates of the image of each basis vector under the point
    permutation p: its bits at the free columns, the columns of p's
    matrix on the nullspace. An image that is not the vector with those
    coordinates lies outside the nullspace (RuntimeError)."""
    cols = []
    for b in basis:
        img = sum(1 << p[q] for q in _bits(b))
        coords = span = 0
        for j, f in enumerate(free):
            if img >> f & 1:
                coords |= 1 << j
                span ^= basis[j]
        if span != img:
            raise RuntimeError(f"a generator maps nullspace vector {b:b} to "
                               f"{img:b}, which is not in the nullspace")
        cols.append(coords)
    return cols


def _orbit_labels(actions: np.ndarray, size: int) -> np.ndarray:
    """The least index in the orbit of each index, by min-label
    propagation: a label only decreases to the label of an image, or of
    the index it already names, so it stays in the orbit; at the fixpoint
    label[x] <= label[g x] for every generator g, which makes the labels
    constant along each cycle of g and so on each orbit."""
    labels = np.arange(size, dtype=np.intp)
    while True:
        prev = labels
        for act in actions:
            labels = np.minimum(labels, labels[act])
        labels = labels[labels]
        if np.array_equal(labels, prev):
            return labels


def classify_hyperplanes(g: Geometry, group: AutGroup
                         ) -> List[HyperplaneClass]:
    """Partition all hyperplanes into automorphism orbits.

    Works on the 2^dim coordinate vectors of the nullspace (index 0 is
    the zero vector, the full point set, which is not a hyperplane), as
    [2^dim, ceil(n / 64)] uint64 words of complements. Member masks
    descend with the index, so the representative of a class, its least
    member mask, is its largest index. Classes are sorted by
    (invariant_key, representative). The 1-or-3 line rule, on the basis,
    and over all 2^dim vectors the class equation (orbit sizes sum to
    2^dim - 1), orbit sizes dividing the group order and the constancy
    of the invariant on each orbit are checked (RuntimeError otherwise).
    """
    basis = enumerable_basis(g)
    n = g.num_points
    full = (1 << n) - 1
    free = [b.bit_length() - 1 for b in basis]
    size = 1 << len(basis)
    vectors = gf2.span_words(basis, n)
    words = vectors.shape[1]
    # action row g: the index of the image of each coordinate vector
    # under generator g, by the same doubling from the images of the
    # basis; the [G, 2^dim] table is freed once the labels are found
    images = np.array([_image_coordinates(basis, free, p)
                       for p in group.generators], dtype=np.intp)
    labels = _orbit_labels(gf2.span_rows(
        images.reshape(len(group.generators), len(basis)).T).T, size)

    weight = np.bitwise_count(vectors).sum(axis=1, dtype=np.int64)
    _check_line_rule(g, basis)
    # a complement meets each line in 0 or 2 points, so the degrees of
    # its points sum to twice the number of lines it meets: one popcount
    # per nonzero degree, or the weight when all points share one
    masks = {}
    for p, through in enumerate(g.lines_through):
        if through:
            masks[len(through)] = masks.get(len(through), 0) | 1 << p
    full_lines = np.full(size, 2 * len(g.lines), dtype=np.int64)
    for d, row in zip(masks, gf2.to_words(list(masks.values()), words)):
        full_lines -= d * (weight if masks[d] == full else
                           np.bitwise_count(vectors & row).sum(
                               axis=1, dtype=np.int64))
    full_lines //= 2
    key = (n - weight) * (len(g.lines) + 1) + full_lines
    bad = np.flatnonzero(key != key[labels])
    if bad.size:
        x, y = bad[0], labels[bad[0]]
        raise RuntimeError(
            f"hyperplanes {full ^ gf2.from_words(vectors[y]):b} and "
            f"{full ^ gf2.from_words(vectors[x]):b} lie in one orbit but "
            f"have different (size, full lines) invariants")

    index = np.arange(size)
    reps = np.zeros(size, dtype=np.intp)
    np.maximum.at(reps, labels, index)
    roots = np.flatnonzero(labels == index)[1:]
    roots = roots[np.lexsort((-reps[roots], key[reps[roots]]))]
    orbit_sizes = np.bincount(labels, minlength=size)

    order = group.order()
    classes = []
    for root in roots.tolist():
        rep, orbit_size = int(reps[root]), int(orbit_sizes[root])
        if order % orbit_size:
            raise RuntimeError(f"orbit size {orbit_size} does not divide "
                               f"the group order {order}")
        classes.append(HyperplaneClass(
            representative=Hyperplane(n, full ^ gf2.from_words(vectors[rep])),
            orbit_size=orbit_size,
            stabilizer_order=order // orbit_size,
            invariant_key=(n - int(weight[rep]), int(full_lines[rep]))))
    total = sum(c.orbit_size for c in classes)
    if total != size - 1:
        raise RuntimeError(f"orbit sizes sum to {total}, not to the "
                           f"{size - 1} hyperplanes")
    return classes
