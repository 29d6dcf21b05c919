"""Hyperplane enumeration and classification for 3-points-per-line
geometries.

A proper point set is a hyperplane iff every line meets it in 1 or 3
points, which happens exactly when the characteristic vector of its
complement lies in the GF(2) nullspace of the line-point incidence
matrix. The full span is enumerated deterministically; every hyperplane
is re-verified against the per-line rule. Classification closes each
hyperplane under the automorphism generators, which act on member masks
through per-generator byte tables.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from . import gf2, perm
from .geometry import Geometry, GeometryError
from .perm import PermGroup


@dataclass(frozen=True)
class Hyperplane:
    """A hyperplane as a bitmask of member points."""

    num_points: int
    member_bits: int

    def size(self) -> int:
        return self.member_bits.bit_count()

    def points(self) -> Tuple[int, ...]:
        return tuple(gf2.BitVector(self.num_points, self.member_bits).support())

    def complement_bits(self) -> int:
        return ((1 << self.num_points) - 1) ^ self.member_bits


@dataclass(frozen=True)
class HyperplaneClass:
    representative: Hyperplane
    orbit_size: int
    stabilizer_order: int
    invariant_key: Tuple[int, int]  # (size, number of full lines)


def incidence_matrix(g: Geometry) -> gf2.BitMatrix:
    """Line-point incidence matrix (rows = lines) over GF(2)."""
    rows = [gf2.BitVector(g.num_points, mask) for mask in g.line_masks]
    return gf2.BitMatrix.from_rows(g.num_points, rows)


def _check_line_rule(g: Geometry, member_bits: int) -> bool:
    for mask in g.line_masks:
        count = (member_bits & mask).bit_count()
        if count != 1 and count != mask.bit_count():
            return False
    return True


def enumerate_hyperplanes(g: Geometry) -> List[Hyperplane]:
    """All hyperplanes, sorted by member bitmask; count is 2^dim - 1."""
    for line in g.lines:
        if len(line) != 3:
            raise GeometryError("hyperplane enumeration requires 3-point lines")
    basis = gf2.nullspace(incidence_matrix(g))
    full = (1 << g.num_points) - 1
    out = []
    for v in gf2.span_iter(basis):
        if v.bits == 0:
            continue
        member = full ^ v.bits
        hp = Hyperplane(g.num_points, member)
        if not _check_line_rule(g, member):
            raise RuntimeError(
                f"nullspace vector {v.bits:b} fails the 1-or-3 line rule")
        out.append(hp)
    out.sort(key=lambda h: h.member_bits)
    if len(out) != (1 << len(basis)) - 1:
        raise RuntimeError(f"span of a {len(basis)}-dimensional nullspace "
                           f"gave {len(out)} hyperplanes")
    return out


def full_line_count(g: Geometry, member_bits: int) -> int:
    return sum(1 for mask in g.line_masks
               if (member_bits & mask) == mask)


def _byte_tables(p: perm.Perm) -> List[List[int]]:
    """The action of p on point masks, one table per 8 points: row k maps
    each value b of mask byte k to the image of those points. Each entry
    adds one point to an entry built before it."""
    tables = []
    for base in range(0, len(p), 8):
        row = [0] * (1 << min(8, len(p) - base))
        for b in range(1, len(row)):
            low = b & -b
            row[b] = row[b ^ low] | 1 << p[base + low.bit_length() - 1]
        tables.append(row)
    return tables


def _permute_mask(tables: List[List[int]], mask: int) -> int:
    img = 0
    for row in tables:
        img |= row[mask & 0xFF]
        mask >>= 8
    return img


def classify_hyperplanes(g: Geometry, group: PermGroup,
                         hyps: Optional[List[Hyperplane]] = None
                         ) -> List[HyperplaneClass]:
    """Partition all hyperplanes into automorphism orbits.

    hyps is the output of enumerate_hyperplanes(g), enumerated here when
    not given. Classes are sorted by (invariant_key, minimal
    representative); the class equation (sum of orbit sizes = 2^dim - 1),
    orbit sizes dividing the group order and the constancy of the
    invariant on each orbit are checked (RuntimeError otherwise).
    """
    if hyps is None:
        hyps = enumerate_hyperplanes(g)
    all_masks = {h.member_bits for h in hyps}
    unseen = set(all_masks)
    order = group.order()
    tables = [_byte_tables(gen) for gen in group.generators]
    classes = []
    for h in hyps:
        if h.member_bits not in unseen:
            continue
        orbit = perm.orbit(tables, h.member_bits, _permute_mask)
        if not orbit <= all_masks:
            raise RuntimeError(
                f"the orbit of hyperplane {h.member_bits:b} leaves the "
                f"hyperplane set")
        unseen -= orbit
        rep_bits = min(orbit)
        key = (rep_bits.bit_count(), full_line_count(g, rep_bits))
        for m in orbit:
            if (m.bit_count(), full_line_count(g, m)) != key:
                raise RuntimeError(
                    f"hyperplanes {rep_bits:b} and {m:b} lie in one orbit "
                    f"but have different (size, full lines) invariants")
        if order % len(orbit):
            raise RuntimeError(f"orbit size {len(orbit)} does not divide "
                               f"the group order {order}")
        classes.append(HyperplaneClass(
            representative=Hyperplane(g.num_points, rep_bits),
            orbit_size=len(orbit),
            stabilizer_order=order // len(orbit),
            invariant_key=key))
    total = sum(c.orbit_size for c in classes)
    if total != len(hyps):
        raise RuntimeError(f"orbit sizes sum to {total}, not to the "
                           f"{len(hyps)} hyperplanes")
    classes.sort(key=lambda c: (c.invariant_key,
                                c.representative.member_bits))
    return classes
