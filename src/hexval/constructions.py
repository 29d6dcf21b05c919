"""Concrete models of the order-2 generalized hexagons.

H(2) is built on the 63 singular points of the parabolic quadric
x3^2 + x0*x4 + x1*x5 + x2*x6 = 0 in 7-dimensional GF(2)-space; its 63
lines are the singular lines whose Grassmann coordinates satisfy the six
classical identities. The identity set is treated as untrusted input: the
construction is only accepted after the full axiom suite passes.
"""
from __future__ import annotations

from itertools import combinations
from typing import List, Tuple

from . import reference
from .geometry import Geometry, check_generalized_hexagon, dual, order_of


class ConstructionError(RuntimeError):
    """A built model failed its validation suite."""


def _bit(v: int, i: int) -> int:
    return (v >> i) & 1


def quadric_form(v: int) -> int:
    """x3^2 + x0*x4 + x1*x5 + x2*x6 over GF(2), coordinates as int bits."""
    return (_bit(v, 3)
            ^ (_bit(v, 0) & _bit(v, 4))
            ^ (_bit(v, 1) & _bit(v, 5))
            ^ (_bit(v, 2) & _bit(v, 6)))


def _bilinear(u: int, v: int) -> int:
    """The polar form sum x_i*y_(i+4) + x_(i+4)*y_i (i < 3) of the quadric:
    the parity of u & v with v's bits i, i + 4 swapped and bit 3 dropped."""
    return (u & ((v & 7) << 4 | v >> 4 & 7)).bit_count() & 1


def singular_points() -> List[int]:
    """The 63 nonzero vectors on the quadric, ascending."""
    return [v for v in range(1, 128) if quadric_form(v) == 0]


def singular_lines(points: List[int]) -> List[Tuple[int, int, int]]:
    """All 315 totally singular lines {u, v, u+v} of the quadric."""
    pset = set(points)
    lines = set()
    for u, v in combinations(points, 2):
        if _bilinear(u, v) == 0:
            w = u ^ v
            if w not in pset:
                raise RuntimeError(f"singular line {{{u}, {v}, {w}}}: {w} "
                                   f"is not a point of the quadric")
            lines.add(tuple(sorted((u, v, w))))
    return sorted(lines)


# Line-coordinate identities selecting the hexagon lines among the
# singular lines: p12=p34, p54=p32, p20=p35, p65=p30, p01=p36, p46=p13.
_HEXAGON_IDENTITIES = (
    ((1, 2), (3, 4)),
    ((5, 4), (3, 2)),
    ((2, 0), (3, 5)),
    ((6, 5), (3, 0)),
    ((0, 1), (3, 6)),
    ((4, 6), (1, 3)),
)


def _hexagon_line_filter(lines: List[Tuple[int, int, int]]
                         ) -> List[Tuple[int, int, int]]:
    """The lines {u, v, u + v} whose Grassmann coordinates satisfy every
    identity of _HEXAGON_IDENTITIES.

    Bit 8i + j of the outer product mask of u and v is u_i*v_j, so the
    coordinate p_ij = u_i*v_j + u_j*v_i is the parity of its bits 8i + j
    and 8j + i, and an identity holds when the parity of the mask under
    its four bits is even.
    """
    masks = [sum(1 << 8 * i + j | 1 << 8 * j + i for i, j in identity)
             for identity in _HEXAGON_IDENTITIES]
    chosen = []
    for line in lines:
        # u's 7 bits spread to bits 0, 8, .., 48 (seven copies of u that
        # do not overlap, masked), times v: seven copies of v, a byte each
        outer = (line[0] * 0x40810204081 & 0x1010101010101) * line[1]
        if not any((outer & mask).bit_count() & 1 for mask in masks):
            chosen.append(line)
    return chosen


def _validate_hexagon(g: Geometry, label: str) -> Geometry:
    report = check_generalized_hexagon(g)
    if not report.is_generalized_hexagon:
        raise ConstructionError(
            f"{label} failed the hexagon axioms: {report.reason} "
            f"(witness {report.witness})")
    spec = order_of(g)
    if (spec.s, spec.t) != reference.HEXAGON_ORDER:
        raise ConstructionError(f"{label} has order {spec}, expected (2,2)")
    for p in range(g.num_points):
        if g.distance_distribution(p) != reference.DISTANCE_DISTRIBUTION:
            raise ConstructionError(
                f"{label}: point {p} has distance distribution "
                f"{g.distance_distribution(p)}")
    return g


def _h2_geometry() -> Geometry:
    """H(2) from the quadric, not yet validated."""
    points = singular_points()
    index = {p: i for i, p in enumerate(points)}
    lines = [[index[p] for p in line]
             for line in _hexagon_line_filter(singular_lines(points))]
    return Geometry(len(points), lines, name="h2")


def build_h2() -> Geometry:
    """The split Cayley hexagon H(2): 63 points, 63 lines, order (2, 2)."""
    return _validate_hexagon(_h2_geometry(), "H(2)")


def build_h2_dual() -> Geometry:
    """The point-line dual H^D(2) of the split Cayley hexagon. The
    hexagon axioms are self-dual, so validating the dual also validates
    the H(2) it comes from."""
    g = dual(_h2_geometry())
    g.name = "h2dual"
    return _validate_hexagon(g, "H^D(2)")


def build_fano() -> Geometry:
    """The Fano plane: 7 points, 7 lines, nonzero 3-bit vectors with
    XOR-zero triples as lines."""
    lines = [triple for triple in combinations(range(1, 8), 3)
             if triple[0] ^ triple[1] ^ triple[2] == 0]
    return Geometry(7, [[a - 1, b - 1, c - 1] for a, b, c in lines],
                    name="fano")


def build_hexagon_2_1() -> Geometry:
    """The generalized hexagon of order (2, 1): the point-line dual of the
    double of the Fano plane (21 points, 14 lines)."""
    fano = build_fano()
    # double: points = 7 points + 7 lines, lines = the 21 flags
    flags = []
    for li, line in enumerate(fano.lines):
        for p in line:
            flags.append((p, 7 + li))
    double = Geometry(14, flags, name="fano-double")
    g = dual(double)
    g.name = "h21"
    spec = order_of(g)
    if (spec.s, spec.t) != (2, 1):
        raise ConstructionError(f"(2,1)-hexagon has order {spec}")
    return g


def grid_3x3() -> Geometry:
    """The (3x3)-grid: points i*3+j, rows and columns as lines."""
    rows = [[3 * i + j for j in range(3)] for i in range(3)]
    cols = [[3 * i + j for i in range(3)] for j in range(3)]
    return Geometry(9, rows + cols, name="grid3")
