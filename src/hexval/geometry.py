"""Finite point-line incidence geometries.

A Geometry is a partial linear space with points 0..n-1 and lines given as
sorted point tuples. Construction canonicalizes the line order; one pass
then checks each line against the neighbour masks of the lines before it
and adds it to the collinearity graph of int bitmasks: point p's
neighbours are ``neighbor_masks[p]``. The distance rows (one frontier BFS
over those masks per point), the near-polygon report and the hexagon
report built on them, and the GF(2) nullspace of the incidence matrix are
computed on first read and kept. The rows are the only distance store; a
reader that needs p's distance masks builds them from row p. Distances are
ints; disconnected pairs get the sentinel -1. ``is_connected`` needs no
distances, and ``diameter`` reports ``INF`` for a disconnected geometry.
The grid search, ``grid_rows``, runs on a sorted int array of 3-point
lines with their packed neighbour rows (``line_incidence``);
``enumerate_grids`` wraps it for a geometry.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import gf2

INF = math.inf
#: most points of a geometry that from_text reads; T(2, 8) has 819
MAX_POINTS = 1024


class GeometryError(ValueError):
    """Raised when input violates a geometry axiom."""


@dataclass(frozen=True)
class OrderSpec:
    """Order (s, t): s+1 points per line, t+1 lines per point.

    A component is None when the geometry is not uniform in it (or the
    uniform value would be degenerate, e.g. a single line per point count
    of 1).
    """

    s: Optional[int]
    t: Optional[int]


def _bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def _distance_layers(row: Sequence[int]) -> List[int]:
    """The masks of the points at each distance of a distance row,
    indexed by distance; the last entry holds the unreachable points (0
    when there are none), so that a row entry of -1 indexes it."""
    layers = [0] * (max(row) + 2)
    for y, d in enumerate(row):
        layers[d] |= 1 << y
    return layers


class Geometry:
    """Immutable partial linear space; distance data on first read."""

    def __init__(self, num_points: int, lines: Iterable[Sequence[int]],
                 name: str = ""):
        if num_points < 0:
            raise GeometryError(f"negative point count {num_points}")
        canon = sorted({tuple(sorted(line)) for line in lines})
        self.num_points = num_points
        self.lines: Tuple[Tuple[int, ...], ...] = tuple(canon)
        self.name = name
        self._build_graph()

    def _build_graph(self):
        """Check each line, then add its mask, its lines_through entries and
        its points' neighbour bits. nbrs[p] holds only earlier lines when p
        is checked: a bit of it above p in the line's mask is a shared pair."""
        lines_through: List[List[int]] = [[] for _ in range(self.num_points)]
        nbrs = [0] * self.num_points
        masks: List[int] = []
        for li, line in enumerate(self.lines):
            if len(line) < 2:
                raise GeometryError(f"line {line} has fewer than 2 points")
            if len(set(line)) != len(line):
                raise GeometryError(f"duplicate point in line {line}")
            for p in line:
                if not 0 <= p < self.num_points:
                    raise GeometryError(f"point {p} out of range")
            mask = sum(1 << p for p in line)
            for p in line:
                shared = nbrs[p] & mask & -(2 << p)
                if shared:
                    q = (shared & -shared).bit_length() - 1
                    earlier = next(self.lines[lj] for lj in lines_through[p]
                                   if masks[lj] >> q & 1)
                    raise GeometryError(f"points {p},{q} lie on two lines: "
                                        f"{earlier} and {line}")
                lines_through[p].append(li)
                nbrs[p] |= mask ^ (1 << p)
            masks.append(mask)
        self.line_masks: Tuple[int, ...] = tuple(masks)
        self.lines_through: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(v) for v in lines_through)
        self.neighbor_masks: Tuple[int, ...] = tuple(nbrs)

    @cached_property
    def nullspace_basis(self) -> Tuple[int, ...]:
        """Basis of the GF(2) nullspace of the line-point incidence matrix,
        whose rows are the line masks, as point masks in the reduced form
        of gf2.nullspace; computed on first read."""
        return tuple(gf2.nullspace(self.line_masks, self.num_points))

    @cached_property
    def dist(self) -> List[List[int]]:
        """Point distances (-1: unreachable), one BFS per point, computed
        on first read."""
        return [self._bfs(p) for p in range(self.num_points)]

    @cached_property
    def near_polygon_report(self) -> NearPolygonReport:
        """(NP1) and (NP2), checked on first read and kept."""
        return check_near_polygon(self)

    @cached_property
    def hexagon_report(self) -> HexagonReport:
        """Near hexagon + (GH1) >= 2 lines per point + (GH2) unique common
        neighbor at distance 2, checked on first read and kept."""
        near = self.near_polygon_report
        if not near.is_near_polygon:
            return HexagonReport(False, "not a near polygon", near.witness)
        if near.diameter != 3:
            return HexagonReport(False, f"diameter {near.diameter} != 3")
        for p in range(self.num_points):
            if len(self.lines_through[p]) < 2:
                return HexagonReport(False, "point on fewer than 2 lines",
                                     (p,))
        nm = self.neighbor_masks
        for x, row in enumerate(self.dist):
            for y in range(x + 1, self.num_points):
                if row[y] == 2 and (nm[x] & nm[y]).bit_count() != 1:
                    return HexagonReport(
                        False, "distance-2 pair without unique common "
                        "neighbor", (x, y, list(_bits(nm[x] & nm[y]))))
        return HexagonReport(True)

    @cached_property
    def _connected(self) -> bool:
        return not self.num_points or -1 not in self._bfs(0)

    @cached_property
    def _diameter(self):
        if not self.is_connected():
            return INF
        return max((max(row) for row in self.dist), default=0)

    def _bfs(self, start: int) -> List[int]:
        """Distances from start (-1 when unreachable), the frontiers of a
        BFS over the neighbour masks."""
        row = [-1] * self.num_points
        reached = frontier = 1 << start
        d = 0
        while frontier:
            step = 0
            # the set bits read inline: a _bits generator per frontier
            # costs a quarter of the walk
            rest = frontier
            while rest:
                low = rest & -rest
                q = low.bit_length() - 1
                row[q] = d
                step |= self.neighbor_masks[q]
                rest ^= low
            frontier = step & ~reached
            reached |= frontier
            d += 1
        return row

    # -- basic queries ---------------------------------------------------

    def is_connected(self) -> bool:
        return self._connected

    def diameter(self):
        """Largest point distance: 0 when empty, INF when disconnected."""
        return self._diameter

    def distance_distribution(self, p: int) -> List[int]:
        """Count of points at each distance 0..diameter from p."""
        counts = Counter(self.dist[p])
        return [counts.get(i, 0) for i in range(max(counts) + 1)]

    def __repr__(self):
        label = self.name or "geometry"
        return f"<{label}: {self.num_points} points, {len(self.lines)} lines>"


# -- axiom checkers ------------------------------------------------------


@dataclass(frozen=True)
class NearPolygonReport:
    is_near_polygon: bool
    diameter: object
    witness: Optional[Tuple[int, int]] = None  # (point, line index)


def check_near_polygon(g: Geometry) -> NearPolygonReport:
    """(NP1) connected; (NP2) unique nearest point to x on every line.
    A line's points are pairwise collinear, so with a its first point the
    nearest lie in layer d(x, a) - 1 of x, else in layer d(x, a); x's
    layers come from its row and are dropped after its lines. The
    witness (x, line index) is the first failure."""
    if not g.is_connected():
        return NearPolygonReport(False, INF)
    diam = g.diameter()
    for x, row in enumerate(g.dist):
        # connected: layer -1, read on the lines through x, is empty
        layers = _distance_layers(row)
        for li, (line, mask) in enumerate(zip(g.lines, g.line_masks)):
            d = row[line[0]]
            nearest = layers[d - 1] & mask or layers[d] & mask
            if nearest & (nearest - 1):
                return NearPolygonReport(False, diam, witness=(x, li))
    return NearPolygonReport(True, diam)


@dataclass(frozen=True)
class HexagonReport:
    is_generalized_hexagon: bool
    reason: str = ""
    witness: Optional[tuple] = None


def check_generalized_hexagon(g: Geometry) -> HexagonReport:
    """The hexagon report of g (see Geometry.hexagon_report), computed
    once per geometry."""
    return g.hexagon_report


def order_of(g: Geometry) -> OrderSpec:
    line_sizes = {len(line) for line in g.lines}
    point_degrees = {len(g.lines_through[p]) for p in range(g.num_points)}
    s = line_sizes.pop() - 1 if len(line_sizes) == 1 else 0
    t = point_degrees.pop() - 1 if len(point_degrees) == 1 else 0
    return OrderSpec(s if s >= 1 else None, t if t >= 1 else None)


def dual(g: Geometry) -> Geometry:
    """Interchange points and lines: new point i = old line i, new lines =
    pencils of old lines through each old point."""
    name = f"dual({g.name})" if g.name else ""
    return Geometry(len(g.lines), g.lines_through, name)


# -- grids ---------------------------------------------------------------


#: the 36 position pairs i < j of a grid's 9 ascending points, in order
GRID_PAIRS = np.array(list(combinations(range(9), 2)))

#: the other two positions of each position of a 3-point line
_OTHER_POSITIONS = [[1, 2], [0, 2], [0, 1]]

#: candidate cells one block of the grid search may hold
_GRID_BLOCK = 1 << 13


def line_incidence(num_points: int, lines: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """The packed neighbour rows and the lines through each point of the
    sorted 3-point lines, an int [lines, 3] array of ascending rows on
    points 0..num_points - 1 no two of which share a pair.

    Row p of the [num_points, ceil(num_points / 64)] uint64 neighbour
    array holds p's neighbours in the gf2.to_words layout. Row p of the
    [num_points, most lines through a point, 2] int array holds the
    other two points, ascending, of each line through p in line order;
    a point on fewer lines has its row padded with -1."""
    flat = lines.ravel()
    # the other two points of the point at each flat position
    pair = lines[:, _OTHER_POSITIONS].reshape(-1, 2)
    cols = pair.ravel()
    adj = np.zeros((num_points, -(-num_points // 64)), dtype=np.uint64)
    np.bitwise_or.at(adj, (np.repeat(flat, 2), cols >> 6),
                     np.uint64(1) << (cols & 63).astype(np.uint64))
    order = np.argsort(flat, kind="stable")
    counts = np.bincount(flat, minlength=num_points)
    slot = np.arange(len(flat)) - np.repeat(np.cumsum(counts) - counts,
                                            counts)
    others = np.full((num_points, counts.max(initial=0), 2), -1,
                     dtype=lines.dtype)
    others[flat[order], slot] = pair[order]
    return adj, others


def _third_points(others: np.ndarray, a: np.ndarray,
                  b: np.ndarray) -> np.ndarray:
    """The third point of the line through each collinear pair a, b."""
    rows = others[a]
    return rows[:, :, ::-1][rows == b[:, None, None]]


def grid_rows(lines: np.ndarray, adj: np.ndarray,
              others: np.ndarray) -> np.ndarray:
    """The (3x3)-subgrids of the sorted 3-point lines, with their packed
    neighbour rows and lines through each point (line_incidence), as the
    rows of an int [grids, 9] array of ascending points, in ascending
    order.

    A grid is found from its least point p, with its row {p, x1, x2} and
    column {p, y1, y2} a pair of lines whose least point is p; sorted
    lines put those of one least point next to each other. Its row
    {x1, z11, z12} is one of the lines through x1, read in both orders,
    with z11 a neighbour of y1 and z12 one of y2, both tested on the
    packed rows: then z21 is the third point of the line through y1 and
    z11, z22 that of the line through y2 and z12, and {x2, z21, z22}
    must be a line among those through x2. Every cell lies after p. The
    lines make the 9 points distinct: otherwise two points would lie on
    two lines, or a cell would be p. Nine pairwise collinear points, as
    in AG(2, 3), are no subgrid. Points collinear off the grid's rows
    and columns must lie on no line inside it: a grid whose points hold
    other than its 6 lines raises RuntimeError. Its lines are counted
    only when it has other than the 18 collinear pairs of a grid.
    Candidates are taken in blocks of pairs of lines sized from a fixed
    budget.
    """
    first = lines[:, 0]
    # each line i and the later lines j with the same least point
    later = np.searchsorted(first, first, side="right") - np.arange(
        len(lines)) - 1
    i = np.repeat(np.arange(len(lines)), later)
    j = i + 1 + np.arange(len(i)) - np.repeat(np.cumsum(later) - later,
                                              later)
    found = [np.zeros((0, 9), dtype=lines.dtype)]
    if not len(i):
        return found[0]
    block = max(1, _GRID_BLOCK // (2 * others.shape[1]))
    for start in range(0, len(i), block):
        p, x1, x2 = lines[i[start:start + block]].T
        _, y1, y2 = lines[j[start:start + block]].T
        # the row {x1, z11, z12} is a line through x1 after p, its other
        # points in either order: candidate cell z11 at flat index k of
        # rows, z12 at k ^ 1, with z11 collinear with y1 and z12 with y2
        rows = others[x1]
        to_y1 = gf2.bits_at(adj, y1[:, None, None], rows)
        to_y2 = gf2.bits_at(adj, y2[:, None, None], rows)
        k = np.flatnonzero(to_y1 & to_y2[:, :, ::-1]
                           & (rows[:, :, :1] > p[:, None, None]))
        pair = k // rows[0].size
        p, x1, x2, y1, y2 = (a[pair] for a in (p, x1, x2, y1, y2))
        z11, z12 = rows.reshape(-1)[k], rows.reshape(-1)[k ^ 1]
        z21 = _third_points(others, y1, z11)
        z22 = _third_points(others, y2, z12)
        low, high = np.minimum(z21, z22), np.maximum(z21, z22)
        rows = others[x2]
        keep = (low > p) & ((rows[:, :, 0] == low[:, None])
                            & (rows[:, :, 1] == high[:, None])).any(axis=1)
        found.append(np.sort(np.stack(
            [p, x1, x2, y1, y2, z11, z12, z21, z22], axis=1)[keep], axis=1))
    grids = np.concatenate(found)
    grids = grids[np.lexsort(grids.T[::-1])]
    fresh = np.ones(len(grids), dtype=bool)
    fresh[1:] = (grids[1:] != grids[:-1]).any(axis=1)
    grids = grids[fresh]
    collinear = gf2.bits_at(adj, grids[:, GRID_PAIRS[:, 0]],
                            grids[:, GRID_PAIRS[:, 1]]).sum(axis=1)
    for t in np.flatnonzero((collinear != 18) & (collinear != 36)).tolist():
        points = set(grids[t].tolist())
        inside = {tuple(sorted((a, *other))) for a in points
                  for other in others[a].tolist()
                  if points.issuperset(other)}
        if len(inside) != 6:
            raise RuntimeError(f"points {grids[t].tolist()} contain "
                               f"{len(inside)} lines, not the 6 of a 3x3 "
                               f"grid")
    return grids[collinear != 36]


def enumerate_grids(g: Geometry) -> List[int]:
    """The point masks of all (3x3)-subgrids, ordered as their ascending
    point lists: grid_rows on the geometry's lines, which must have 3
    points each (GeometryError otherwise)."""
    for line in g.lines:
        if len(line) != 3:
            raise GeometryError("grid enumeration requires 3-point lines")
    lines = np.array(g.lines, dtype=np.intp).reshape(-1, 3)
    grids = grid_rows(lines, *line_incidence(g.num_points, lines))
    return [sum(1 << p for p in row) for row in grids.tolist()]


# -- ovoids --------------------------------------------------------------


def find_ovoids(g: Geometry) -> List[Tuple[int, ...]]:
    """All point sets meeting every line exactly once.

    Exact-cover backtracking over lines, branching on the uncovered line
    with the fewest available points.
    """
    n_lines = len(g.lines)
    results: List[Tuple[int, ...]] = []
    chosen: List[int] = []

    def search(covered_lines: int, forbidden: int):
        if covered_lines == (1 << n_lines) - 1:
            results.append(tuple(sorted(chosen)))
            return
        best_li, best_cands = None, None
        for li in range(n_lines):
            if covered_lines >> li & 1:
                continue
            cands = [p for p in g.lines[li] if not forbidden >> p & 1]
            if best_cands is None or len(cands) < len(best_cands):
                best_li, best_cands = li, cands
                if not cands:
                    return
        for p in best_cands:
            new_cov = covered_lines
            ok = True
            for li in g.lines_through[p]:
                if new_cov >> li & 1:
                    ok = False
                    break
                new_cov |= 1 << li
            if not ok:
                continue
            chosen.append(p)
            search(new_cov, forbidden | (1 << p) | g.neighbor_masks[p])
            chosen.pop()

    if n_lines:
        search(0, 0)
    return sorted(results)


# -- point bound ---------------------------------------------------------


def near_hexagon_point_bound(s: int, t: int) -> int:
    """Upper bound on the point count of a near hexagon of order (s, t);
    equality characterizes generalized hexagons."""
    if s < 1 or t < 1:
        raise ValueError("order parameters must be >= 1")
    return (s + 1) * (s * s * t * t + s * t + 1)


# -- text format ---------------------------------------------------------


def to_text(g: Geometry) -> str:
    """Geometry text format: `points N` then one sorted line per row."""
    rows = [f"points {g.num_points}"]
    rows.extend(" ".join(str(p) for p in line) for line in g.lines)
    return "\n".join(rows) + "\n"


def from_text(text: str, name: str = "") -> Geometry:
    rows = [r.strip() for r in text.splitlines() if r.strip()]
    if not rows or not rows[0].startswith("points "):
        raise GeometryError("missing 'points N' header")
    try:
        _, count = rows[0].split()
        n = int(count)
    except ValueError as exc:
        raise GeometryError("malformed 'points N' header") from exc
    if n > MAX_POINTS:
        raise GeometryError(f"{n} points exceed the limit of {MAX_POINTS}")
    lines = []
    for row in rows[1:]:
        try:
            lines.append([int(tok) for tok in row.split()])
        except ValueError as exc:
            raise GeometryError(f"malformed line row {row!r}") from exc
    return Geometry(n, lines, name)
