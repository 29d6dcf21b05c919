"""Neighboring valuations, the star composition and valuation geometries.

The valuation geometry of a host has the valuations as points and the
star-closed neighboring triples {f1, f2, f1*f2} as lines. Point types come
from the isomorphism-class labels; a line type is the lexicographically
sorted string of its point types.

`are_neighboring` and `star` are the scalar definitions on one pair of
valuations. `build_valuation_geometry` applies the same definitions to all
pairs as array algebra: the sorted valuations are the rows of one int8
matrix, whether two rows are neighboring follows from the minimum and
maximum of their difference, and star is an elementwise identity on two
rows. Rows are processed in blocks sized from a fixed element budget, so
the memory held stays bounded however many valuations there are.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .geometry import Geometry, enumerate_grids, grids_through_point
from .valuations import Valuation, is_valuation

EQUAL = "equal"


def are_neighboring(f1: Valuation, f2: Valuation):
    """The unique epsilon in {-1, 0, 1} with |f1(x) - f2(x) + eps| <= 1
    for all x; EQUAL when f1 = f2; None when not neighboring."""
    if f1.host is not f2.host and f1.host.lines != f2.host.lines:
        raise ValueError("valuations live on different hosts")
    if f1.values == f2.values:
        return EQUAL
    lo = min(a - b for a, b in zip(f1.values, f2.values))
    hi = max(a - b for a, b in zip(f1.values, f2.values))
    eps_candidates = [e for e in (-1, 0, 1) if -1 - lo <= e <= 1 - hi]
    if not eps_candidates:
        return None
    if len(eps_candidates) > 1:
        raise ValueError(
            f"epsilon not unique for distinct valuations: {eps_candidates}")
    return eps_candidates[0]


def star(f1: Valuation, f2: Valuation) -> Valuation:
    """The third valuation f1 * f2 of a neighboring pair.

    f3'(x) = f1(x) - 1 where f1(x) = f2(x) - eps, else
    max(f1(x), f2(x) - eps); the result is shifted by its minimum.
    Raises ValueError when an argument is not a valuation or the pair is
    not neighboring.
    """
    for which, f in (("first", f1), ("second", f2)):
        if not is_valuation(f.host, f.values):
            raise ValueError(f"{which} argument is not a valuation: "
                             f"{f.values}")
    eps = are_neighboring(f1, f2)
    if eps is None:
        raise ValueError("valuations are not neighboring")
    if eps is EQUAL:
        return f1
    raw = []
    for a, b in zip(f1.values, f2.values):
        b = b - eps
        raw.append(a - 1 if a == b else max(a, b))
    m = min(raw)
    if m not in (-1, 0, 1):
        raise RuntimeError(f"star shifts by {m}, outside -1..1")
    values = tuple(v - m for v in raw)
    if not is_valuation(f1.host, values):
        raise RuntimeError(f"star of neighboring valuations is not a "
                           f"valuation: {values}")
    return Valuation(f1.host, values)


@dataclass
class ValuationGeometry:
    """Partial linear space of valuations with star-closed triple lines."""

    host: Geometry
    vpoints: List[Valuation]
    vlines: List[Tuple[int, int, int]]
    point_types: Optional[List[str]] = None
    line_types: Optional[List[str]] = None
    _geometry: Optional[Geometry] = field(default=None, repr=False)

    def as_geometry(self, name: str = "") -> Geometry:
        if self._geometry is None:
            self._geometry = Geometry(len(self.vpoints), self.vlines,
                                      name=name or "valuation-geometry")
        return self._geometry

    def line_type(self, i: int) -> str:
        return self.line_types[i]


def _line_type_string(labels: Sequence[str]) -> str:
    return "".join(sorted(labels))


#: int16 differences one block of the neighboring scan may hold (512 KiB).
_BLOCK_ELEMENTS = 1 << 18

#: Largest value the int8 matrix takes: star adds at most 2 to a value
#: and the per-line check at most 1 more, which must stay below 128.
_INT8_TOP = 124


def _line_index(g: Geometry) -> List[np.ndarray]:
    """The host's lines as point-index arrays, one [length, lines] array
    per line length."""
    by_length: Dict[int, List[Tuple[int, ...]]] = {}
    for line in g.lines:
        by_length.setdefault(len(line), []).append(line)
    return [np.array(lines, dtype=np.intp).T
            for _, lines in sorted(by_length.items())]


def _non_valuation_rows(mat: np.ndarray,
                        line_index: List[np.ndarray]) -> np.ndarray:
    """Indices of the rows of mat that are not valuations: the row
    minimum is not 0, or some line does not have exactly one point at
    its minimum m and all others at m + 1 (the per-line rule, read as
    one point at the line minimum and none above it plus one)."""
    bad = mat.min(axis=1) != 0
    for idx in line_index:
        on_lines = mat[:, idx]
        low = on_lines.min(axis=1, keepdims=True)
        ok = (((on_lines == low).sum(axis=1) == 1)
              & (on_lines <= low + 1).all(axis=1))
        bad |= ~ok.all(axis=1)
    return np.flatnonzero(bad)


def _star_rows(first: np.ndarray, second: np.ndarray,
               eps: np.ndarray) -> np.ndarray:
    """star of each row pair (first, second) with its epsilon, as int8
    rows shifted to minimum 0."""
    a = first.astype(np.int16)
    b = second - eps[:, None].astype(np.int16)
    raw = np.where(a == b, a - 1, np.maximum(a, b))
    shift = raw.min(axis=1)
    bad = np.flatnonzero((shift < -1) | (shift > 1))
    if bad.size:
        raise RuntimeError(f"star shifts by {int(shift[bad[0]])}, "
                           f"outside -1..1")
    return (raw - shift[:, None]).astype(np.int8)


def _row_matrix(g: Geometry, vals: Sequence[Valuation],
                line_index: List[np.ndarray]) -> np.ndarray:
    """The value vectors as an int8 [n, points] matrix, after checking
    that every one is a valuation of g."""
    for v in vals:
        if len(v.values) != g.num_points:
            raise ValueError(f"value vectors must have {g.num_points} "
                             f"entries: {v.values}")
        if min(v.values, default=0) < 0:
            raise ValueError(f"not a valuation of the host: {v.values}")
        if max(v.values, default=0) > _INT8_TOP:
            raise ValueError(f"valuation values above {_INT8_TOP} are not "
                             f"supported: {v.values}")
    vmat = np.array([v.values for v in vals], dtype=np.int8).reshape(
        len(vals), g.num_points)
    bad = _non_valuation_rows(vmat, line_index)
    if bad.size:
        raise ValueError(f"not a valuation of the host: "
                         f"{vals[bad[0]].values}")
    return vmat


def _neighbor_stars(vmat: np.ndarray, line_index: List[np.ndarray]):
    """Every neighboring pair i < j of rows with its star row, scanned in
    row blocks against all later rows. Yields (i, j, star rows) per
    block."""
    n, num_points = vmat.shape
    # points first: min and max over points then combine whole
    # [rows, partners] slabs instead of reducing many short rows
    cols = np.ascontiguousarray(vmat.T)
    block = max(1, _BLOCK_ELEMENTS // max(1, n * num_points))
    for start in range(0, n, block):
        stop = min(start + block, n)
        diff = np.subtract(cols[:, start:stop, None],
                           cols[:, None, start + 1:], dtype=np.int16)
        # epsilons in {-1, 0, 1} with |V[i] - V[j] + eps| <= 1 everywhere
        lower = np.maximum(-1, -1 - diff.min(axis=0))
        upper = np.minimum(1, 1 - diff.max(axis=0))
        # offset c is row start + 1 + c; keep partners after row start + r
        r, c = np.nonzero(lower <= upper)
        later = c >= r
        r, c = r[later], c[later]
        i, j = start + r, start + 1 + c
        several = np.flatnonzero(upper[r, c] > lower[r, c])
        if several.size:
            t = several[0]
            raise ValueError(
                f"valuations {i[t]} and {j[t]} (in sorted order) have more "
                f"than one epsilon; the host must be connected")
        stars = _star_rows(vmat[i], vmat[j], lower[r, c])
        bad = _non_valuation_rows(stars, line_index)
        if bad.size:
            t = bad[0]
            raise RuntimeError(f"star of valuations {i[t]} and {j[t]} is "
                               f"not a valuation: {tuple(stars[t].tolist())}")
        yield i, j, stars


def _star_closed_lines(keys: np.ndarray, n: int) -> np.ndarray:
    """The sorted lines, from the keys (a * n + b) * n + c of the sorted
    triples {i, j, star(i, j)} the scan found, one per neighboring pair
    i < j. Every pair is starred once, so a line {i, j, k} satisfies
    star(i, j) = k, star(i, k) = j and star(j, k) = i exactly when all
    three of its pairs found it; raise unless every line has three
    distinct members and was found three times."""
    keys, counts = np.unique(keys, return_counts=True)
    lines = np.stack([keys // (n * n), keys // n % n, keys % n], axis=1)
    repeated = np.flatnonzero((lines[:, 0] == lines[:, 1])
                              | (lines[:, 1] == lines[:, 2]))
    if repeated.size:
        raise RuntimeError(f"line {tuple(lines[repeated[0]].tolist())} "
                           f"repeats a member")
    short = np.flatnonzero(counts != 3)
    if short.size:
        t = short[0]
        raise RuntimeError(f"line {tuple(lines[t].tolist())} is the star "
                           f"of only {counts[t]} of its three pairs")
    return lines


def build_valuation_geometry(g: Geometry, vals: Sequence[Valuation],
                             type_labels: Optional[Dict[Tuple[int, ...], str]]
                             = None) -> ValuationGeometry:
    """Lines are the triples {i, j, k} with v_i, v_j neighboring, distinct
    and star(v_i, v_j) = v_k present among the input valuations.

    Points are indexed by position in the canonically sorted valuation
    list. The sorted value vectors form one int8 [n, points] matrix V,
    and every input row is checked to be a valuation of g (ValueError
    naming the first that is not). Rows are scanned in blocks against
    all later rows: for the differences D = V[i] - V[j], the pair is
    neighboring when the epsilon interval [max(-1, -1 - min D),
    min(1, 1 - max D)] is non-empty, and more than one epsilon raises
    ValueError (this only happens on disconnected hosts). Each
    neighboring pair's star is computed row-wise, checked to be a
    valuation and looked up by its bytes among the rows. Every line is
    then re-checked: its members are distinct, and each of its three
    pairs is neighboring with the third member as star, i.e.
    star(i, j) = k, star(i, k) = j and star(j, k) = i. A failed internal
    check raises RuntimeError. Block sizes come from a fixed element
    budget, so no n x n x points array is held.
    """
    vals = sorted(vals, key=lambda v: v.values)
    n, num_points = len(vals), g.num_points
    line_index = _line_index(g)
    vmat = _row_matrix(g, vals, line_index)
    index = {vmat[k].tobytes(): k for k in range(n)}
    if len(index) != n:
        raise ValueError("duplicate valuations")
    keys = [np.zeros(0, dtype=np.int64)]
    for i, j, stars in _neighbor_stars(vmat, line_index):
        raw = stars.tobytes()
        k = np.array([index.get(raw[t * num_points:(t + 1) * num_points], -1)
                      for t in range(len(stars))], dtype=np.int64)
        present = k >= 0
        triple = np.sort(np.stack([i[present], j[present], k[present]]),
                         axis=0)
        keys.append((triple[0] * n + triple[1]) * n + triple[2])
    lines = _star_closed_lines(np.concatenate(keys), n)
    vlines = list(zip(*lines.T.tolist()))
    point_types = line_types = None
    if type_labels is not None:
        point_types = [type_labels[v.values] for v in vals]
        line_types = [_line_type_string([point_types[i] for i in line])
                      for line in vlines]
    return ValuationGeometry(g, list(vals), vlines, point_types, line_types)


def line_type_table(vg: ValuationGeometry) -> Dict[str, Dict[str, int]]:
    """{line type -> {point type -> lines of that type through each point
    of that point type}}; constancy within each point type is enforced."""
    if vg.point_types is None:
        raise ValueError("valuation geometry built without type labels")
    n = len(vg.vpoints)
    per_point: List[Dict[str, int]] = [dict() for _ in range(n)]
    for line, ltype in zip(vg.vlines, vg.line_types):
        for i in line:
            per_point[i][ltype] = per_point[i].get(ltype, 0) + 1
    by_ptype: Dict[str, List[int]] = {}
    for i, ptype in enumerate(vg.point_types):
        by_ptype.setdefault(ptype, []).append(i)
    table: Dict[str, Dict[str, int]] = {}
    for ptype, members in sorted(by_ptype.items()):
        counts = per_point[members[0]]
        for i in members[1:]:
            if per_point[i] != counts:
                raise RuntimeError(
                    f"line counts not constant on point type {ptype}: "
                    f"point {members[0]} has {counts}, point {i} has "
                    f"{per_point[i]}")
        for ltype, cnt in counts.items():
            table.setdefault(ltype, {})[ptype] = cnt
    return dict(sorted(table.items()))


def restrict(vg: ValuationGeometry, point_types: Sequence[str],
             line_types: Sequence[str]) -> ValuationGeometry:
    """Subgeometry induced by the given point and line type labels."""
    if vg.point_types is None:
        raise ValueError("valuation geometry built without type labels")
    keep_pts = [i for i, t in enumerate(vg.point_types) if t in set(point_types)]
    remap = {old: new for new, old in enumerate(keep_pts)}
    keep_lines = []
    keep_ltypes = []
    for line, ltype in zip(vg.vlines, vg.line_types):
        if ltype in set(line_types) and all(i in remap for i in line):
            keep_lines.append(tuple(sorted(remap[i] for i in line)))
            keep_ltypes.append(ltype)
    return ValuationGeometry(
        vg.host,
        [vg.vpoints[i] for i in keep_pts],
        keep_lines,
        [vg.point_types[i] for i in keep_pts],
        keep_ltypes)


def extract_subgeometry(vg: ValuationGeometry, point_types: Sequence[str],
                        line_types: Sequence[str]) -> Geometry:
    return restrict(vg, point_types, line_types).as_geometry()


@dataclass(frozen=True)
class LemmaReport:
    """Results of the subgeometry checks on the Type-C/CCC restriction.

    grid_completions_per_point counts grids rooted at a point: each grid
    through the point is seen once from each of its four opposite
    corners, so the value is 4x the number of distinct grid point sets
    through the point (16 = 4 x 4 for the dual hexagon).
    """

    connected: bool
    collinear_zero_distance: bool
    grid_zero_distance: bool
    grids_per_point_16: bool
    triangle_free: bool
    total_grids: int = 0
    grid_completions_per_point: Optional[int] = None
    witness: Optional[tuple] = None

    # short aliases for the three lettered sub-checks
    @property
    def a(self) -> bool:
        return self.connected

    @property
    def b(self) -> bool:
        return self.collinear_zero_distance

    @property
    def c(self) -> bool:
        return self.grid_zero_distance

    @property
    def grids16(self) -> bool:
        return self.grids_per_point_16

    def all_pass(self) -> bool:
        return (self.connected and self.collinear_zero_distance
                and self.grid_zero_distance and self.grids_per_point_16
                and self.triangle_free)


def _has_triangle(g: Geometry) -> Optional[tuple]:
    """A triple of pairwise collinear points on three distinct lines."""
    for li, line in enumerate(g.lines):
        for a in line:
            for b in line:
                if b <= a:
                    continue
                for c in set(g.neighbors[a]) & set(g.neighbors[b]):
                    if c not in line:
                        return (a, b, c)
    return None


def check_lemma_3_1(vprime: ValuationGeometry, host: Geometry) -> LemmaReport:
    """Connectivity, zero-point distances for collinear pairs and for grid
    opposite pairs, the 16-grid-completions-per-point count and
    triangle-freeness of the Type-C/CCC restriction of the valuation
    geometry of the dual hexagon."""
    geo = vprime.as_geometry()
    witness = None
    connected = geo.is_connected()

    def zero_point(i: int) -> int:
        zeros = vprime.vpoints[i].zero_set()
        if len(zeros) != 1:
            raise ValueError(f"Lemma 3.1 needs one zero point per valuation; "
                             f"point {i} of the restriction has {len(zeros)}")
        return zeros[0]

    collinear_ok = True
    for line in geo.lines:
        for a in line:
            for b in line:
                if b <= a:
                    continue
                if host.dist[zero_point(a)][zero_point(b)] != 3:
                    collinear_ok = False
                    witness = witness or ("collinear", a, b)
    grids = enumerate_grids(geo)
    grid_ok = True
    for grid in grids:
        pts = sorted(grid.points())
        for a in pts:
            for b in pts:
                if b <= a or geo.dist[a][b] != 2:
                    continue
                if host.dist[zero_point(a)][zero_point(b)] != 3:
                    grid_ok = False
                    witness = witness or ("grid", a, b)
    # Grids rooted at a point: a grid on p is completed once from each of
    # its four opposite corners, so 4 completions per distinct grid.
    completions = [4 * len(grids_through_point(grids, p))
                   for p in range(geo.num_points)]
    counts_ok = bool(completions) and all(c == 16 for c in completions)
    tri = _has_triangle(geo)
    return LemmaReport(
        connected=connected,
        collinear_zero_distance=collinear_ok,
        grid_zero_distance=grid_ok,
        grids_per_point_16=counts_ok,
        triangle_free=tri is None,
        total_grids=len(grids),
        grid_completions_per_point=(completions[0]
                                    if counts_ok else None),
        witness=witness or (("triangle",) + tri if tri else None))
