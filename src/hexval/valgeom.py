"""Neighboring valuations, the star composition and valuation geometries.

The valuation geometry of a host has the valuations as points and the
star-closed neighboring triples {f1, f2, f1*f2} as lines. Point types come
from the isomorphism-class labels; a line type is the lexicographically
sorted string of its point types.
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
        raise AssertionError(
            f"epsilon not unique for distinct valuations: {eps_candidates}")
    return eps_candidates[0]


def star(f1: Valuation, f2: Valuation) -> Valuation:
    """The third valuation f1 * f2 of a neighboring pair.

    f3'(x) = f1(x) - 1 where f1(x) = f2(x) - eps, else
    max(f1(x), f2(x) - eps); the result is shifted by its minimum.
    """
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
    assert m in (-1, 0, 1)
    values = tuple(v - m for v in raw)
    result = Valuation(f1.host, values)
    assert is_valuation(f1.host, values)
    return result


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


def build_valuation_geometry(g: Geometry, vals: Sequence[Valuation],
                             type_labels: Optional[Dict[Tuple[int, ...], str]]
                             = None) -> ValuationGeometry:
    """Lines are the triples {i, j, k} with v_i, v_j neighboring, distinct
    and star(v_i, v_j) = v_k present among the input valuations.

    Points are indexed by position in the canonically sorted valuation
    list. The all-pairs neighboring scan is vectorized; every line is
    re-checked for the full star algebra (pairwise neighboring and the
    three star identities).
    """
    vals = sorted(vals, key=lambda v: v.values)
    index = {v.values: i for i, v in enumerate(vals)}
    if len(index) != len(vals):
        raise ValueError("duplicate valuations")
    n = len(vals)
    lines = set()
    if n:
        mat = np.array([v.values for v in vals], dtype=np.int16)
        for i in range(n):
            diff = mat[i] - mat[i + 1:]
            if diff.size == 0:
                continue
            lo = diff.min(axis=1)
            hi = diff.max(axis=1)
            nb = np.nonzero((lo >= -2) & (hi <= 2) & (hi - lo <= 2)
                            & ((lo != 0) | (hi != 0)))[0]
            for off in nb:
                j = i + 1 + int(off)
                third = star(vals[i], vals[j])
                k = index.get(third.values)
                if k is not None:
                    lines.add(tuple(sorted((i, j, k))))
    vlines = sorted(lines)
    for i, j, k in vlines:
        assert len({i, j, k}) == 3
        assert star(vals[i], vals[j]).values == vals[k].values
        assert star(vals[i], vals[k]).values == vals[j].values
        assert star(vals[j], vals[k]).values == vals[i].values
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
