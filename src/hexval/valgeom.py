"""Valuation geometries: neighboring valuations and their star, on rows.

The valuation geometry of a host has the valuations as points and the
star-closed neighboring triples {f1, f2, f1*f2} as lines. Point types come
from the isomorphism-class labels; a line type is the lexicographically
sorted string of its point types.

Everything here is array algebra on one int8 matrix whose sorted rows
are the points: whether two rows are neighboring follows from the minimum
and maximum of their difference (`_epsilon_interval`), and star is an
elementwise identity on two rows (`_star_rows`). The scalar definitions,
`are_neighboring` and `star` on one pair of valuations, are the tests'
oracle (`tests/oracles.py`). The neighboring scan takes its rows in
blocks sized from a fixed element budget, so it never holds a
rows x rows x points array however many valuations there are.

The report needs neither all pairs nor all lines. `_lines_through`
scans chosen rows against every row with the same kernel and checks the
lines it finds: no repeated member, each found from both other members.
Its callers star-check each line once with `_check_stars`, the one star
re-check. `class_line_table` reads the lines through one row per point
type and checks its counts by double counting. Lines are deduplicated
and counted as integer columns (`_count_distinct`, one lexsort, no
packed keys) and typed by integer point-type codes. The Lemma 3.1
input, the type-C rows, is one automorphism orbit:
`orbit_valuation_geometry` carries the lines through its row 0 to every
row in one walk under the group's action on rows, star-checks each
distinct line and requires each to reach all three of its members. The
full build stays as the public function and the tests' oracle.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .geometry import Geometry, _bits, enumerate_grids
from .valuations import (_line_index, _non_valuation_rows, find_rows,
                         row_keys)


@dataclass
class ValuationGeometry:
    """Partial linear space of valuations with star-closed triple lines."""

    host: Geometry
    vpoints: np.ndarray
    vlines: List[Tuple[int, int, int]]
    point_types: List[str]
    line_types: List[str]
    _geometry: Optional[Geometry] = field(default=None, repr=False)

    def as_geometry(self) -> Geometry:
        if self._geometry is None:
            self._geometry = Geometry(len(self.vpoints), self.vlines,
                                      name="valuation-geometry")
        return self._geometry


def _line_type_string(labels: Sequence[str]) -> str:
    return "".join(sorted(labels))


#: int16 differences one block of the neighboring scan may hold (512 KiB).
_BLOCK_ELEMENTS = 1 << 18

#: Largest value the int8 matrix takes: star adds at most 2 to a value
#: and the per-line check at most 1 more, which must stay below 128.
_INT8_TOP = 124


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


def _epsilon_interval(diff: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The bounds [lower, upper] of the epsilons in {-1, 0, 1} with
    |d + eps| <= 1 for every difference d along axis 0 of diff; a pair is
    neighboring when lower <= upper."""
    return (np.maximum(-1, -1 - diff.min(axis=0)),
            np.minimum(1, 1 - diff.max(axis=0)))


def _neighbor_stars(vmat: np.ndarray, line_index: List[np.ndarray],
                    rows: Optional[np.ndarray] = None):
    """Every neighboring pair (i, j) of distinct rows whose star is a row
    k, scanned in row blocks: each row i against every later row j, or,
    when the sorted row indices rows are given, each of those rows against
    every other row. Yields (i, j, k) per block."""
    n, num_points = vmat.shape
    later = rows is None
    if later:
        rows = np.arange(n)
    # points first: min and max over points then combine whole
    # [rows, partners] slabs instead of reducing many short rows
    cols = np.ascontiguousarray(vmat.T)
    block = max(1, _BLOCK_ELEMENTS // max(1, n * num_points))
    for start in range(0, len(rows), block):
        mine = rows[start:start + block]
        # partner c is row first + c
        first = mine[0] + 1 if later else 0
        lower, upper = _epsilon_interval(np.subtract(
            cols[:, mine, None], cols[:, None, first:], dtype=np.int16))
        r, c = np.nonzero(lower <= upper)
        i, j = mine[r], first + c
        keep = j > i if later else j != i
        r, c, i, j = r[keep], c[keep], i[keep], j[keep]
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
        k = find_rows(vmat, stars)
        yield i[k >= 0], j[k >= 0], k[k >= 0]


def _checked_rows(g: Geometry, rows: Sequence[Sequence[int]],
                  point_types: Sequence[str]):
    """rows as an int8 matrix in value-vector order, the point types in
    that order and the host's line index. ValueError for a wrong length
    or type count, a value outside 0.._INT8_TOP (checked before the int8
    cast), a non-valuation or a repeated row."""
    n = g.num_points
    mat = np.asarray(rows, dtype=np.int64)
    if mat.shape == (0,):
        mat = mat.reshape(0, n)
    if mat.ndim != 2 or mat.shape[1] != n:
        raise ValueError(f"value vectors must have {n} entries, not an "
                         f"array of shape {mat.shape}")
    if len(point_types) != len(mat):
        raise ValueError(f"{len(point_types)} point types for "
                         f"{len(mat)} value vectors")
    bad = ((mat < 0) | (mat > _INT8_TOP)).any(axis=1)
    if bad.any():
        raise ValueError(f"valuation values must lie in 0..{_INT8_TOP}: "
                         f"{tuple(mat[bad.argmax()].tolist())}")
    vmat = mat.astype(np.int8)
    order = np.argsort(row_keys(vmat), kind="stable")
    vmat = vmat[order]
    line_index = _line_index(g)
    bad = _non_valuation_rows(vmat, line_index)
    if bad.size:
        raise ValueError(f"not a valuation of the host: "
                         f"{tuple(vmat[bad[0]].tolist())}")
    keys = row_keys(vmat)
    if (keys[1:] == keys[:-1]).any():
        raise ValueError("duplicate valuations")
    point_types = [point_types[i] for i in order.tolist()]
    return vmat, point_types, line_index


def _count_distinct(cols: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct rows of the integer matrix cols in lexicographic
    order, and how often each occurs: one lexsort over the columns, so no
    column value is packed into a wider key that could wrap."""
    cols = cols[np.lexsort(cols.T[::-1])]
    # the start of each run of equal rows, and the end of the last
    edge = np.ones(len(cols) + 1, dtype=bool)
    edge[1:-1] = (cols[1:] != cols[:-1]).any(axis=1)
    at = np.flatnonzero(edge)
    return cols[at[:-1]], at[1:] - at[:-1]


def _star_closed_lines(triples: np.ndarray) -> np.ndarray:
    """The sorted lines, from the rows of the sorted triples
    {i, j, star(i, j)} the scan found, one per neighboring pair i < j.
    Every pair is starred once, so a line {i, j, k} satisfies
    star(i, j) = k, star(i, k) = j and star(j, k) = i exactly when all
    three of its pairs found it; raise unless every line has three
    distinct members and was found three times."""
    lines, counts = _count_distinct(triples)
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


def _check_stars(vmat: np.ndarray, triples: np.ndarray) -> None:
    """RuntimeError unless rows i and j of each triple (i, j, k) have
    exactly one epsilon and star to row k."""
    i, j, k = triples.T
    lower, upper = _epsilon_interval(
        np.subtract(vmat[i], vmat[j], dtype=np.int16).T)
    wrong = np.flatnonzero(lower != upper)
    if not wrong.size:
        stars = _star_rows(vmat[i], vmat[j], lower)
        wrong = np.flatnonzero((stars != vmat[k]).any(axis=1))
    if wrong.size:
        t = wrong[0]
        raise RuntimeError(f"line {tuple(sorted(triples[t].tolist()))}: "
                           f"valuations {i[t]} and {j[t]} do not star to "
                           f"valuation {k[t]}")


def _lines_through(vmat: np.ndarray, line_index: List[np.ndarray],
                   reps: np.ndarray) -> np.ndarray:
    """The sorted lines (r, j, k), j < k, through each of the sorted rows
    reps, as int64 triples, from one scan of each row r against every
    other row. A line {r, j, k} is found from j, as star(r, j) = k, and
    from k. RuntimeError unless no line repeats a member and each line is
    found exactly twice, once from each other member; star(j, k) = r is
    left to the caller (_check_stars)."""
    found = [np.zeros((3, 0), dtype=np.int64)]
    for i, j, k in _neighbor_stars(vmat, line_index, reps):
        found.append(np.stack([i, j, k]))
    r, j, k = np.concatenate(found, axis=1)
    repeated = np.flatnonzero((k == r) | (k == j))
    if repeated.size:
        t = repeated[0]
        raise RuntimeError(f"line {(int(r[t]), int(j[t]), int(k[t]))} "
                           f"repeats a member")
    lines, counts = _count_distinct(
        np.stack([r, np.minimum(j, k), np.maximum(j, k)], axis=1))
    short = np.flatnonzero(counts != 2)
    if short.size:
        t = short[0]
        raise RuntimeError(f"line {tuple(lines[t].tolist())} through "
                           f"valuation {lines[t, 0]} is not found twice, "
                           f"once from each other member, but {counts[t]} "
                           f"times")
    return lines


def build_valuation_geometry(g: Geometry, rows: Sequence[Sequence[int]],
                             point_types: Sequence[str]
                             ) -> ValuationGeometry:
    """Lines are the triples {i, j, k} with v_i, v_j neighboring, distinct
    and star(v_i, v_j) = v_k present among the input valuations.

    rows are value vectors and point_types one type per row.
    The rows, sorted and checked by _checked_rows (ValueError naming the
    first bad row), form one int8 [n, points] matrix V, whose row index
    is the point index. Rows are scanned in blocks against all later
    rows: for the differences D = V[i] - V[j], the pair is neighboring
    when the epsilon interval [max(-1, -1 - min D), min(1, 1 - max D)] is
    non-empty, and more than one epsilon raises ValueError (this only
    happens on disconnected hosts). Each neighboring pair's star is
    computed row-wise, checked to be a valuation and looked up by its key
    among the rows. Every line is
    then re-checked: its members are distinct, and each of its three
    pairs is neighboring with the third member as star, i.e.
    star(i, j) = k, star(i, k) = j and star(j, k) = i. A failed internal
    check raises RuntimeError. Block sizes come from a fixed element
    budget, so no n x n x points array is held.
    """
    vmat, point_types, line_index = _checked_rows(g, rows, point_types)
    triples = [np.zeros((0, 3), dtype=np.intp)]
    for i, j, k in _neighbor_stars(vmat, line_index):
        triples.append(np.sort(np.stack([i, j, k], axis=1), axis=1))
    return _typed_geometry(g, vmat, point_types,
                           _star_closed_lines(np.concatenate(triples)))


def _typed_geometry(g: Geometry, vmat: np.ndarray, point_types: List[str],
                    lines: np.ndarray) -> ValuationGeometry:
    """The valuation geometry on the sorted rows vmat with the sorted
    lines, each typed by its members' point types."""
    vlines = list(zip(*lines.T.tolist()))
    line_types = [_line_type_string([point_types[i] for i in line])
                  for line in vlines]
    return ValuationGeometry(g, vmat, vlines, point_types, line_types)


def _lines_through_orbit(vmat: np.ndarray,
                         generators: Sequence[Sequence[int]],
                         seed: np.ndarray) -> np.ndarray:
    """The [rows, len(seed), 3] lines through each of the sorted rows
    vmat, carried from the lines seed through row 0. Each generator
    theta maps row f to f o theta, which must be a row (one find_rows
    call). A breadth-first walk from row 0 maps the lines through row f
    onto the lines through each image of f that the walk has not reached
    yet. RuntimeError unless every image is a row and the walk reaches
    every row."""
    n, num_points = vmat.shape
    perms = np.array(generators, dtype=np.intp).reshape(-1, num_points)
    acts = find_rows(vmat, vmat[:, perms].swapaxes(0, 1).reshape(
        -1, num_points)).reshape(len(perms), n)
    missing = np.argwhere(acts < 0)
    if missing.size:
        gen, row = missing[0].tolist()
        raise RuntimeError(f"generator {gen} maps valuation {row} (in "
                           f"sorted order) outside the given rows")
    through = np.empty((n, len(seed), 3), dtype=np.int64)
    through[0] = seed
    reached = np.zeros(n, dtype=bool)
    reached[0] = True
    frontier = np.zeros(1, dtype=np.intp)
    while frontier.size:
        found = [frontier[:0]]
        for act in acts:
            sources = frontier[~reached[act[frontier]]]
            images = act[sources]
            reached[images] = True
            through[images] = act[through[sources]]
            found.append(images)
        frontier = np.concatenate(found)
    outside = np.flatnonzero(~reached)
    if outside.size:
        raise RuntimeError(f"valuation {outside[0]} (in sorted order) is "
                           f"not in the orbit of valuation 0")
    return through


def orbit_valuation_geometry(g: Geometry, rows: Sequence[Sequence[int]],
                             point_types: Sequence[str],
                             generators: Sequence[Sequence[int]]
                             ) -> ValuationGeometry:
    """build_valuation_geometry(g, rows, point_types) for rows that form
    one orbit of the group the host automorphisms generators generate,
    from the lines through one row carried to every row by the group.

    The rows are checked as in build_valuation_geometry. The lines
    through row 0 come from _lines_through, as in class_line_table, so
    its repeated-member and found-twice checks cover them too.
    Automorphisms preserve neighboring and star, so the images of the
    lines through row f under a generator theta are the lines through
    row f o theta, and one walk from row 0 carries them to every row
    (_lines_through_orbit, which also shows that the rows are one
    orbit). Every distinct carried line then has each of its pairs
    star-checked once (_check_stars), and must have been carried to all
    three of its members. A failed check raises RuntimeError. With no
    rows no kernel runs; with no line through row 0 the walk still
    checks the orbit, but there is no line to check.
    """
    vmat, point_types, line_index = _checked_rows(g, rows, point_types)
    lines = np.zeros((0, 3), dtype=np.int64)
    if len(vmat):
        seed = _lines_through(vmat, line_index, np.zeros(1, dtype=np.intp))
        through = _lines_through_orbit(vmat, generators, seed)
        if len(seed):
            lines, counts = _count_distinct(
                np.sort(through.reshape(-1, 3), axis=1))
            # stars first, so a wrong member is named as such rather
            # than as a line carried to too few of its members
            pairs = [[0, 1, 2], [0, 2, 1], [1, 2, 0]]
            _check_stars(vmat, lines[:, pairs].reshape(-1, 3))
            short = np.flatnonzero(counts != 3)
            if short.size:
                t = short[0]
                raise RuntimeError(f"line {tuple(lines[t].tolist())} is "
                                   f"carried to {counts[t]} of its three "
                                   f"members")
    return _typed_geometry(g, vmat, point_types, lines)


def line_type_table(vg: ValuationGeometry) -> Dict[str, Dict[str, int]]:
    """{line type -> {point type -> lines of that type through each point
    of that point type}}; constancy within each point type is enforced."""
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


def _check_double_count(table: Dict[str, Dict[str, int]],
                        sizes: Dict[str, int],
                        members: Dict[str, List[str]]) -> None:
    """Count the lines of each type once per point type on it: with
    multiplicity m of point type P among a line type's members,
    |P| x (lines of that type through a P-point) / m must be one and the
    same integer for every P on the line type (RuntimeError otherwise)."""
    for ltype, labels in sorted(members.items()):
        totals = {}
        for ptype in sorted(set(labels)):
            total, rest = divmod(sizes[ptype] * table[ltype].get(ptype, 0),
                                 labels.count(ptype))
            if rest:
                raise RuntimeError(
                    f"double count of line type {ltype} fails: "
                    f"{sizes[ptype]} points of type {ptype} on "
                    f"{table[ltype].get(ptype, 0)} lines each is not a "
                    f"multiple of {labels.count(ptype)}")
            totals[ptype] = total
        if len(set(totals.values())) != 1:
            raise RuntimeError(f"double count of line type {ltype} fails: "
                               f"lines counted by point type {totals}")


def class_line_table(g: Geometry, rows: Sequence[Sequence[int]],
                     point_types: Sequence[str]
                     ) -> Dict[str, Dict[str, int]]:
    """line_type_table(build_valuation_geometry(g, rows, point_types))
    for labels that are orbits of a group of automorphisms of the
    valuation geometry, read off the lines through one valuation per
    point type.

    The orbit precondition is not checked. It is what lets the counts
    through one valuation stand for its whole point type; the
    automorphism orbits of `Bundle` satisfy it. On other labels the
    result may differ from line_type_table, which raises "line counts
    not constant" where the double count below can still pass.

    The representative of a point type is its first valuation in
    value-vector order. The rows are checked as in
    build_valuation_geometry, and _lines_through finds the lines
    {r, j, k} through each representative row r (more than one epsilon
    raises ValueError): no line may repeat a member, and each must be
    found exactly twice, from j as star(r, j) = k and from k. Then
    star(j, k) = r is re-checked on every line (_check_stars). Each
    line is typed by the sorted codes of its members' point types, codes
    in label order, and the lines are counted per (line type,
    representative type) pair in one pass, so a type string is built
    once per line type. Then the double count (_check_double_count)
    compares the counts of each line type across its point types. A
    failed check raises RuntimeError.
    """
    vmat, point_types, line_index = _checked_rows(g, rows, point_types)
    first: Dict[str, int] = {}
    for row, ptype in enumerate(point_types):
        first.setdefault(ptype, row)
    if not first:
        return {}
    # point types as codes in label order, so sorted codes spell sorted
    # labels
    names = sorted(first)
    code = {name: c for c, name in enumerate(names)}
    codes = np.fromiter(map(code.__getitem__, point_types), dtype=np.intp,
                        count=len(point_types))
    lines = _lines_through(vmat, line_index,
                           np.array(list(first.values()), dtype=np.intp))
    _check_stars(vmat, lines[:, [1, 2, 0]])
    # each line counted once per (sorted member codes, representative)
    pairs, counts = _count_distinct(
        np.column_stack([np.sort(codes[lines], axis=1), codes[lines[:, 0]]]))
    table: Dict[str, Dict[str, int]] = {}
    members: Dict[str, List[str]] = {}
    last = None
    for *triple, ptype, count in np.column_stack([pairs, counts]).tolist():
        if triple != last:
            last, labels = triple, [names[c] for c in triple]
            ltype = _line_type_string(labels)
            members[ltype] = labels
            per_rep = table.setdefault(ltype, {})
        per_rep[names[ptype]] = per_rep.get(names[ptype], 0) + count
    _check_double_count(table, dict(zip(names, np.bincount(codes).tolist())),
                        members)
    return {ltype: dict(sorted(table[ltype].items()))
            for ltype in sorted(table)}


def restrict(vg: ValuationGeometry, point_types: Sequence[str],
             line_types: Sequence[str]) -> ValuationGeometry:
    """Subgeometry induced by the given point and line type labels."""
    point_types, line_types = set(point_types), set(line_types)
    keep_pts = [i for i, t in enumerate(vg.point_types) if t in point_types]
    remap = {old: new for new, old in enumerate(keep_pts)}
    keep_lines = []
    keep_ltypes = []
    for line, ltype in zip(vg.vlines, vg.line_types):
        if ltype in line_types and all(i in remap for i in line):
            keep_lines.append(tuple(sorted(remap[i] for i in line)))
            keep_ltypes.append(ltype)
    return ValuationGeometry(
        vg.host,
        vg.vpoints[keep_pts],
        keep_lines,
        [vg.point_types[i] for i in keep_pts],
        keep_ltypes)


@dataclass(frozen=True)
class LemmaReport:
    """Results of the subgeometry checks on the Type-C/CCC restriction.

    grid_completions_per_point counts grids rooted at a point: each grid
    through the point is seen once from each of its four opposite
    corners, so the value is 4x the number of distinct grid point sets
    through the point (16 = 4 x 4 for the dual hexagon).

    witness is set when a check fails: the first collinear or grid pair
    at the wrong zero distance, else the first triangle, else a point
    with no path to point 0, else the first point whose completion
    count is not 16 with that count (("no type-C valuations",) when the
    restriction is empty).
    """

    connected: bool
    collinear_zero_distance: bool
    grid_zero_distance: bool
    grids_per_point_16: bool
    triangle_free: bool
    total_grids: int = 0
    grid_completions_per_point: Optional[int] = None
    witness: Optional[tuple] = None


def _has_triangle(g: Geometry) -> Optional[tuple]:
    """A triple of pairwise collinear points on three distinct lines: the
    first pair (a, b) of a line, in line order, with a common neighbour
    off the line, and the least such neighbour c."""
    nbr = g.neighbor_masks
    for line, mask in zip(g.lines, g.line_masks):
        for a, b in combinations(line, 2):
            off_line = nbr[a] & nbr[b] & ~mask
            if off_line:
                return (a, b, (off_line & -off_line).bit_length() - 1)
    return None


def check_lemma_3_1(vprime: ValuationGeometry, host: Geometry) -> LemmaReport:
    """Connectivity, zero-point distances for collinear pairs and for grid
    opposite pairs, the 16-grid-completions-per-point count and
    triangle-freeness of the Type-C/CCC restriction of the valuation
    geometry of the dual hexagon.

    Every check runs on the restriction's neighbour and line masks and
    on its enumerate_grids masks, so its distance matrix is never computed. Two
    points of a grid are opposite when they are not collinear, which
    within a grid is the same as being at distance 2. A valuation on a
    line with other than one zero point raises ValueError; each zero
    point's host distance row is read once.
    """
    if not len(vprime.vpoints):
        return LemmaReport(
            connected=True, collinear_zero_distance=True,
            grid_zero_distance=True, grids_per_point_16=False,
            triangle_free=True, witness=("no type-C valuations",))
    geo = vprime.as_geometry()
    nbr = geo.neighbor_masks
    witness = None
    connected = geo.is_connected()
    zeros = vprime.vpoints == 0
    zero_counts = zeros.sum(axis=1).tolist()
    # every pair the checks read lies on a line; the first point, in
    # line order, without exactly one zero point is the one named
    off = next((p for line in geo.lines for p in line
                if zero_counts[p] != 1), None)
    if off is not None:
        raise ValueError(f"Lemma 3.1 needs one zero point per valuation; "
                         f"point {off} of the restriction has "
                         f"{zero_counts[off]}")
    zero = zeros.argmax(axis=1).tolist() if zeros.size else []
    dist = [host.dist[z] for z in zero]
    collinear_ok = True
    for line in geo.lines:
        for a, b in combinations(line, 2):
            if dist[a][zero[b]] != 3:
                collinear_ok = False
                witness = witness or ("collinear", a, b)
    grids = enumerate_grids(geo)
    grid_ok = True
    grids_through = [0] * geo.num_points
    for mask in grids:
        for a in _bits(mask):
            grids_through[a] += 1
            # the grid points after a that are opposite to it
            for b in _bits(mask & ~nbr[a] & -2 << a):
                if dist[a][zero[b]] != 3:
                    grid_ok = False
                    witness = witness or ("grid", a, b)
    # Grids rooted at a point: a grid on p is completed once from each of
    # its four opposite corners, so 4 completions per distinct grid.
    completions = [4 * count for count in grids_through]
    counts_ok = all(c == 16 for c in completions)
    tri = _has_triangle(geo)
    witness = witness or (("triangle",) + tri if tri else None)
    if witness is None and not connected:
        # the least point with no path to point 0
        witness = ("disconnected", 0, geo.dist[0].index(-1))
    elif witness is None and not counts_ok:
        # the least point whose completion count is not 16
        witness = next(("grid_completions", p, c)
                       for p, c in enumerate(completions) if c != 16)
    return LemmaReport(
        connected=connected,
        collinear_zero_distance=collinear_ok,
        grid_zero_distance=grid_ok,
        grids_per_point_16=counts_ok,
        triangle_free=tri is None,
        total_grids=len(grids),
        grid_completions_per_point=(completions[0]
                                    if counts_ok else None),
        witness=witness)
