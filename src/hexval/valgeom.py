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

`check_lemma_3_1` decides a V′ with points but no line by its point
count. Otherwise it reads the lines of V′ as one sorted int [lines, 3]
array, with packed uint64 neighbour rows, the lines through each point
(`geometry.lines_through_table`, whose components give connectivity)
and the grid search of `geometry.grid_rows`; it builds no `Geometry` of
V′ and no array of points x points entries. Its scalar form on a
restriction `Geometry` is the tests' oracle. Outside value rows become
int8 rows through `valuations.value_rows`, as a `Valuations` does.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import gf2
from .geometry import (GRID_PAIRS, Geometry, GeometryError, _distinct,
                       grid_rows, line_incidence)
from .hyperplanes import _orbit_labels
from .valuations import (_line_index, _non_valuation_rows, find_rows,
                         row_keys, value_rows)


@dataclass
class ValuationGeometry:
    """Partial linear space of valuations with star-closed triple lines."""

    host: Geometry
    vpoints: np.ndarray
    vlines: List[Tuple[int, int, int]]
    point_types: List[str]
    line_types: List[str]


def _line_type_string(labels: Sequence[str]) -> str:
    return "".join(sorted(labels))


#: int16 differences one block of the neighboring scan may hold (512 KiB).
_BLOCK_ELEMENTS = 1 << 18


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
    that order and the host's line index. ValueError for rows that
    value_rows refuses, a wrong type count, a non-valuation or a repeated
    row."""
    vmat = value_rows(g, rows)
    if len(point_types) != len(vmat):
        raise ValueError(f"{len(point_types)} point types for "
                         f"{len(vmat)} value vectors")
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
    order (_distinct), and how often each occurs."""
    distinct, inverse = _distinct(cols)
    return distinct, np.bincount(inverse, minlength=len(distinct))


def _type_codes(point_types: Sequence[str]) -> Tuple[List[str], np.ndarray]:
    """The distinct point types in label order, and each point's type as
    its index among them, so that sorted codes spell sorted labels."""
    names = sorted(set(point_types))
    code = {name: c for c, name in enumerate(names)}
    return names, np.fromiter(map(code.__getitem__, point_types),
                              dtype=np.intp, count=len(point_types))


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
    lines, each typed by its members' point types: one type string per
    distinct sorted triple of point-type codes (_type_codes)."""
    names, codes = _type_codes(point_types)
    triples, kind = _distinct(np.sort(codes[lines], axis=1))
    kinds = [_line_type_string([names[c] for c in triple])
             for triple in triples.tolist()]
    return ValuationGeometry(g, vmat, list(zip(*lines.T.tolist())),
                             point_types, [kinds[k] for k in kind.tolist()])


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
    names, codes = _type_codes(point_types)
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


def _line_array(num_points: int, vlines: Sequence[Sequence[int]]
                ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """The points of the lines, flat in line order, and the lines as an
    int [lines, 3] array, or None when some line has other than 3
    points; each line sorted, the lines deduplicated and ordered as
    Geometry(num_points, vlines) orders them. The Geometry constructor
    itself runs only on lines that are not 3-point lines of distinct
    points in range with no pair on two lines: it orders lines of other
    sizes, and raises the GeometryError naming the first bad line."""
    if any(len(line) != 3 for line in vlines):
        lines = Geometry(num_points, vlines).lines
        return np.fromiter(chain.from_iterable(lines), dtype=np.intp,
                           count=sum(map(len, lines))), None
    lines = np.sort(np.fromiter(chain.from_iterable(vlines), dtype=np.intp,
                                count=3 * len(vlines)).reshape(-1, 3),
                    axis=1)
    lines = _distinct(lines)[0]
    pairs = np.sort((lines[:, [0, 0, 1]] * num_points
                     + lines[:, [1, 2, 2]]).ravel())
    if not ((lines[:, 0] >= 0).all() and (lines[:, 2] < num_points).all()
            and (lines[:, 1:] > lines[:, :-1]).all()
            and (pairs[1:] != pairs[:-1]).all()):
        Geometry(num_points, vlines)
        raise RuntimeError("Geometry accepts lines that the line array "
                           "check rejects")
    return lines.ravel(), lines


def _zero_points_opposite(host: Geometry, zeros: np.ndarray, a: np.ndarray,
                          b: np.ndarray) -> np.ndarray:
    """Whether the zero points of valuations a and b lie at distance 3 in
    the host, elementwise, for the bool zero sets zeros of valuations
    with one zero point each: one gather from a temporary int array of
    the host's distance rows of the zero points of a."""
    if not len(a):
        return np.ones(0, dtype=bool)
    zero = zeros.argmax(axis=1)
    used = np.zeros(host.num_points, dtype=bool)
    used[zero[a]] = True
    rows = np.flatnonzero(used).tolist()
    dist = np.fromiter(chain.from_iterable(host.dist[z] for z in rows),
                       dtype=np.intp, count=len(rows) * host.num_points)
    return dist.reshape(len(rows), -1)[np.cumsum(used)[zero[a]] - 1,
                                       zero[b]] == 3


def _first_triangle(lines: np.ndarray,
                    adj: np.ndarray) -> Optional[Tuple[int, int, int]]:
    """A triple of pairwise collinear points on three distinct lines: the
    first pair (a, b) of a line, in line order, whose packed neighbour
    rows share a point off the line, and the least such point c. The
    pairs are read in blocks sized from a fixed word budget."""
    # each pair of a line and its third point
    triples = lines[:, [[0, 1, 2], [0, 2, 1], [1, 2, 0]]].reshape(-1, 3)
    block = max(1, _BLOCK_ELEMENTS // adj.shape[1])
    for start in range(0, len(triples), block):
        a, b, c = triples[start:start + block].T
        common = adj[a] & adj[b]
        common[np.arange(len(c)), c >> 6] &= ~(
            np.uint64(1) << (c & 63).astype(np.uint64))
        hit = np.flatnonzero(common.any(axis=1))
        if hit.size:
            t = hit[0]
            off = gf2.from_words(common[t])
            return int(a[t]), int(b[t]), (off & -off).bit_length() - 1
    return None


def _first_unreached(others: np.ndarray) -> Optional[int]:
    """The least point with no path to point 0, or None when every point
    has one, from the lines through each point (lines_through_table):
    the least point of each component, by min-label propagation over
    the maps that send each point to one of the other points of its
    lines, a padding -1 to itself (hyperplanes._orbit_labels)."""
    n = len(others)
    maps = np.where(others < 0, np.arange(n)[:, None, None], others)
    unreached = np.flatnonzero(_orbit_labels(maps.reshape(n, -1).T, n))
    return int(unreached[0]) if unreached.size else None


def check_lemma_3_1(vprime: ValuationGeometry, host: Geometry) -> LemmaReport:
    """Connectivity, zero-point distances for collinear pairs and for grid
    opposite pairs, the 16-grid-completions-per-point count and
    triangle-freeness of the Type-C/CCC restriction of the valuation
    geometry of the dual hexagon.

    A restriction with points but no line is decided by its point
    count, with no array built. Otherwise the checks run on its lines as
    one sorted int [lines, 3] array (_line_array, which raises on lines
    that are no partial linear space as the Geometry constructor does)
    and on its packed neighbour rows and lines through each point
    (line_incidence); no restriction Geometry is built and its distance
    matrix is never computed. A valuation on a line with other than one
    zero point raises GeometryError, before any distance is read, and so
    do lines of other than 3 points. The grids come from grid_rows. Two
    points of a grid are opposite when they are not collinear, which
    within a grid is the same as being at distance 2; the collinear
    pairs, in line order, and the opposite pairs of each grid, in grid
    order, have their zero points' distance read in one gather. The
    triangles are the common neighbours off a line of each pair of its
    points, and connectivity comes from the components of the lines
    through each point (_first_unreached). No array of points x points
    entries is built: the packed rows take m^2 / 8 bytes for m points,
    and the grid candidates and the triangle pairs are read in blocks of
    a fixed size.
    """
    num_points = len(vprime.vpoints)
    if not num_points:
        return LemmaReport(
            connected=True, collinear_zero_distance=True,
            grid_zero_distance=True, grids_per_point_16=False,
            triangle_free=True, witness=("no type-C valuations",))
    if not vprime.vlines:
        # no pair to read and no grid: the point count decides the rest
        return LemmaReport(
            connected=num_points == 1, collinear_zero_distance=True,
            grid_zero_distance=True, grids_per_point_16=False,
            triangle_free=True,
            witness=(("disconnected", 0, 1) if num_points > 1
                     else ("grid_completions", 0, 0)))
    flat, lines = _line_array(num_points, vprime.vlines)
    zeros = vprime.vpoints == 0
    zero_counts = zeros.sum(axis=1)
    # every pair the checks read lies on a line; the first point, in
    # line order, without exactly one zero point is the one named
    off = np.flatnonzero(zero_counts[flat] != 1)
    if off.size:
        p = flat[off[0]]
        raise GeometryError(f"Lemma 3.1 needs one zero point per "
                            f"valuation; point {p} of the restriction "
                            f"has {zero_counts[p]}")
    if lines is None:
        raise GeometryError("grid enumeration requires 3-point lines")
    adj, others = line_incidence(num_points, lines)
    grids = grid_rows(lines, adj, others)
    grid_a, grid_b = grids[:, GRID_PAIRS[:, 0]], grids[:, GRID_PAIRS[:, 1]]
    opposite = ~gf2.bits_at(adj, grid_a, grid_b)
    a = np.concatenate([lines[:, [0, 0, 1]].ravel(), grid_a[opposite]])
    b = np.concatenate([lines[:, [1, 2, 2]].ravel(), grid_b[opposite]])
    wrong = np.flatnonzero(~_zero_points_opposite(host, zeros, a, b))
    collinear = 3 * len(lines)
    witness = None
    if wrong.size:
        t = wrong[0]
        witness = ("collinear" if t < collinear else "grid",
                   int(a[t]), int(b[t]))
    # Grids rooted at a point: a grid on p is completed once from each of
    # its four opposite corners, so 4 completions per distinct grid.
    completions = 4 * np.bincount(grids.ravel(), minlength=num_points)
    short = np.flatnonzero(completions != 16)
    tri = _first_triangle(lines, adj)
    witness = witness or (("triangle",) + tri if tri else None)
    unreached = _first_unreached(others)
    if witness is None and unreached is not None:
        witness = ("disconnected", 0, unreached)
    elif witness is None and short.size:
        # the least point whose completion count is not 16
        witness = ("grid_completions", int(short[0]),
                   int(completions[short[0]]))
    return LemmaReport(
        connected=unreached is None,
        collinear_zero_distance=not wrong.size or bool(wrong[0] >= collinear),
        grid_zero_distance=not wrong.size or bool(wrong[-1] < collinear),
        grids_per_point_16=not short.size,
        triangle_free=tri is None,
        total_grids=len(grids),
        grid_completions_per_point=(None if short.size
                                    else int(completions[0])),
        witness=witness)
