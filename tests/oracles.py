"""Scalar reference definitions that the array paths of hexval are
tested against.

The library computes valuations, neighboring pairs and their star as
rows of one int8 matrix (``valuations._non_valuation_rows``,
``valgeom._epsilon_interval``, ``valgeom._star_rows``). Here the same
notions are written out one valuation at a time, straight from their
definitions: the per-line semi-valuation rule, the epsilon of a
neighboring pair and the star f1 * f2. Next to them are the generic
orbit closure, an elimination rank over GF(2), a Schreier-Sims group
built from generators alone (the oracle of the searched automorphism
groups), the tuple orbit of a point function (the oracle of the row
orbits), a depth-first enumeration of all valuations of a small host and
a table of every collinear pair (the oracle of the line checks that
build a ``Geometry``). Last come the grid search by 4-cycles completed
through the distance matrix (the oracle of ``geometry.grid_rows``) and
the Lemma 3.1 check on a restriction ``Geometry`` with int masks, one
pair at a time (the oracle of ``valgeom.check_lemma_3_1``).
"""
import functools
import operator
from itertools import combinations
from typing import (Callable, Dict, Hashable, Iterable, List, Optional,
                    Sequence, Tuple)

from hexval.geometry import Geometry, GeometryError, _bits
from hexval.valgeom import LemmaReport, ValuationGeometry
from hexval.valuations import Valuation

EQUAL = "equal"


def is_semi_valuation(g: Geometry, values: Sequence[int]) -> bool:
    """Each line has a unique minimum; other points are one above it."""
    for line in g.lines:
        vals = [values[p] for p in line]
        low = min(vals)
        if vals.count(low) != 1 or max(vals) > low + 1:
            return False
    return True


def is_valuation(g: Geometry, values: Sequence[int]) -> bool:
    return min(values) == 0 and is_semi_valuation(g, values)


@functools.cache
def is_valid(f: Valuation) -> bool:
    """Whether f's values form a valuation of its host, checked once per
    (host, values): equal Valuation objects share one hash and one
    cache entry."""
    return is_valuation(f.host, f.values)


def as_valuations(host: Geometry, rows) -> List[Valuation]:
    """The rows of an int8 value matrix as Valuation objects of host."""
    return [Valuation(host, tuple(row)) for row in rows.tolist()]


def zero_set(f: Valuation) -> Tuple[int, ...]:
    return tuple(p for p, v in enumerate(f.values) if v == 0)


def classical_valuation(g: Geometry, center: int) -> Valuation:
    """f(y) = d(center, y)."""
    row = g.dist[center]
    if -1 in row:
        raise ValueError("classical valuation requires a connected geometry")
    return Valuation(g, tuple(row))


def ovoidal_valuation(g: Geometry, ovoid: Sequence[int]) -> Valuation:
    members = set(ovoid)
    return Valuation(g, tuple(0 if p in members else 1
                              for p in range(g.num_points)))


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
        if not is_valid(f):
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
    out = Valuation(f1.host, tuple(v - m for v in raw))
    if not is_valid(out):
        raise RuntimeError(f"star of neighboring valuations is not a "
                           f"valuation: {out.values}")
    return out


def orbit(generators: Sequence, start: Hashable,
          act: Callable[[object, Hashable], Hashable]) -> set:
    """Orbit of start under the group the generators generate; act(g, x)
    is the image of x under the generator g, in whatever form act reads
    (a permutation, or a table derived from one). The search closes the
    set under the generators, which suffices because the group is
    finite."""
    seen = {start}
    queue = [start]
    while queue:
        x = queue.pop()
        for g in generators:
            y = act(g, x)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


def rank(rows: Iterable[int], cols: int,
         col_order: Optional[Iterable[int]] = None) -> int:
    """GF(2) rank of the int rows over the columns 0..cols-1, reducing
    each row in col_order (ascending by default) against one basis row
    per pivot column."""
    order = list(range(cols) if col_order is None else col_order)
    basis = {}
    for row in rows:
        for col in order:
            if row >> col & 1:
                if col not in basis:
                    basis[col] = row
                    break
                row ^= basis[col]
    return len(basis)


# -- the Schreier-Sims oracle of the searched groups ---------------------

Perm = Tuple[int, ...]


def identity(degree: int) -> Perm:
    return tuple(range(degree))


def compose(p: Perm, q: Perm) -> Perm:
    """(p * q)(x) = p(q(x))."""
    return tuple(p[x] for x in q)


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def check_perm(p: Sequence[int], degree: int) -> Perm:
    p = tuple(p)
    if len(p) != degree or set(p) != set(range(degree)):
        raise ValueError("not a permutation of 0..degree-1")
    return p


class PermGroup:
    """Permutation group with a Schreier-Sims stabilizer chain."""

    def __init__(self, degree: int, generators: Sequence[Sequence[int]] = ()):
        self.degree = degree
        self._id = identity(degree)
        self.base: List[int] = []
        self._chain_gens: List[List[Perm]] = []
        self._transversals: List[Dict[int, Perm]] = []
        self.generators: List[Perm] = []
        for g in generators:
            self.add_generator(g)

    def add_generator(self, g: Sequence[int]):
        g = check_perm(g, self.degree)
        if g == self._id or self.contains(g):
            return
        self.generators.append(g)
        self._insert(g, 0)

    def _insert(self, g: Perm, level: int):
        if level == len(self.base):
            b = min(x for x in range(self.degree) if g[x] != x)
            self.base.append(b)
            self._chain_gens.append([])
            self._transversals.append({b: self._id})
        self._chain_gens[level].append(g)
        self._recompute(level)

    def _recompute(self, level: int):
        b = self.base[level]
        gens = self._chain_gens[level]
        trans: Dict[int, Perm] = {b: self._id}
        order_pts = [b]
        qi = 0
        while qi < len(order_pts):
            x = order_pts[qi]
            qi += 1
            for h in gens:
                y = h[x]
                if y not in trans:
                    trans[y] = compose(h, trans[x])
                    order_pts.append(y)
        self._transversals[level] = trans
        for x in order_pts:
            for h in gens:
                sg = compose(inverse(trans[h[x]]), compose(h, trans[x]))
                if sg != self._id and not self._contains_from(sg, level + 1):
                    self._insert(sg, level + 1)

    def _contains_from(self, p: Perm, level: int) -> bool:
        for i in range(level, len(self.base)):
            x = p[self.base[i]]
            rep = self._transversals[i].get(x)
            if rep is None:
                return False
            p = compose(inverse(rep), p)
        return p == self._id

    def contains(self, p: Sequence[int]) -> bool:
        return self._contains_from(check_perm(p, self.degree), 0)

    def order(self) -> int:
        n = 1
        for t in self._transversals:
            n *= len(t)
        return n

    def orbit(self, point: int) -> List[int]:
        return sorted(orbit(self.generators, point, operator.getitem))

    def orbits(self) -> List[List[int]]:
        remaining = set(range(self.degree))
        out = []
        while remaining:
            orb = self.orbit(min(remaining))
            out.append(orb)
            remaining -= set(orb)
        return out


def oracle_group(group) -> PermGroup:
    """The Schreier-Sims group of a searched group's generators."""
    return PermGroup(group.degree, group.generators)


# -- the tuple orbit search: the oracle of the row orbits ----------------


def _compose_function(g, f):
    return tuple(f[y] for y in g)


def orbit_of_function(group, values):
    """Orbit {f o theta : theta in group} of a point function, sorted: one
    tuple composition per generator per member."""
    start = tuple(values)
    if len(start) != group.degree:
        raise ValueError("function must be defined on all points")
    return sorted(orbit(group.generators, start, _compose_function))


# -- the depth-first enumeration: the oracle of all_valuations -----------


def brute_force_valuations(g):
    """Independent oracle: depth-first enumeration of all point functions
    with values in 0..diameter satisfying the per-line rule and min 0.

    Values of a min-0 valuation never exceed the diameter (stepping along
    a geodesic from a zero point changes the value by at most 1 per hop).
    The search always branches on the unassigned point with the most
    assigned line-mates, so completed lines prune early.
    """
    if not g.is_connected():
        raise ValueError("geometry must be connected")
    diam = g.diameter()
    n = g.num_points
    values = [None] * n
    out = []

    def line_ok(li):
        known = [values[p] for p in g.lines[li] if values[p] is not None]
        if len(known) < len(g.lines[li]):
            # partial: still satisfiable iff spread <= 1
            return max(known) - min(known) <= 1
        vals = sorted(known)
        return vals.count(vals[0]) == 1 and all(v == vals[0] + 1
                                                for v in vals[1:])

    def pick():
        best, best_score = -1, (-1, -1)
        for p in range(n):
            if values[p] is not None:
                continue
            assigned_mates = sum(
                1 for li in g.lines_through[p]
                for q in g.lines[li] if q != p and values[q] is not None)
            score = (assigned_mates, -p)
            if score > best_score:
                best, best_score = p, score
        return best

    def rec(assigned):
        if assigned == n:
            if 0 in values:
                out.append(tuple(values))
            return
        p = pick()
        for v in range(diam + 1):
            values[p] = v
            if all(line_ok(li) for li in g.lines_through[p]):
                rec(assigned + 1)
        values[p] = None

    rec(0)
    return sorted(out)


# -- the pair table: the oracle of Geometry's one-pass line check --------


def pair_table_incidence(num_points: int, lines: Iterable[Sequence[int]]
                         ) -> Tuple[tuple, tuple, tuple]:
    """The line masks, the lines through each point and the neighbour
    masks that Geometry(num_points, lines) builds, read off its canonical
    lines one point at a time; the lines are first checked in their
    canonical order with a table of every collinear pair, which raises
    the GeometryError that Geometry raises first."""
    canon = sorted({tuple(sorted(line)) for line in lines})
    seen_pairs: Dict[Tuple[int, int], Tuple[int, ...]] = {}
    for line in canon:
        if len(line) < 2:
            raise GeometryError(f"line {line} has fewer than 2 points")
        if len(set(line)) != len(line):
            raise GeometryError(f"duplicate point in line {line}")
        for p in line:
            if not 0 <= p < num_points:
                raise GeometryError(f"point {p} out of range")
        for i in range(len(line)):
            for j in range(i + 1, len(line)):
                pair = (line[i], line[j])
                if pair in seen_pairs:
                    raise GeometryError(
                        f"points {pair[0]},{pair[1]} lie on two lines: "
                        f"{seen_pairs[pair]} and {line}")
                seen_pairs[pair] = line
    masks = tuple(sum(1 << p for p in line) for line in canon)
    through = tuple(tuple(li for li, line in enumerate(canon) if p in line)
                    for p in range(num_points))
    neighbors = tuple(sum(1 << q for line in canon if p in line
                          for q in line if q != p)
                      for p in range(num_points))
    return masks, through, neighbors


# -- grids and the Lemma 3.1 check ---------------------------------------


def neighbour_sets(g):
    """The neighbours of each point, read from the lines, so an oracle
    does not depend on the masks it checks."""
    nbrs = [set() for _ in range(g.num_points)]
    for line in g.lines:
        for p in line:
            nbrs[p].update(q for q in line if q != p)
    return nbrs


def third_point(g, a, b):
    """Third point of the line through a and b (3-point lines only), or
    None when a and b are not collinear."""
    for li in g.lines_through[a]:
        if b in g.lines[li]:
            return next(p for p in g.lines[li] if p != a and p != b)
    return None


def complete_grid(g, p11, p12, p21, p22):
    """Try to extend a 4-cycle (rows p11-p12, p21-p22) to a full grid."""
    p13 = third_point(g, p11, p12)
    p23 = third_point(g, p21, p22)
    p31 = third_point(g, p11, p21)
    p32 = third_point(g, p12, p22)
    if g.dist[p13][p23] != 1 or g.dist[p31][p32] != 1:
        return None
    p33 = third_point(g, p13, p23)
    if p33 != third_point(g, p31, p32):
        return None
    pts = {p11, p12, p13, p21, p22, p23, p31, p32, p33}
    if len(pts) != 9:
        return None
    return frozenset(pts)


def enumerate_grids_oracle(g):
    """Oracle of enumerate_grids: every 4-cycle x, c_i, y, c_j on a
    distance-2 pair x < y and two of its common neighbours, completed
    through third_point and the distance matrix, as point masks ordered
    by their point lists. RuntimeError when a completion's points hold
    other than 6 lines."""
    for line in g.lines:
        if len(line) != 3:
            raise GeometryError("grid enumeration requires 3-point lines")
    nbrs = neighbour_sets(g)
    found = set()
    for x in range(g.num_points):
        for y in range(x + 1, g.num_points):
            if g.dist[x][y] != 2:
                continue
            common = sorted(nbrs[x] & nbrs[y])
            for i in range(len(common)):
                for j in range(i + 1, len(common)):
                    pts = complete_grid(g, x, common[i], common[j], y)
                    if pts is not None:
                        found.add(pts)
    grids = sorted(found, key=sorted)
    for pts in grids:
        inside = sum(1 for line in g.lines if pts.issuperset(line))
        if inside != 6:
            raise RuntimeError(f"points {sorted(pts)} contain {inside} "
                               f"lines, not the 6 of a 3x3 grid")
    return [sum(1 << p for p in pts) for pts in grids]


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


def check_lemma_3_1_oracle(vprime: ValuationGeometry,
                           host: Geometry) -> LemmaReport:
    """Oracle of check_lemma_3_1: the same checks, witnesses and errors
    on the restriction as a Geometry, whose constructor checks its
    lines, with int neighbour masks, the grids of
    enumerate_grids_oracle and one host distance lookup per pair."""
    if not len(vprime.vpoints):
        return LemmaReport(
            connected=True, collinear_zero_distance=True,
            grid_zero_distance=True, grids_per_point_16=False,
            triangle_free=True, witness=("no type-C valuations",))
    geo = Geometry(len(vprime.vpoints), vprime.vlines)
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
        raise GeometryError(f"Lemma 3.1 needs one zero point per "
                            f"valuation; point {off} of the restriction "
                            f"has {zero_counts[off]}")
    zero = zeros.argmax(axis=1).tolist() if zeros.size else []
    dist = [host.dist[z] for z in zero]
    collinear_ok = True
    for line in geo.lines:
        for a, b in combinations(line, 2):
            if dist[a][zero[b]] != 3:
                collinear_ok = False
                witness = witness or ("collinear", a, b)
    grids = enumerate_grids_oracle(geo)
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
    # a grid on p is completed once from each of its four opposite
    # corners, so 4 completions per distinct grid
    completions = [4 * count for count in grids_through]
    counts_ok = all(c == 16 for c in completions)
    tri = _has_triangle(geo)
    witness = witness or (("triangle",) + tri if tri else None)
    if witness is None and not connected:
        witness = ("disconnected", 0, geo.dist[0].index(-1))
    elif witness is None and not counts_ok:
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
