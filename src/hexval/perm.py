"""Permutation groups on geometry points.

Permutations are image tuples (p maps point i to p[i]). PermGroup keeps a
deterministic Schreier-Sims stabilizer chain (base points: smallest moved
point first) supporting exact order and membership. Every orbit, of a
point, a point set or a point function, comes from ``orbit``, which takes
the action of a generator as a parameter.

Automorphism and isomorphism search runs a backtracking over points with
candidate sets refined by full distance profiles relative to the already
mapped points; complete maps are accepted only after an explicit
line-preservation check.
"""
from __future__ import annotations

import operator
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from .geometry import Geometry

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

    # -- chain construction ----------------------------------------------

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

    # -- queries -----------------------------------------------------------

    def contains(self, p: Sequence[int]) -> bool:
        return self._contains_from(check_perm(p, self.degree), 0)

    def order(self) -> int:
        n = 1
        for t in self._transversals:
            n *= len(t)
        return n

    def orbit(self, point: int) -> List[int]:
        return sorted(orbit(self, point, operator.getitem))

    def orbits(self) -> List[List[int]]:
        remaining = set(range(self.degree))
        out = []
        while remaining:
            orb = self.orbit(min(remaining))
            out.append(orb)
            remaining -= set(orb)
        return out


def orbit(group: PermGroup, start: Hashable,
          act: Callable[[Perm, Hashable], Hashable]) -> set:
    """Orbit of start under the group; act(g, x) is the image of x under
    the generator g. The search closes the set under the generators,
    which suffices because the group is finite."""
    seen = {start}
    queue = [start]
    while queue:
        x = queue.pop()
        for g in group.generators:
            y = act(g, x)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


def _compose_function(g: Perm, f: Tuple[int, ...]) -> Tuple[int, ...]:
    return tuple(f[y] for y in g)


def orbit_of_function(group: PermGroup,
                      values: Sequence[int]) -> List[Tuple[int, ...]]:
    """Orbit {f o theta : theta in group} of a point function, sorted."""
    start = tuple(values)
    if len(start) != group.degree:
        raise ValueError("function must be defined on all points")
    return sorted(orbit(group, start, _compose_function))


# -- isomorphism search --------------------------------------------------


def _distance_key(d) -> int:
    return -1 if d != d or d == float("inf") else int(d)


def _distance_masks(g: Geometry) -> List[Dict[int, int]]:
    masks: List[Dict[int, int]] = []
    for q in range(g.num_points):
        row: Dict[int, int] = {}
        for y, d in enumerate(g.dist[q]):
            key = _distance_key(d)
            row[key] = row.get(key, 0) | (1 << y)
        masks.append(row)
    return masks


def _point_profile(g: Geometry, p: int):
    hist: Dict[int, int] = {}
    for d in g.dist[p]:
        key = _distance_key(d)
        hist[key] = hist.get(key, 0) + 1
    sizes = sorted(len(g.lines[li]) for li in g.lines_through[p])
    return (tuple(sorted(hist.items())), tuple(sizes))


def _iso_search(g1: Geometry, g2: Geometry, first_only: bool):
    """Yield every point bijection g1 -> g2 sending lines to lines."""
    n = g1.num_points
    if n != g2.num_points or len(g1.lines) != len(g2.lines):
        return
    if sorted(map(len, g1.lines)) != sorted(map(len, g2.lines)):
        return
    dmask2 = _distance_masks(g2)
    profiles2: Dict[object, int] = {}
    for q in range(n):
        key = _point_profile(g2, q)
        profiles2[key] = profiles2.get(key, 0) | (1 << q)
    init = []
    for p in range(n):
        mask = profiles2.get(_point_profile(g1, p), 0)
        if not mask:
            return
        init.append(mask)
    line_set2 = set(g2.lines)
    dist1 = g1.dist
    found_first = False

    def verify(mapping: List[int]) -> bool:
        if len(set(mapping)) != n:
            return False
        for line in g1.lines:
            if tuple(sorted(mapping[p] for p in line)) not in line_set2:
                return False
        return True

    def assign(cand: List[int], assigned_mask: int, p: int, q: int):
        cand = cand[:]
        cand[p] = 1 << q
        clear = ~(1 << q)
        drow = dist1[p]
        dm = dmask2[q]
        for x in range(n):
            if x != p and not (assigned_mask >> x & 1):
                cand[x] &= dm.get(_distance_key(drow[x]), 0) & clear
        return cand

    def search(cand: List[int], assigned_mask: int):
        nonlocal found_first
        if found_first and first_only:
            return
        while True:
            branch_p, branch_count = -1, None
            all_singleton = True
            forced = -1
            for x in range(n):
                if assigned_mask >> x & 1:
                    continue
                c = cand[x].bit_count()
                if c == 0:
                    return
                if c == 1:
                    if forced < 0:
                        forced = x
                    continue
                all_singleton = False
                if branch_count is None or c < branch_count:
                    branch_p, branch_count = x, c
            if all_singleton:
                mapping = [c.bit_length() - 1 for c in cand]
                if verify(mapping):
                    found_first = True
                    yield tuple(mapping)
                return
            if forced >= 0:
                q = cand[forced].bit_length() - 1
                cand = assign(cand, assigned_mask, forced, q)
                assigned_mask |= 1 << forced
                continue
            bits = cand[branch_p]
            while bits:
                low = bits & -bits
                bits ^= low
                q = low.bit_length() - 1
                yield from search(assign(cand, assigned_mask, branch_p, q),
                                  assigned_mask | (1 << branch_p))
                if found_first and first_only:
                    return
            return

    if n == 0:
        yield ()
        return
    yield from search(init, 0)


def are_isomorphic(g1: Geometry, g2: Geometry) -> Optional[Perm]:
    """An incidence-preserving point bijection, or None if there is none."""
    for mapping in _iso_search(g1, g2, first_only=True):
        return mapping
    return None


def automorphism_group(g: Geometry) -> PermGroup:
    """Full automorphism group of g acting on points.

    The backtracking enumerates all automorphisms in a deterministic
    order; elements not yet generated are kept as generators.
    """
    group = PermGroup(g.num_points)
    for mapping in _iso_search(g, g, first_only=False):
        if not group.contains(mapping):
            group.add_generator(mapping)
    for gen in group.generators:
        assert _preserves_lines(g, gen)
    return group


def _preserves_lines(g: Geometry, p: Perm) -> bool:
    line_set = set(g.lines)
    return all(tuple(sorted(p[x] for x in line)) in line_set
               for line in g.lines)
