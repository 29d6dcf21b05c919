"""Automorphism groups and isomorphism search on geometry points.

Permutations are image tuples (p maps point i to p[i]). ``orbit`` closes
a point under the generators, as the automorphism search needs.

Automorphism and isomorphism search runs a backtracking over points with
candidate sets refined by full distance profiles relative to the already
mapped points; complete maps are accepted only after an explicit
line-preservation check on point masks. An isomorphism search stops at
its first leaf; before it starts, ``are_isomorphic`` compares the weight
distributions of the two incidence nullspaces, which no isomorphism
changes.
The automorphism search prunes by cosets: along the path of the identity
it looks, at each branch point, for one automorphism per image not yet in
the orbit of the generators found below, so it visits a few leaves per
base point instead of one leaf per automorphism. It returns an
``AutGroup``: the generators, the branch points as a base and the orbit
length of each; the group order is the product of those lengths, so no
stabilizer chain is built.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import gf2
from .geometry import Geometry, _bits, _distance_layers
from .hyperplanes import MAX_DIMENSION

Perm = Tuple[int, ...]


@dataclass(frozen=True)
class AutGroup:
    """An automorphism group as the coset-pruned search leaves it: its
    generators, the base points b_k of the identity path and the length
    of the orbit of each b_k under the stabilizer of b_0..b_{k-1}."""

    degree: int
    generators: Tuple[Perm, ...]
    base: Tuple[int, ...]
    base_orbit_lengths: Tuple[int, ...]

    def order(self) -> int:
        """|Aut|: by orbit-stabilizer, the product of the base orbit
        lengths, as the stabilizer of the whole base is trivial."""
        return math.prod(self.base_orbit_lengths)


def orbit(generators: Sequence[Perm], start: int) -> set:
    """Orbit of the point start under the group the generators generate.
    The search closes the set under the generators, which suffices
    because the group is finite."""
    seen = {start}
    queue = [start]
    while queue:
        x = queue.pop()
        for g in generators:
            y = g[x]
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


# -- isomorphism search --------------------------------------------------


def _point_profile(g: Geometry, p: int):
    """The sorted distance row of p (its distance histogram) and the
    sorted sizes of its lines."""
    sizes = sorted(len(g.lines[li]) for li in g.lines_through[p])
    return (tuple(sorted(g.dist[p])), tuple(sizes))


class _IsoSearch:
    """Backtracking over point bijections g1 -> g2 sending lines to lines.

    A node is a candidate list and an assigned mask: cand[x] is the
    bitmask of possible images of point x, and assigned marks the mapped
    points. Mapping p to q keeps, for every unmapped x, only the images
    at distance d(p, x) from q. ``root`` is None when a point profile of
    g1 (distance histogram, line sizes) has no match in g2.
    """

    def __init__(self, g1: Geometry, g2: Geometry):
        self.n = n = g1.num_points
        self.dist1 = g1.dist
        self.lines1 = g1.lines
        self.dist2 = g2.dist
        self.layers2: Dict[int, List[int]] = {}  # built on first assign
        self.line_masks2 = set(g2.line_masks)
        self.root: Optional[List[int]] = None
        if n != g2.num_points or \
                sorted(map(len, g1.lines)) != sorted(map(len, g2.lines)):
            return
        keys2 = [_point_profile(g2, q) for q in range(n)]
        keys1 = keys2 if g1 is g2 else [_point_profile(g1, p)
                                        for p in range(n)]
        profiles2: Dict[object, int] = {}
        for q, key in enumerate(keys2):
            profiles2[key] = profiles2.get(key, 0) | (1 << q)
        root = [profiles2.get(key, 0) for key in keys1]
        if all(root):
            self.root = root

    def verify(self, mapping: Perm) -> bool:
        return len(set(mapping)) == self.n and all(
            sum(1 << mapping[x] for x in line) in self.line_masks2
            for line in self.lines1)

    def assign(self, cand: List[int], assigned: int, p: int, q: int
               ) -> Tuple[List[int], int]:
        """The child node that maps p to q. A mapped point x keeps its
        image y: q is a candidate of p, so d(q, y) = d(p, x) and q != y."""
        layers = self.layers2.get(q)
        if layers is None:
            layers = self.layers2[q] = _distance_layers(self.dist2[q])
        clear = ~(1 << q)
        keep = [layer & clear for layer in layers]
        cand = [c & keep[d] for c, d in zip(cand, self.dist1[p])]
        cand[p] = 1 << q
        return cand, assigned | (1 << p)

    def settle(self, cand: List[int], assigned: int
               ) -> Optional[Tuple[List[int], int, int]]:
        """Map every unmapped point that has a single candidate, until none
        is left. Returns (cand, assigned, b) with b the unmapped point of
        fewest candidates (lowest index on ties), or b = -1 when every
        point has a single candidate; None when some point has none."""
        n = self.n
        while True:
            branch_p, branch_count = -1, n + 1
            forced = -1
            for x in range(n):
                if assigned >> x & 1:
                    continue
                c = cand[x].bit_count()
                if c == 0:
                    return None
                if c == 1:
                    if forced < 0:
                        forced = x
                elif c < branch_count:
                    branch_p, branch_count = x, c
            if branch_p < 0 or forced < 0:
                return cand, assigned, branch_p
            q = cand[forced].bit_length() - 1
            cand, assigned = self.assign(cand, assigned, forced, q)

    def leaves(self, cand: List[int], assigned: int) -> Iterator[Perm]:
        """Every verified bijection below a node, in a fixed order. The
        generator is lazy: taking only the first stops the search there.
        Each branch level is a lazy child iterator on a stack."""
        stack = [iter([(cand, assigned)])]
        while stack:
            child = next(stack[-1], None)
            if child is None:
                stack.pop()
                continue
            node = self.settle(*child)
            if node is None:
                continue
            cand, assigned, b = node
            if b >= 0:
                stack.append(map(partial(self.assign, cand, assigned, b),
                                 _bits(cand[b])))
                continue
            mapping = tuple(c.bit_length() - 1 for c in cand)
            if self.verify(mapping):
                yield mapping


def _nullspace_weights(g: Geometry) -> Tuple[int, Optional[Tuple[int, ...]]]:
    """The dimension of the GF(2) nullspace of the incidence matrix and,
    up to dimension MAX_DIMENSION, the number of its vectors of each
    weight (None above)."""
    basis = g.nullspace_basis
    if len(basis) > MAX_DIMENSION:
        return len(basis), None
    weights = np.bitwise_count(gf2.span_words(basis, g.num_points)).sum(
        axis=1, dtype=np.int64)
    return len(basis), tuple(np.bincount(weights).tolist())


def are_isomorphic(g1: Geometry, g2: Geometry) -> Optional[Perm]:
    """An incidence-preserving point bijection, or None if there is none.

    An isomorphism permutes the columns of the incidence matrix, so it
    maps the nullspace onto the nullspace and keeps weights: different
    nullspace dimensions or weight distributions prove there is none
    without a search.
    """
    search = _IsoSearch(g1, g2)
    if search.root is None or \
            _nullspace_weights(g1) != _nullspace_weights(g2):
        return None
    return next(search.leaves(search.root, 0), None)


def automorphism_group(g: Geometry) -> AutGroup:
    """Full automorphism group of g acting on points, by coset pruning.

    The search first follows the path of the identity, recording each
    branch node k with its branch point b_k; the b_k form a base. Going
    back up from the deepest node, generators found so far fix
    b_0..b_{k-1}, and they generate the stabilizer of b_0..b_k. At node k
    each candidate image q of b_k outside the orbit of b_k under them
    gets one search for the first verified automorphism mapping b_k to
    q; one leaf per coset of that stabilizer suffices, so the orbit of
    b_k under the group fixing b_0..b_{k-1} comes out exact. Every point
    has a single candidate below the deepest node, so only the identity
    fixes the whole base, and by orbit-stabilizer |Aut| is the product
    of the final orbit lengths (``AutGroup.order``). See Seress,
    Permutation Group Algorithms (2003), ch. 4, and McKay & Piperno,
    Practical graph isomorphism II (2014).
    """
    search = _IsoSearch(g, g)
    generators: List[Perm] = []
    path = []
    cand, assigned = search.root, 0
    while True:
        cand, assigned, b = search.settle(cand, assigned)
        if b < 0:
            break
        path.append((cand, assigned, b))
        cand, assigned = search.assign(cand, assigned, b, b)
    lengths = []
    for cand, assigned, b in reversed(path):
        orbit_b = orbit(generators, b)
        for q in _bits(cand[b]):
            if q in orbit_b:
                continue
            leaf = next(search.leaves(*search.assign(cand, assigned, b, q)),
                        None)
            if leaf is not None:
                generators.append(leaf)
                orbit_b = orbit(generators, b)
        lengths.append(len(orbit_b))
    for gen in generators:
        _check_automorphism(g, gen)
    return AutGroup(g.num_points, tuple(generators),
                    tuple(b for _, _, b in path), tuple(reversed(lengths)))


def _check_automorphism(g: Geometry, p: Perm) -> None:
    """Raise RuntimeError unless p maps every line of g onto a line."""
    masks = set(g.line_masks)
    for line in g.lines:
        image = sum(1 << p[x] for x in line)
        if image not in masks:
            raise RuntimeError(f"permutation {p} maps line {line} to "
                               f"{tuple(_bits(image))}, which is not a line")
