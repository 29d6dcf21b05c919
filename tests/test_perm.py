"""Automorphism groups and isomorphism search.

``PermGroup`` here is the oracle of the group the search returns: a
deterministic Schreier-Sims stabilizer chain (base points: smallest moved
point first) with exact order and membership, built from generators
alone.
"""
import itertools
import math
import operator
import random
import time
from typing import Dict, List, Sequence, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from hexval import perm
from hexval.constructions import (build_fano, build_h2, build_h2_dual,
                                  build_hexagon_2_1, grid_3x3)
from hexval.geometry import Geometry, dual
from hexval.perm import are_isomorphic, automorphism_group
from optimized import run_optimized
from test_valuations import orbit_of_function

Perm = Tuple[int, ...]


# -- the Schreier-Sims oracle --------------------------------------------


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
        return sorted(perm.orbit(self.generators, point, operator.getitem))

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


def brute_force_automorphisms(g):
    """All line-preserving point bijections, by checking every
    permutation (only viable for tiny geometries)."""
    line_set = set(g.lines)
    out = []
    for p in itertools.permutations(range(g.num_points)):
        if all(tuple(sorted(p[x] for x in line)) in line_set
               for line in g.lines):
            out.append(p)
    return out


def orbit_of_set(group, points):
    """Orbit of a point set under the group, in canonical sorted order."""
    return sorted(perm.orbit(group.generators, tuple(sorted(points)),
                             lambda g, s: tuple(sorted(g[x] for x in s))))


def set_stabilizer_order(group, points):
    """Orbit-stabilizer: |Aut| divided by the orbit length of the set."""
    orbit_len = len(orbit_of_set(group, points))
    assert group.order() % orbit_len == 0
    return group.order() // orbit_len


def enumerated_automorphism_group(g):
    """Oracle: walk every leaf of the refinement tree, as the search did
    before coset pruning, and keep each automorphism not yet generated.
    Returns the group and the number of leaves walked."""
    search = perm._IsoSearch(g, g)
    group = PermGroup(g.num_points)
    leaves = 0
    for mapping in search.leaves(search.root, 0):
        leaves += 1
        if not group.contains(mapping):
            group.add_generator(mapping)
    return group, leaves


def assert_same_group(pruned, oracle):
    """The searched group equals the oracle: one order, read off the
    search and off a stabilizer chain of its generators, and generators
    contained both ways."""
    chain = oracle_group(pruned)
    assert pruned.order() == chain.order() == oracle.order()
    assert all(oracle.contains(p) for p in pruned.generators)
    assert all(chain.contains(p) for p in oracle.generators)


def disjoint_lines(k):
    return Geometry(3 * k, [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(k)])


def wreath_group(k):
    """S_3 wr S_k on k disjoint lines of 3 points, from its textbook
    generators: a transposition and a 3-cycle on the first line, the swap
    of the first two lines and a cycle of all lines."""
    n = 3 * k
    gens = [(1, 0, 2) + tuple(range(3, n)), (1, 2, 0) + tuple(range(3, n))]
    if k > 1:
        gens.append((3, 4, 5, 0, 1, 2) + tuple(range(6, n)))
        gens.append(tuple(range(3, n)) + (0, 1, 2))
    return PermGroup(n, gens)


def relabeled(g, seed):
    relabel = random.Random(seed).sample(range(g.num_points), g.num_points)
    return Geometry(g.num_points,
                    [[relabel[p] for p in line] for line in g.lines])


@st.composite
def small_hosts(draw):
    """Partial linear spaces with 3-point lines on at most 9 points, every
    point on a line; lines sharing a pair with an earlier line are
    dropped."""
    n = draw(st.integers(3, 9))
    triples = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=3,
                                    max_size=3), min_size=1, max_size=12))
    lines, pairs = [], set()
    for t in triples:
        line = tuple(sorted(t))
        new_pairs = set(itertools.combinations(line, 2))
        if not new_pairs & pairs:
            pairs |= new_pairs
            lines.append(line)
    used = sorted({p for line in lines for p in line})
    index = {p: i for i, p in enumerate(used)}
    return Geometry(len(used), [[index[p] for p in line] for line in lines])


perm_strategy = st.permutations(list(range(6))).map(tuple)


class TestPermBasics:
    @given(perm_strategy, perm_strategy, perm_strategy)
    def test_compose_associative(self, p, q, r):
        assert compose(compose(p, q), r) == compose(p, compose(q, r))

    @given(perm_strategy)
    def test_inverse(self, p):
        assert compose(p, inverse(p)) == identity(6)
        assert compose(inverse(p), p) == identity(6)

    def test_check_perm_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            check_perm((0, 0, 2), 3)
        with pytest.raises(ValueError):
            check_perm((0, 1), 3)


class TestPermGroup:
    def test_symmetric_group_order(self):
        # S_5 from a transposition and a 5-cycle
        g = PermGroup(5, [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)])
        assert g.order() == 120

    def test_cyclic_group(self):
        g = PermGroup(6, [(1, 2, 3, 4, 5, 0)])
        assert g.order() == 6
        assert g.orbit(0) == [0, 1, 2, 3, 4, 5]

    def test_membership_matches_enumeration(self):
        rng = random.Random(0)
        gens = [tuple(rng.sample(range(5), 5)) for _ in range(2)]
        g = PermGroup(5, gens)
        elements = {identity(5)}
        frontier = [identity(5)]
        while frontier:
            x = frontier.pop()
            for h in gens:
                y = compose(h, x)
                if y not in elements:
                    elements.add(y)
                    frontier.append(y)
        assert g.order() == len(elements)
        for p in itertools.permutations(range(5)):
            assert g.contains(p) == (p in elements)

    def test_orbits_partition(self):
        g = PermGroup(6, [(1, 0, 2, 3, 4, 5), (0, 1, 2, 4, 5, 3)])
        orbits = g.orbits()
        assert sorted(p for orb in orbits for p in orb) == list(range(6))
        assert orbits == [[0, 1], [2], [3, 4, 5]]


class TestAutomorphisms:
    def test_fano_group_order_168(self, fano):
        group = automorphism_group(fano.geometry)
        assert group.order() == 168

    def test_fano_matches_brute_force(self, fano):
        group = automorphism_group(fano.geometry)
        brute = brute_force_automorphisms(fano.geometry)
        assert group.order() == len(brute)
        assert all(oracle_group(group).contains(p) for p in brute)

    def test_grid_group_order(self):
        # 3x3 grid: (S3 x S3) : 2
        group = automorphism_group(grid_3x3())
        assert group.order() == 72

    def test_triangle_group(self):
        g = Geometry(3, [(0, 1, 2)])
        assert automorphism_group(g).order() == 6

    def test_h21_group_order(self, h21):
        assert h21.aut_order == 336

    def test_hexagon_groups(self, h2, h2dual):
        assert h2.aut_order == 12096
        assert h2dual.aut_order == 12096


    def test_base_orbits_match_brute_force(self, fano):
        # orbit-stabilizer along the base, against every automorphism
        group = automorphism_group(fano.geometry)
        brute = brute_force_automorphisms(fano.geometry)
        assert len(group.base) == len(group.base_orbit_lengths)
        for k, b in enumerate(group.base):
            fixing = [p for p in brute
                      if all(p[x] == x for x in group.base[:k])]
            assert group.base_orbit_lengths[k] == len({p[b] for p in fixing})
        assert [p for p in brute if all(p[x] == x for x in group.base)] \
            == [identity(7)]


class TestDisjointLines:
    """k disjoint lines: Aut is S_3 wr S_k, of order 6^k k!. Building a
    stabilizer chain of its generators takes seconds at k = 13; the order
    comes off the search's base orbits instead."""

    @pytest.mark.parametrize("k", range(2, 7))
    def test_order_matches_oracles(self, k):
        group = automorphism_group(disjoint_lines(k))
        assert group.order() == 6 ** k * math.factorial(k)
        assert_same_group(group, wreath_group(k))

    def test_thirteen_lines_under_a_second(self):
        start = time.perf_counter()
        group = automorphism_group(disjoint_lines(13))
        elapsed = time.perf_counter() - start
        assert group.order() == 6 ** 13 * math.factorial(13)
        assert len(group.generators) == 38
        assert elapsed < 1.0


class TestPrunedSearch:
    """The coset-pruned automorphism_group against the full enumeration."""

    @pytest.mark.parametrize("name,build,order", [
        ("fano", build_fano, 168),
        ("grid3", grid_3x3, 72),
        ("grid3_dual", lambda: dual(grid_3x3()), 72),
        ("triangle", lambda: Geometry(3, [(0, 1, 2)]), 6),
        ("h21", build_hexagon_2_1, 336),
        ("two_lines", lambda: disjoint_lines(2), 72),
        ("three_lines", lambda: disjoint_lines(3), 1296),
        ("four_lines", lambda: disjoint_lines(4), 31104),
    ])
    def test_matches_enumeration(self, name, build, order):
        g = build()
        oracle, leaves = enumerated_automorphism_group(g)
        assert oracle.order() == leaves == order
        assert_same_group(automorphism_group(g), oracle)

    @pytest.mark.parametrize("build", [build_h2, build_h2_dual])
    def test_relabeled_hexagons(self, build):
        g = relabeled(build(), seed=11)
        group = automorphism_group(g)
        assert group.order() == 12096
        line_set = set(g.lines)
        for gen in group.generators:
            assert all(tuple(sorted(gen[x] for x in line)) in line_set
                       for line in g.lines)

    @settings(max_examples=40, deadline=None)
    @given(small_hosts())
    def test_random_hosts_match_enumeration(self, g):
        oracle, leaves = enumerated_automorphism_group(g)
        assert oracle.order() == leaves
        assert_same_group(automorphism_group(g), oracle)

    def test_line_check_raises(self, fano):
        g = fano.geometry
        swap = (1, 0) + tuple(range(2, 7))
        assert not oracle_group(automorphism_group(g)).contains(swap)
        with pytest.raises(RuntimeError, match="not a line"):
            perm._check_automorphism(g, swap)

    def test_line_check_survives_optimize(self):
        code = (
            "from hexval.constructions import build_fano\n"
            "from hexval.perm import _check_automorphism\n"
            "try:\n"
            "    _check_automorphism(build_fano(), (1, 0, 2, 3, 4, 5, 6))\n"
            "except RuntimeError:\n"
            "    print('raised')\n")
        assert run_optimized(code) == "raised\n"


class TestIsomorphism:
    def test_relabeled_geometry_isomorphic(self, fano):
        g = fano.geometry
        rng = random.Random(7)
        relabel = rng.sample(range(7), 7)
        h = Geometry(7, [[relabel[p] for p in line] for line in g.lines])
        mapping = are_isomorphic(g, h)
        assert mapping is not None
        line_set = set(h.lines)
        assert all(tuple(sorted(mapping[p] for p in line)) in line_set
                   for line in g.lines)

    def test_different_shapes_not_isomorphic(self, fano):
        assert are_isomorphic(fano.geometry, grid_3x3()) is None

    def test_grid_vs_triangle_pair(self):
        # same point and line counts, different structure
        g1 = grid_3x3()
        g2 = Geometry(9, [(0, 1, 2), (3, 4, 5), (6, 7, 8),
                          (0, 3, 6), (1, 4, 7), (2, 5, 8)])
        assert are_isomorphic(g1, g2) is not None  # same geometry really
        g3 = Geometry(9, [(0, 1, 2), (0, 3, 4), (0, 5, 6),
                          (1, 3, 5), (1, 4, 6), (2, 3, 6)])
        assert are_isomorphic(g1, g3) is None

    def test_hexagons_not_isomorphic(self, h2, h2dual):
        assert are_isomorphic(h2.geometry, h2dual.geometry) is None

    def test_hexagons_told_apart_without_search(self, monkeypatch, h2,
                                                h2dual):
        # h2 has 36 hyperplanes of 21 points (complements of weight 42),
        # h2dual has none
        dim, weights = perm._nullspace_weights(h2.geometry)
        assert dim == 14 and weights[42] == 36
        assert len(perm._nullspace_weights(h2dual.geometry)[1]) < 43

        def no_search(*args):
            raise AssertionError("isomorphism search started")

        monkeypatch.setattr(perm._IsoSearch, "leaves", no_search)
        assert are_isomorphic(h2.geometry, h2dual.geometry) is None

    @pytest.mark.parametrize("build", [build_h2, build_h2_dual])
    def test_relabeled_hexagon_isomorphic(self, build):
        g = build()
        assert are_isomorphic(relabeled(g, seed=3), g) is not None

    @settings(max_examples=40, deadline=None)
    @given(small_hosts(), small_hosts())
    def test_invariant_agrees_with_search(self, g1, g2):
        # the nullspace comparison only ever spares a search that would
        # find nothing
        for h in (g2, relabeled(g1, seed=1)):
            search = perm._IsoSearch(g1, h)
            found = search.root is not None and \
                next(search.leaves(search.root, 0), None) is not None
            assert (are_isomorphic(g1, h) is not None) == found


class TestActions:
    def test_orbit_of_set(self, fano):
        group = automorphism_group(fano.geometry)
        lines = orbit_of_set(group, fano.geometry.lines[0])
        assert lines == [tuple(sorted(l)) for l in
                         sorted(fano.geometry.lines)]

    def test_set_stabilizer_order(self, fano):
        group = automorphism_group(fano.geometry)
        # line stabilizer in PGL(3,2): order 168/7 = 24
        assert set_stabilizer_order(group, fano.geometry.lines[0]) == 24

    def test_orbit_of_function(self, fano):
        group = automorphism_group(fano.geometry)
        # indicator of a line: orbit has one function per line
        line = fano.geometry.lines[0]
        f = tuple(1 if p in line else 0 for p in range(7))
        assert len(orbit_of_function(group, f)) == 7

    def test_orbit_of_function_constant(self, fano):
        group = automorphism_group(fano.geometry)
        assert orbit_of_function(group, (5,) * 7) == [(5,) * 7]
