"""Permutation groups and isomorphism search."""
import itertools
import random

import pytest
from hypothesis import given, strategies as st

from hexval import perm
from hexval.constructions import grid_3x3
from hexval.geometry import Geometry
from hexval.perm import (PermGroup, are_isomorphic, automorphism_group,
                         compose, identity, inverse, orbit_of_function)


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
    return sorted(perm.orbit(group, tuple(sorted(points)),
                             lambda g, s: tuple(sorted(g[x] for x in s))))


def set_stabilizer_order(group, points):
    """Orbit-stabilizer: |Aut| divided by the orbit length of the set."""
    orbit_len = len(orbit_of_set(group, points))
    assert group.order() % orbit_len == 0
    return group.order() // orbit_len


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
            perm.check_perm((0, 0, 2), 3)
        with pytest.raises(ValueError):
            perm.check_perm((0, 1), 3)


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
        assert all(group.contains(p) for p in brute)

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
