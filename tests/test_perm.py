"""Automorphism groups and isomorphism search.

``oracles.PermGroup`` is the oracle of the group the search returns: a
deterministic Schreier-Sims stabilizer chain (base points: smallest moved
point first) with exact order and membership, built from generators
alone.
"""
import itertools
import math
import random
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from hexval import perm
from hexval.constructions import (build_fano, build_h2, build_h2_dual,
                                  build_hexagon_2_1, grid_3x3)
from hexval.geometry import Geometry, dual
from hexval.perm import are_isomorphic, automorphism_group
from hosts import disjoint_lines, partial_linear_spaces, relabeled
from optimized import run_optimized
from oracles import (PermGroup, check_perm, compose, identity, inverse,
                     oracle_group, orbit, orbit_of_function)



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
    return sorted(orbit(group.generators, tuple(sorted(points)),
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


def recursive_leaves(search, cand, assigned):
    """Oracle: the leaves below a node by one recursion per branch level,
    as _IsoSearch.leaves walked them before its explicit stack."""
    node = search.settle(cand, assigned)
    if node is None:
        return
    cand, assigned, b = node
    if b < 0:
        mapping = tuple(c.bit_length() - 1 for c in cand)
        if search.verify(mapping):
            yield mapping
        return
    for q in range(search.n):
        if cand[b] >> q & 1:
            yield from recursive_leaves(
                search, *search.assign(cand, assigned, b, q))


def assert_same_group(pruned, oracle):
    """The searched group equals the oracle: one order, read off the
    search and off a stabilizer chain of its generators, and generators
    contained both ways."""
    chain = oracle_group(pruned)
    assert pruned.order() == chain.order() == oracle.order()
    assert all(oracle.contains(p) for p in pruned.generators)
    assert all(chain.contains(p) for p in oracle.generators)


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


perm_strategy = st.permutations(list(range(6))).map(tuple)
small_hosts = partial_linear_spaces(max_points=9, min_lines=1, max_lines=12)


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
        # the library's point orbit, against the generic one
        assert [sorted(perm.orbit(g.generators, orb[-1]))
                for orb in orbits] == orbits


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
    @given(small_hosts)
    def test_random_hosts_match_enumeration(self, g):
        oracle, leaves = enumerated_automorphism_group(g)
        assert oracle.order() == leaves
        assert_same_group(automorphism_group(g), oracle)

    @pytest.mark.parametrize("build", [
        build_fano, grid_3x3, build_hexagon_2_1, lambda: disjoint_lines(3),
        lambda: relabeled(build_hexagon_2_1(), seed=5)])
    def test_leaves_in_recursive_order(self, build):
        g = build()
        search = perm._IsoSearch(g, g)
        assert list(search.leaves(search.root, 0)) == list(
            recursive_leaves(search, search.root, 0))

    def test_deep_search_needs_no_recursion(self):
        # between isolated points every distance is -1, so each of the
        # 300 levels branches; the search may not use a frame per level
        g = Geometry(303, [(0, 1, 2)])
        search = perm._IsoSearch(g, g)
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 150)
        try:
            leaf = next(search.leaves(search.root, 0))
        finally:
            sys.setrecursionlimit(limit)
        assert sorted(leaf) == list(range(303)) and search.verify(leaf)

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
        h = relabeled(g, seed=7)
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
    @given(small_hosts, small_hosts)
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
