"""Geometry core: construction, axiom checkers, duality, grids, ovoids,
bounds, induced valuations and the text format."""
import itertools
import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from hexval import geometry
from hexval.constructions import (build_fano, build_hexagon_2_1, grid_3x3)
from hexval.geometry import (Geometry, GeometryError, INF,
                             NearPolygonReport, check_generalized_hexagon,
                             check_near_polygon, dual, enumerate_grids,
                             find_ovoids, from_text, grid_masks,
                             near_hexagon_point_bound, order_of, to_text)
from hexval.perm import are_isomorphic
from hexval.pipeline import Bundle
from optimized import run_optimized
from test_valuations import connected_hosts


def neighbour_sets(g):
    """The neighbours of each point, read from the lines, so an oracle
    does not depend on the masks it checks."""
    nbrs = [set() for _ in range(g.num_points)]
    for line in g.lines:
        for p in line:
            nbrs[p].update(q for q in line if q != p)
    return nbrs


def common_neighbor_profile(g):
    """Histogram of common-neighbor counts over distance-2 point pairs."""
    nbrs = neighbour_sets(g)
    hist = Counter()
    for x in range(g.num_points):
        for y in range(x + 1, g.num_points):
            if g.dist[x][y] == 2:
                hist[len(nbrs[x] & nbrs[y])] += 1
    return hist


def third_point(g, a, b):
    """Third point of the line through a and b (3-point lines only), or
    None when a and b are not collinear."""
    for li in g.lines_through[a]:
        if b in g.lines[li]:
            return next(p for p in g.lines[li] if p != a and p != b)
    return None


def _complete_grid(g, p11, p12, p21, p22):
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
    through third_point and the distance matrix."""
    for line in g.lines:
        if len(line) != 3:
            raise GeometryError("grid enumeration requires 3-point lines")
    nbrs = neighbour_sets(g)
    found = {}
    for x in range(g.num_points):
        for y in range(x + 1, g.num_points):
            if g.dist[x][y] != 2:
                continue
            common = sorted(nbrs[x] & nbrs[y])
            for i in range(len(common)):
                for j in range(i + 1, len(common)):
                    pts = _complete_grid(g, x, common[i], common[j], y)
                    if pts is not None and pts not in found:
                        found[pts] = geometry._canonical_grid(g, pts)
    return [found[k] for k in sorted(found, key=sorted)]


def near_polygon_oracle(g):
    """Oracle of check_near_polygon: on a connected host, the first point
    x and line, x major, whose least distance from x is taken by more
    than one of its points, read off the distance matrix."""
    if not g.is_connected():
        return NearPolygonReport(False, INF)
    diam = g.diameter()
    for x in range(g.num_points):
        row = g.dist[x]
        for li, line in enumerate(g.lines):
            best = min(row[p] for p in line)
            if sum(1 for p in line if row[p] == best) != 1:
                return NearPolygonReport(False, diam, witness=(x, li))
    return NearPolygonReport(True, diam)


def distance_rows(g):
    """The distance row of every point from a BFS that writes each
    frontier point's distance, and the masks of the points at each
    distance rebuilt from those rows (-1: unreachable): the oracle of the
    one-walk Geometry.dist and distance_masks."""
    rows = []
    for start in range(g.num_points):
        row = [-1] * g.num_points
        reached = frontier = 1 << start
        d = 0
        while frontier:
            step = 0
            for q in range(g.num_points):
                if frontier >> q & 1:
                    row[q] = d
                    step |= g.neighbor_masks[q]
            frontier = step & ~reached
            reached |= frontier
            d += 1
        rows.append(row)
    masks = []
    for row in rows:
        by_dist = {}
        for y, d in enumerate(row):
            by_dist[d] = by_dist.get(d, 0) | 1 << y
        masks.append(by_dist)
    return rows, masks


def mask_points(masks):
    """The point sets of grid_masks' masks, in order."""
    return [frozenset(p for p in range(mask.bit_length()) if mask >> p & 1)
            for mask in masks]


def grid_points(grids):
    """The point sets of canonical grids, in order."""
    return [grid.points() for grid in grids]


def grids_or_error(search, g):
    """search(g), or RuntimeError when a point set it finds holds more
    lines than a grid."""
    try:
        return search(g)
    except RuntimeError:
        return RuntimeError


def grid_with_diagonal():
    """The 3x3 grid with its centre cell numbered 9, plus the line
    {1, 3, 4} through two opposite cells: from point 0, the cell of 1 and
    3 has the candidates 4 and 9, and only 9 completes the grid."""
    rename = {4: 9}
    lines = [tuple(rename.get(p, p) for p in line)
             for line in grid_3x3().lines]
    return Geometry(10, lines + [(1, 3, 4)])


def affine_plane_3():
    """AG(2, 3): the 3x3 grid plus its two classes of diagonals, so every
    two of its 9 points are collinear."""
    diagonals = [[3 * t + (t + k) % 3 for t in range(3)] for k in range(3)]
    anti = [[3 * t + (k - t) % 3 for t in range(3)] for k in range(3)]
    return Geometry(9, grid_3x3().lines + tuple(map(tuple, diagonals + anti)))


def add_random_lines(draw, n, lines, max_lines, sizes=(3, 3)):
    """The geometry on n points with the given lines and up to max_lines
    random lines more, of sizes[0] to sizes[1] points (3 by default); a
    line sharing a pair with an earlier one is dropped."""
    lines = list(lines)
    pairs = {pair for line in lines
             for pair in itertools.combinations(sorted(line), 2)}
    for t in draw(st.lists(st.sets(st.integers(0, n - 1), min_size=sizes[0],
                                   max_size=sizes[1]), max_size=max_lines)):
        new_pairs = set(itertools.combinations(sorted(t), 2))
        if not new_pairs & pairs:
            pairs |= new_pairs
            lines.append(tuple(t))
    return Geometry(n, lines)


@st.composite
def any_hosts(draw):
    """Partial linear spaces on 0 to 12 points with up to 8 lines of 3
    points, connected or not, isolated points included."""
    n = draw(st.integers(0, 12))
    return add_random_lines(draw, n, [], 8) if n >= 3 else Geometry(n, [])


@st.composite
def mixed_hosts(draw):
    """Partial linear spaces on 0 to 10 points with up to 12 lines of 2, 3
    or 4 points, connected or not."""
    n = draw(st.integers(0, 10))
    if n < 2:
        return Geometry(n, [])
    return add_random_lines(draw, n, [], 12, (2, min(4, n)))


@st.composite
def grid_hosts(draw):
    """The 3x3 grid on points 0..8, or two grids sharing the row
    {0, 1, 2}, plus random lines on up to 3 more points: triangles give
    cells several candidates, and lines inside a grid make its point set
    hold more than 6 lines."""
    lines = list(grid_3x3().lines)
    n = 9
    if draw(st.booleans()):
        lines += [(3 * i + 6, 3 * i + 7, 3 * i + 8) for i in (1, 2)]
        lines += [(j, 9 + j, 12 + j) for j in range(3)]
        n = 15
    return add_random_lines(draw, n + draw(st.integers(0, 3)), lines, 6)


def induced_valuation(ambient, sub_points, sub_lines, x):
    """Valuation y -> d(x, y) - d(x, sub_points) induced on a full
    isometrically embedded subgeometry; values in sub_points order."""
    sub_points = list(sub_points)
    index = {p: i for i, p in enumerate(sub_points)}
    relabeled = [[index[p] for p in line] for line in sub_lines]
    sub = Geometry(len(sub_points), relabeled)
    for i, p in enumerate(sub_points):
        for j, q in enumerate(sub_points):
            if sub.dist[i][j] != ambient.dist[p][q]:
                raise GeometryError(
                    f"not isometrically embedded: points {p},{q} have "
                    f"ambient distance {ambient.dist[p][q]} but internal "
                    f"distance {sub.dist[i][j]}")
    if any(ambient.dist[x][p] < 0 for p in sub_points):
        raise GeometryError(f"point {x} is not connected to the subgeometry")
    base = min(ambient.dist[x][p] for p in sub_points)
    values = [ambient.dist[x][p] - base for p in sub_points]
    for line in relabeled:
        vals = sorted(values[i] for i in line)
        if not (vals.count(vals[0]) == 1
                and all(v == vals[0] + 1 for v in vals[1:])):
            raise GeometryError(
                f"induced function is not a semi-valuation on line {line}")
    return values


class TestBuild:
    def test_single_line(self):
        g = geometry.build(3, [(0, 1, 2)])
        assert g.diameter() == 1
        assert g.lines == ((0, 1, 2),)

    def test_two_lines_through_pair_rejected(self):
        with pytest.raises(GeometryError, match="lie on two lines"):
            geometry.build(4, [(0, 1, 2), (0, 1, 3)])

    def test_point_out_of_range(self):
        with pytest.raises(GeometryError):
            geometry.build(3, [(0, 1, 3)])

    def test_canonical_line_order(self):
        g = geometry.build(5, [(4, 3, 2), (1, 0, 2)])
        assert g.lines == ((0, 1, 2), (2, 3, 4))

    def test_disconnected_distances_are_inf(self):
        # unreachable pairs carry the integer sentinel -1; the diameter
        # of a disconnected geometry is still INF
        g = geometry.build(6, [(0, 1, 2), (3, 4, 5)])
        assert g.dist[0][3] == -1
        assert all(type(d) is int for row in g.dist for d in row)
        assert not g.is_connected()
        assert g.diameter() == INF

    def test_empty_geometry(self):
        g = geometry.build(0, [])
        assert g.is_connected() and g.diameter() == 0

    def test_distances_computed_on_first_read(self):
        g = geometry.build(6, [(0, 1, 2), (3, 4, 5)])
        assert not g.is_connected()
        assert "dist" not in g.__dict__
        # the diameter reads the distances only on a connected geometry
        assert g.diameter() == INF
        assert g.dist[0][3] == -1 and "dist" in g.__dict__
        line = geometry.build(3, [(0, 1, 2)])
        assert line.diameter() == 1 and "dist" in line.__dict__

    @pytest.mark.parametrize("g", [
        geometry.build(0, []), geometry.build(1, []),
        geometry.build(7, [(0, 1, 2), (3, 4, 5)]), build_hexagon_2_1()],
        ids=["empty", "one-point", "disconnected", "h21"])
    def test_mask_connectivity_matches_distances(self, g):
        assert g.is_connected() == all(-1 not in row for row in g.dist)

    @settings(max_examples=60, deadline=None)
    @given(any_hosts())
    def test_mask_connectivity_on_random_hosts(self, g):
        connected = all(-1 not in row for row in g.dist)
        assert g.is_connected() == connected
        assert (g.diameter() == INF) == (not connected)

    @settings(max_examples=60, deadline=None)
    @given(any_hosts())
    def test_neighbor_masks_match_lines(self, g):
        assert list(g.neighbor_masks) == [sum(1 << q for q in nbrs)
                                          for nbrs in neighbour_sets(g)]

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(any_hosts(), mixed_hosts()))
    def test_distances_and_masks_from_one_walk(self, g):
        rows, masks = distance_rows(g)
        assert g.dist == rows and g.distance_masks == masks
        assert any(-1 in m for m in masks) == (not g.is_connected())

    def test_hexagon_distances_and_masks(self, h2, h2dual):
        for bundle in (h2, h2dual):
            g = Geometry(bundle.geometry.num_points, bundle.geometry.lines)
            # the masks first: both come from the same walk
            assert (g.distance_masks, g.dist) == distance_rows(g)[::-1]

    def test_negative_point_count_rejected(self):
        with pytest.raises(GeometryError, match="negative point count"):
            geometry.build(-3, [])

    def test_distance_matrix_against_floyd_warshall(self):
        two_lines = geometry.build(6, [(0, 1, 2), (3, 4, 5)])
        for g in (grid_3x3(), build_hexagon_2_1(), build_fano(), two_lines):
            n = g.num_points
            nbrs = neighbour_sets(g)
            fw = [[0 if i == j else (1 if j in nbrs[i] else math.inf)
                   for j in range(n)] for i in range(n)]
            for k in range(n):
                for i in range(n):
                    for j in range(n):
                        via = fw[i][k] + fw[k][j]
                        if via < fw[i][j]:
                            fw[i][j] = via
            expected = [[-1 if d == math.inf else d for d in row]
                        for row in fw]
            assert expected == [list(row) for row in g.dist]


class TestAxiomCheckers:
    def test_grid_is_near_polygon(self):
        rep = check_near_polygon(grid_3x3())
        assert rep.is_near_polygon and rep.diameter == 2

    def test_h2dual_is_near_hexagon(self, h2dual):
        rep = check_near_polygon(h2dual.geometry)
        assert rep.is_near_polygon and rep.diameter == 3

    def test_disconnected_is_not_near_polygon(self):
        g = geometry.build(6, [(0, 1, 2), (3, 4, 5)])
        assert not check_near_polygon(g).is_near_polygon

    def test_h2_is_generalized_hexagon(self, h2):
        assert check_generalized_hexagon(h2.geometry).is_generalized_hexagon

    def test_grid_is_not_generalized_hexagon(self):
        rep = check_generalized_hexagon(grid_3x3())
        assert not rep.is_generalized_hexagon
        assert "diameter" in rep.reason

    def test_common_neighbour_witness(self):
        # the 3x3x3 Hamming near hexagon: points (a, b, c) numbered
        # 9a + 3b + c, lines vary one coordinate; 0 and (0, 1, 1) have the
        # two common neighbours (0, 0, 1) and (0, 1, 0)
        lines = [[p + k * step for k in range(3)]
                 for step in (1, 3, 9) for p in range(27)
                 if p // step % 3 == 0]
        rep = check_generalized_hexagon(Geometry(27, lines))
        assert not rep.is_generalized_hexagon
        assert rep.reason == ("distance-2 pair without unique common "
                              "neighbor")
        assert rep.witness == (0, 4, [1, 3])

    def test_line_deletion_breaks_hexagon(self, h2):
        g = h2.geometry
        broken = Geometry(g.num_points, g.lines[1:])
        rep = check_near_polygon(broken)
        assert not rep.is_near_polygon
        assert rep.witness is not None

    def test_near_polygon_witness_identifies_bad_pair(self, h2):
        g = h2.geometry
        broken = Geometry(g.num_points, g.lines[1:])
        rep = check_near_polygon(broken)
        assert not rep.is_near_polygon
        x, li = rep.witness
        row = broken.dist[x]
        line = broken.lines[li]
        best = min(row[p] for p in line)
        assert sum(1 for p in line if row[p] == best) != 1


class TestNearPolygonOracle:
    @pytest.mark.parametrize("host", ["h2", "h2dual", "h2-less-a-line"])
    def test_hexagons(self, request, host):
        g = request.getfixturevalue(host.split("-")[0]).geometry
        if host.endswith("line"):
            g = Geometry(g.num_points, g.lines[1:])
        rep = check_near_polygon(g)
        assert rep == near_polygon_oracle(g)
        assert (rep.witness is None) == (host != "h2-less-a-line")

    @pytest.mark.parametrize("lines,passes", [
        # point 4 is collinear with 0 and 1 on the 4-point line
        ([(0, 1, 2, 3), (0, 4), (1, 4)], False),
        # a tree of lines of 4, 3 and 2 points
        ([(0, 1, 2, 3), (0, 4, 5), (0, 6)], True),
        # the pentagon: 0 is at distance 2 from both points of {2, 3}
        ([(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], False),
        # the hexagon of 2-point lines and one with a 3-point side
        ([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)], True),
        ([(0, 1, 6), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)], False)])
    def test_mixed_line_sizes(self, lines, passes):
        g = Geometry(1 + max(map(max, lines)), lines)
        rep = check_near_polygon(g)
        assert rep == near_polygon_oracle(g)
        assert rep.is_near_polygon == passes

    @pytest.mark.parametrize("n,lines", [
        (6, [(0, 1, 2), (3, 4, 5)]), (5, [(0, 1, 2, 3)]),
        (4, [(0, 1), (2, 3)]), (2, [])])
    def test_disconnected(self, n, lines):
        g = Geometry(n, lines)
        assert check_near_polygon(g) == near_polygon_oracle(g) == \
            NearPolygonReport(False, INF)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(any_hosts(), mixed_hosts(), connected_hosts()))
    def test_random_hosts(self, g):
        assert check_near_polygon(g) == near_polygon_oracle(g)


class TestOrderAndProfile:
    def test_h2_order(self, h2):
        assert order_of(h2.geometry) == geometry.OrderSpec(2, 2)

    def test_h21_order(self, h21):
        assert order_of(h21.geometry) == geometry.OrderSpec(2, 1)

    def test_single_line_degenerate_t(self):
        assert order_of(geometry.build(3, [(0, 1, 2)])) == \
            geometry.OrderSpec(2, None)

    def test_h2_common_neighbors_all_unique(self, h2):
        profile = common_neighbor_profile(h2.geometry)
        assert set(profile) == {1}

    def test_grid_common_neighbors(self):
        profile = common_neighbor_profile(grid_3x3())
        assert set(profile) == {2}

    def test_near_polygon_profile_support(self, h21):
        # valid near polygons with 3-point lines: support within {1,2,3,5}
        for g in (grid_3x3(), h21.geometry):
            assert set(common_neighbor_profile(g)) <= {1, 2, 3, 5}


class TestDual:
    def test_dual_of_h2(self, h2, h2dual):
        d = dual(h2.geometry)
        assert d.num_points == 63 and len(d.lines) == 63
        assert order_of(d) == geometry.OrderSpec(2, 2)
        assert are_isomorphic(d, h2dual.geometry) is not None

    def test_dual_involution(self, h21):
        for g in (grid_3x3(), h21.geometry):
            assert are_isomorphic(dual(dual(g)), g) is not None

    def test_dual_of_fano_double(self):
        double = Geometry(14, [(p, 7 + li)
                               for li, line in enumerate(build_fano().lines)
                               for p in line])
        d = dual(double)
        assert d.num_points == 21 and len(d.lines) == 14
        assert order_of(d) == geometry.OrderSpec(2, 1)


class TestGrids:
    def test_h2_has_no_grids(self, h2):
        assert enumerate_grids(h2.geometry) == []

    def test_grid3_has_one_grid(self):
        g = grid_3x3()
        grids = enumerate_grids(g)
        assert len(grids) == 1
        assert grids[0].points() == frozenset(range(9))

    def test_grid_cell_collinearity(self):
        g = grid_3x3()
        grid = enumerate_grids(g)[0]
        cells = grid.cells
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    for l in range(3):
                        a, b = cells[i][j], cells[k][l]
                        if a == b:
                            continue
                        collinear = g.dist[a][b] == 1
                        assert collinear == (i == k or j == l)

    def test_grid_lines_belong_to_host(self):
        g = grid_3x3()
        grid = enumerate_grids(g)[0]
        for li in grid.row_lines + grid.col_lines:
            assert set(g.lines[li]) <= grid.points()

    def test_grids_through_point(self):
        grids = enumerate_grids(grid_3x3())
        assert sum(0 in grid.points() for grid in grids) == 1

    def test_matches_oracle_on_known_geometries(self, h2, h2dual):
        vprime = h2dual.vprime().as_geometry()
        for g, count in ((grid_3x3(), 1), (h2.geometry, 0), (vprime, 112)):
            grids = enumerate_grids(g)
            assert grids == enumerate_grids_oracle(g)
            assert len(grids) == count
            assert mask_points(grid_masks(g)) == grid_points(grids)

    def test_several_common_neighbours_per_cell(self):
        g = grid_with_diagonal()
        assert g.neighbor_masks[1] & g.neighbor_masks[3] == 1 | 1 << 4 | 1 << 9
        grids = enumerate_grids(g)
        assert grids == enumerate_grids_oracle(g)
        assert grid_points(grids) == mask_points(grid_masks(g)) == [
            frozenset(range(10)) - {4}]

    def test_affine_plane_has_no_grid(self):
        g = affine_plane_3()
        assert enumerate_grids(g) == enumerate_grids_oracle(g) == []
        assert grid_masks(g) == []

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(connected_hosts(), grid_hosts()))
    def test_matches_oracle_on_random_hosts(self, g):
        grids = grids_or_error(enumerate_grids, g)
        assert grids == grids_or_error(enumerate_grids_oracle, g)
        masks = grids_or_error(grid_masks, g)
        if grids is RuntimeError:
            assert masks is RuntimeError
        else:
            assert mask_points(masks) == grid_points(grids)

    def test_grid_masks_raise_like_canonical_grids(self):
        # the 3x3 grid with two diagonals added: its 9 points hold 8 lines
        g = grid_3x3()
        extra = Geometry(9, g.lines + ((1, 5, 6), (2, 3, 7)))
        for search in (grid_masks, enumerate_grids, enumerate_grids_oracle):
            with pytest.raises(RuntimeError,
                               match="contain 8 lines, not the 6"):
                search(extra)

    @staticmethod
    def near_grid(g):
        """9 points: the 3 lines through point 0 and one more line through
        a neighbour of 0; they contain 4 lines, so they are no grid."""
        q = next(p for p in g.lines[g.lines_through[0][0]] if p != 0)
        other = next(li for li in g.lines_through[q]
                     if 0 not in g.lines[li])
        pts = {p for li in g.lines_through[0] for p in g.lines[li]}
        return frozenset(pts | set(g.lines[other]))

    def test_canonical_grid_rejects_non_grid(self, h2):
        pts = self.near_grid(h2.geometry)
        assert len(pts) == 9
        with pytest.raises(RuntimeError, match="contain 4 lines"):
            geometry._canonical_grid(h2.geometry, pts)

    def test_canonical_grid_check_survives_optimize(self, h2):
        pts = sorted(self.near_grid(h2.geometry))
        code = (
            "from hexval.constructions import build_h2\n"
            "from hexval.geometry import _canonical_grid\n"
            "try:\n"
            f"    _canonical_grid(build_h2(), frozenset({pts}))\n"
            "except RuntimeError:\n"
            "    print('raised')\n")
        assert run_optimized(code) == "raised\n"


class TestOvoids:
    def test_grid_ovoids_are_permutation_transversals(self):
        ovoids = find_ovoids(grid_3x3())
        assert len(ovoids) == 6
        for ovoid in ovoids:
            # one point per row and per column of the 3x3 grid
            assert sorted(p // 3 for p in ovoid) == [0, 1, 2]
            assert sorted(p % 3 for p in ovoid) == [0, 1, 2]

    def test_h2_has_36_ovoids(self, h2):
        ovoids = find_ovoids(h2.geometry)
        assert len(ovoids) == 36
        assert all(len(o) == 21 for o in ovoids)

    def test_h2dual_has_no_ovoids(self, h2dual):
        assert find_ovoids(h2dual.geometry) == []

    @pytest.mark.parametrize("host,count", [
        ("h2", 36), ("h2dual", 0), ("h21", 24), ("grid3", 6), ("fano", 0)])
    def test_bundle_ovoids_match_search(self, request, host, count):
        bundle = request.getfixturevalue(host)
        assert bundle.ovoids == find_ovoids(bundle.geometry)
        assert len(bundle.ovoids) == count

    @settings(max_examples=60, deadline=None)
    @given(connected_hosts())
    def test_bundle_ovoids_match_search_on_random_hosts(self, g):
        assert Bundle(g).ovoids == find_ovoids(g)

    @pytest.mark.parametrize("n,lines", [
        (6, [(0, 1, 2), (3, 4, 5)]), (4, [(0, 1, 2), (2, 3)]),
        (5, [(0, 1, 2, 3), (3, 4)])],
        ids=["disconnected", "two-point-line", "four-point-line"])
    def test_bundle_ovoids_error_like_valuations(self, n, lines):
        errors = []
        for stage in ("valuations", "ovoids"):
            with pytest.raises(ValueError) as info:
                getattr(Bundle(Geometry(n, lines)), stage)
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1]
        assert len(errors[0][1].splitlines()) == 1

    def test_every_ovoid_meets_every_line_once(self, h2):
        g = h2.geometry
        for ovoid in find_ovoids(g)[:5]:
            members = set(ovoid)
            for line in g.lines:
                assert len(members & set(line)) == 1


class TestBound:
    def test_known_values(self):
        assert near_hexagon_point_bound(2, 2) == 63
        assert near_hexagon_point_bound(2, 8) == 819
        assert near_hexagon_point_bound(1, 1) == 6

    def test_algebraic_identity(self):
        for s in range(1, 11):
            for t in range(1, 11):
                expanded = 1 + s * (t + 1) + s * s * t * (t + 1) \
                    + s ** 3 * t * t
                assert near_hexagon_point_bound(s, t) == expanded

    def test_rejects_degenerate_order(self):
        with pytest.raises(ValueError):
            near_hexagon_point_bound(0, 2)


class TestInducedValuation:
    def test_full_h2_gives_classical(self, h2):
        g = h2.geometry
        values = induced_valuation(g, range(63), g.lines, 0)
        assert sorted(values.count(i) for i in range(4)) == sorted(
            [1, 6, 24, 32])
        assert values == [int(d) for d in g.dist[0]]

    def test_single_line_in_grid(self):
        g = grid_3x3()
        line = g.lines[0]
        x = next(p for p in range(9) if p not in line)
        values = induced_valuation(g, line, [(0, 1, 2)], x)
        assert sorted(values) == [0, 1, 1]

    def test_grid_classical(self):
        g = grid_3x3()
        values = induced_valuation(g, range(9), g.lines, 4)
        assert sorted(values.count(i) for i in range(3)) == [1, 4, 4]

    def test_non_isometric_rejected(self, h2):
        g = h2.geometry
        # two points at distance 2 with no internal line: internal
        # distance infinite, ambient 2
        p, q = next((p, q) for p in range(63) for q in range(63)
                    if g.dist[p][q] == 2)
        with pytest.raises(GeometryError, match="isometrically"):
            induced_valuation(g, [p, q], [], p)


    def test_unreachable_point_rejected(self):
        g = geometry.build(6, [(0, 1, 2), (3, 4, 5)])
        with pytest.raises(GeometryError, match="not connected"):
            induced_valuation(g, [3, 4, 5], [(3, 4, 5)], 0)


class TestTextFormat:
    def test_roundtrip(self, h21):
        for g in (grid_3x3(), h21.geometry, build_fano()):
            again = from_text(to_text(g))
            assert again.num_points == g.num_points
            assert again.lines == g.lines

    def test_header_required(self):
        with pytest.raises(GeometryError, match="header"):
            from_text("0 1 2\n")

    def test_malformed_row(self):
        with pytest.raises(GeometryError):
            from_text("points 3\n0 x 2\n")

    def test_format_shape(self):
        text = to_text(geometry.build(3, [(2, 1, 0)]))
        assert text == "points 3\n0 1 2\n"
