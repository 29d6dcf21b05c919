"""Concrete models: quadric/Grassmann H(2), its dual, Fano plane, the
order-(2,1) hexagon and the 3x3 grid."""
import pytest

from hexval import constructions
from hexval.constructions import (ConstructionError, build_h2,
                                  build_h2_dual, grid_3x3, quadric_form,
                                  singular_lines, singular_points)
from hexval.geometry import (Geometry, check_generalized_hexagon, dual,
                             order_of, to_text)
from hexval.perm import are_isomorphic


def grassmann(u, v, i, j):
    """The Grassmann coordinate p_ij = u_i*v_j + u_j*v_i of the line
    spanned by u and v, bit by bit."""
    return (u >> i & 1) & (v >> j & 1) ^ (u >> j & 1) & (v >> i & 1)


def hexagon_line_oracle(line):
    """Whether a singular line satisfies the six Grassmann identities of
    the hexagon, read coordinate by coordinate."""
    u, v = line[0], line[1]
    return all(grassmann(u, v, *a) == grassmann(u, v, *b)
               for a, b in constructions._HEXAGON_IDENTITIES)


class TestQuadricModel:
    def test_63_singular_points(self):
        pts = singular_points()
        assert len(pts) == 63
        assert all(quadric_form(v) == 0 for v in pts)
        assert len(set(pts)) == 63

    def test_315_singular_lines(self):
        pts = singular_points()
        lines = singular_lines(pts)
        assert len(lines) == 315
        # each of the 63 points lies on 15 singular lines
        counts = {p: 0 for p in pts}
        for line in lines:
            for p in line:
                counts[p] += 1
        assert all(c == 15 for c in counts.values())

    def test_line_closed_under_addition(self):
        for a, b, c in singular_lines(singular_points())[:20]:
            assert a ^ b == c

    def test_bilinear_matches_coordinate_formula(self):
        # x0*y4 + x4*y0 + x1*y5 + x5*y1 + x2*y6 + x6*y2 over GF(2)
        def coordinate(u, v):
            x = [u >> i & 1 for i in range(7)]
            y = [v >> i & 1 for i in range(7)]
            return sum(x[i] * y[i + 4] + x[i + 4] * y[i]
                       for i in range(3)) % 2

        assert all(constructions._bilinear(u, v) == coordinate(u, v)
                   for u in range(128) for v in range(128))

    def test_hexagon_line_filter_matches_coordinates(self):
        lines = singular_lines(singular_points())
        chosen = constructions._hexagon_line_filter(lines)
        assert chosen == [line for line in lines if hexagon_line_oracle(line)]
        assert len(lines) == 315 and len(chosen) == 63

    def test_hexagon_text_matches_coordinate_filter(self):
        # the hexagons, byte for byte, as built with the coordinate filter
        points = singular_points()
        index = {p: i for i, p in enumerate(points)}
        g = Geometry(63, [[index[p] for p in line]
                          for line in singular_lines(points)
                          if hexagon_line_oracle(line)])
        assert to_text(build_h2()) == to_text(g)
        assert to_text(build_h2_dual()) == to_text(dual(g))


class TestH2:
    def test_axioms(self, h2):
        g = h2.geometry
        assert g.num_points == 63 and len(g.lines) == 63
        assert check_generalized_hexagon(g).is_generalized_hexagon
        assert order_of(g).s == 2 and order_of(g).t == 2

    def test_distance_distribution(self, h2):
        g = h2.geometry
        for p in range(63):
            assert g.distance_distribution(p) == [1, 6, 24, 32]

    def test_three_lines_per_point(self, h2):
        g = h2.geometry
        assert all(len(g.lines_through[p]) == 3 for p in range(63))

    def test_deterministic(self):
        assert build_h2().lines == build_h2().lines


class TestH2Dual:
    def test_axioms(self, h2dual):
        g = h2dual.geometry
        assert g.num_points == 63 and len(g.lines) == 63
        assert check_generalized_hexagon(g).is_generalized_hexagon

    def test_is_dual_of_h2(self, h2, h2dual):
        assert are_isomorphic(dual(h2.geometry), h2dual.geometry) is not None

    def test_not_isomorphic_to_h2(self, h2, h2dual):
        assert are_isomorphic(h2.geometry, h2dual.geometry) is None


class TestFano:
    def test_shape(self, fano):
        g = fano.geometry
        assert g.num_points == 7 and len(g.lines) == 7
        assert all(len(g.lines_through[p]) == 3 for p in range(7))
        assert g.diameter() == 1

    def test_lines_are_xor_triples(self, fano):
        for a, b, c in fano.geometry.lines:
            assert (a + 1) ^ (b + 1) == c + 1


class TestH21:
    def test_axioms(self, h21):
        g = h21.geometry
        assert g.num_points == 21 and len(g.lines) == 14
        assert check_generalized_hexagon(g).is_generalized_hexagon
        assert order_of(g).s == 2 and order_of(g).t == 1

    def test_matches_dual_of_fano_double(self, h21, fano):
        double = Geometry(14, [(p, 7 + li)
                               for li, line in
                               enumerate(fano.geometry.lines)
                               for p in line])
        assert are_isomorphic(dual(double), h21.geometry) is not None


class TestGrid3x3:
    def test_shape(self):
        g = grid_3x3()
        assert g.num_points == 9 and len(g.lines) == 6
        assert order_of(g).s == 2 and order_of(g).t == 1
        assert g.diameter() == 2


class TestValidationGate:
    def test_corrupted_line_set_rejected(self, h2):
        g = h2.geometry
        bad = list(g.lines[:-1])
        with pytest.raises(ConstructionError):
            constructions._validate_hexagon(Geometry(63, bad), "corrupted")

    def test_corrupted_identities_rejected(self, monkeypatch):
        # without the last identity more singular lines pass the filter;
        # the dual build validates only the dual, which must still fail
        monkeypatch.setattr(constructions, "_HEXAGON_IDENTITIES",
                            constructions._HEXAGON_IDENTITIES[:-1])
        for build in (build_h2, build_h2_dual):
            with pytest.raises(ConstructionError):
                build()

    def test_dual_builds_h2_once(self, monkeypatch):
        calls = []
        real = constructions._validate_hexagon

        def counted(g, label):
            calls.append(label)
            return real(g, label)

        monkeypatch.setattr(constructions, "_validate_hexagon", counted)
        g = build_h2_dual()
        assert calls == ["H^D(2)"]
        assert g.name == "h2dual" and g.num_points == 63
