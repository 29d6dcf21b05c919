"""Neighboring valuations, the star operator, valuation geometries,
line-type tables and the subgeometry checks."""
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hexval import reference
from hexval.constructions import grid_3x3
from hexval.geometry import Geometry, dual
from hexval.perm import are_isomorphic, automorphism_group
from hexval.valgeom import (EQUAL, ValuationGeometry, _star_closed_lines,
                            are_neighboring, build_valuation_geometry,
                            check_lemma_3_1, extract_subgeometry,
                            line_type_table, restrict, star)
from hexval.valuations import (Valuation, brute_force_valuations,
                               classical_valuation, classify_valuations)


def scalar_lines_through(vals, i):
    """Oracle: the lines through row i of the sorted valuations, from a
    scalar are_neighboring/star scan over every partner of row i."""
    index = {v.values: k for k, v in enumerate(vals)}
    lines = set()
    for j in range(len(vals)):
        if j == i or are_neighboring(vals[i], vals[j]) is None:
            continue
        k = index.get(star(vals[i], vals[j]).values)
        if k is not None:
            lines.add(tuple(sorted((i, j, k))))
    return lines


def scalar_build(vals, type_labels):
    """Oracle: the valuation geometry from one scalar star per neighboring
    pair. Returns (sorted value vectors, sorted lines, line types)."""
    vals = sorted(vals, key=lambda v: v.values)
    vlines = sorted(set().union(*(scalar_lines_through(vals, i)
                                  for i in range(len(vals)))))
    line_types = ["".join(sorted(type_labels[vals[x].values] for x in line))
                  for line in vlines]
    return [v.values for v in vals], vlines, line_types


class TestNeighboring:
    def test_equal_valuations(self, h21):
        f = classical_valuation(h21.geometry, 0)
        assert are_neighboring(f, f) is EQUAL

    def test_collinear_classical_neighboring(self, h21):
        g = h21.geometry
        a, b = g.lines[0][:2]
        eps = are_neighboring(classical_valuation(g, a),
                              classical_valuation(g, b))
        assert eps in (-1, 0, 1)

    def test_far_classical_not_neighboring(self, h2):
        g = h2.geometry
        a = 0
        b = next(q for q in range(63) if g.dist[a][q] == 3)
        assert are_neighboring(classical_valuation(g, a),
                               classical_valuation(g, b)) is None

    def test_host_mismatch(self, h2, h21):
        with pytest.raises(ValueError):
            are_neighboring(classical_valuation(h2.geometry, 0),
                            classical_valuation(h21.geometry, 0))


class TestStar:
    def test_collinear_classical_gives_third_point(self, h21):
        g = h21.geometry
        a, b, c = g.lines[0]
        f3 = star(classical_valuation(g, a), classical_valuation(g, b))
        assert f3.values == classical_valuation(g, c).values

    def test_star_self(self, h21):
        f = classical_valuation(h21.geometry, 0)
        assert star(f, f).values == f.values

    def test_star_rejects_non_neighboring(self, h2):
        g = h2.geometry
        b = next(q for q in range(63) if g.dist[0][q] == 3)
        with pytest.raises(ValueError):
            star(classical_valuation(g, 0), classical_valuation(g, b))

    def test_star_rejects_non_valuation(self, h21):
        g = h21.geometry
        f = classical_valuation(g, 0)
        values = list(f.values)
        values[1] += 1
        values[2] -= 1
        with pytest.raises(ValueError, match="second argument"):
            star(f, Valuation(g, tuple(values)))

    def test_star_input_check_survives_optimize(self):
        # under -O asserts are stripped; the input check must still raise
        code = (
            "from hexval import build_hexagon_2_1, classical_valuation, star\n"
            "from hexval.valuations import Valuation\n"
            "g = build_hexagon_2_1()\n"
            "f = classical_valuation(g, 0)\n"
            "v = list(f.values); v[1] += 1; v[2] -= 1\n"
            "try:\n"
            "    star(f, Valuation(g, tuple(v)))\n"
            "except ValueError:\n"
            "    print('ValueError')\n")
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-O", "-c", code],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "ValueError\n"

    def test_star_algebra_on_all_h21_lines(self, h21):
        # (i) symmetry (ii)(iii) each pair recovers the third member
        vg = build_valuation_geometry(h21.geometry, h21.valuations,
                                      h21.type_labels)
        for i, j, k in vg.vlines:
            fi, fj, fk = (vg.vpoints[x] for x in (i, j, k))
            assert star(fi, fj).values == star(fj, fi).values == fk.values
            assert star(fi, fk).values == fj.values
            assert star(fj, fk).values == fi.values
            assert len({fi.values, fj.values, fk.values}) == 3


class TestValuationGeometry:
    def test_empty_input(self, h21):
        vg = build_valuation_geometry(h21.geometry, [])
        assert vg.vpoints == [] and vg.vlines == []

    def test_duplicates_rejected(self, h21):
        f = classical_valuation(h21.geometry, 0)
        with pytest.raises(ValueError):
            build_valuation_geometry(h21.geometry, [f, f])

    def test_h2dual_line_counts(self, h2dual):
        vg = h2dual.valuation_geometry
        assert len(vg.vpoints) == 1575
        by_type = {}
        for ltype in vg.line_types:
            by_type[ltype] = by_type.get(ltype, 0) + 1
        # CCC-line count by double counting: 252 * 8 / 3
        assert by_type["CCC"] == 672
        assert by_type["AAA"] == 63

    def test_h2_aaa_count(self, h2):
        vg = h2.valuation_geometry
        assert sum(1 for t in vg.line_types if t == "AAA") == 63


class TestVectorisedBuild:
    @pytest.mark.parametrize("name", ["h21", "fano", "grid3"])
    def test_equals_scalar_oracle(self, request, name):
        bundle = request.getfixturevalue(name)
        vg = build_valuation_geometry(bundle.geometry, bundle.valuations,
                                      bundle.type_labels)
        points, vlines, line_types = scalar_build(bundle.valuations,
                                                  bundle.type_labels)
        assert [v.values for v in vg.vpoints] == points
        assert vg.vlines == vlines
        assert vg.line_types == line_types

    def test_dual_grid_fails_like_scalar_oracle(self):
        # with 2-point lines the star of a neighboring pair need not be a
        # valuation; both builds must stop there
        g = dual(grid_3x3())
        vals = [Valuation(g, v) for v in brute_force_valuations(g)]
        labels = classify_valuations(g, automorphism_group(g), vals)[1]
        with pytest.raises(RuntimeError, match="not a valuation"):
            scalar_build(vals, labels)
        with pytest.raises(RuntimeError, match="not a valuation"):
            build_valuation_geometry(g, vals, labels)

    @pytest.mark.parametrize("name", ["h2", "h2dual"])
    def test_sampled_rows_match_scalar_scan(self, request, name):
        vg = request.getfixturevalue(name).valuation_geometry
        through = {}
        for line in vg.vlines:
            for i in line:
                through.setdefault(i, set()).add(line)
        for i in random.Random(f"valgeom/{name}").sample(
                range(len(vg.vpoints)), 64):
            assert scalar_lines_through(vg.vpoints, i) == through[i]

    def test_several_epsilons_rejected(self):
        # on two disjoint lines the difference of these valuations is 0 on
        # one line and -1 on the other, so eps = 0 and eps = 1 both fit
        g = Geometry(6, [(0, 1, 2), (3, 4, 5)])
        f1 = Valuation(g, (0, 1, 1, 0, 1, 1))
        f2 = Valuation(g, (0, 1, 1, 1, 2, 2))
        with pytest.raises(ValueError, match="more than one epsilon"):
            build_valuation_geometry(g, [f1, f2])
        with pytest.raises(ValueError, match="not unique"):
            are_neighboring(f1, f2)

    def test_line_found_by_fewer_than_three_pairs_rejected(self):
        # keys (a * n + b) * n + c of sorted triples, n = 4: the line
        # (0, 1, 2) found by two of its pairs is not star-closed
        key = (0 * 4 + 1) * 4 + 2
        with pytest.raises(RuntimeError, match="only 2 of its three"):
            _star_closed_lines(np.array([key, key]), 4)
        with pytest.raises(RuntimeError, match="repeats a member"):
            _star_closed_lines(np.array([(1 * 4 + 1) * 4 + 2] * 3), 4)
        assert _star_closed_lines(np.array([key] * 3), 4).tolist() \
            == [[0, 1, 2]]

    def test_non_valuation_rejected(self, h21):
        g = h21.geometry
        values = list(classical_valuation(g, 0).values)
        values[1] += 1
        values[2] -= 1
        bad = Valuation(g, tuple(values))
        with pytest.raises(ValueError, match="not a valuation"):
            build_valuation_geometry(g, [h21.valuations[0], bad])


class TestLineTypeTable:
    def test_h2dual_matches_reference(self, h2dual):
        assert h2dual.line_table == reference.LINE_TABLE_H2DUAL

    def test_h2_matches_reference(self, h2):
        assert h2.line_table == reference.LINE_TABLE_H2

    def test_requires_type_labels(self, h21):
        vg = build_valuation_geometry(h21.geometry, h21.valuations)
        with pytest.raises(ValueError):
            line_type_table(vg)

    def test_double_counting_identities(self, h2, h2dual):
        # for line type T containing point type X with multiplicity m:
        # (#X-points * per-point count) / m is the number of T-lines,
        # independent of X
        for bundle, val_table in ((h2dual, reference.VALUATION_TABLE_H2DUAL),
                                  (h2, reference.VALUATION_TABLE_H2)):
            class_size = {row[0]: row[1] for row in val_table}
            labels = sorted(class_size, key=len, reverse=True)
            for ltype, counts in bundle.line_table.items():
                totals = set()
                rest = ltype
                mult = {}
                while rest:
                    label = next(l for l in labels if rest.startswith(l))
                    mult[label] = mult.get(label, 0) + 1
                    rest = rest[len(label):]
                for ptype, per_point in counts.items():
                    m = mult[ptype]
                    assert (class_size[ptype] * per_point) % m == 0
                    totals.add(class_size[ptype] * per_point // m)
                assert len(totals) == 1


class TestRestriction:
    def test_vprime_shape(self, h2dual):
        vp = h2dual.vprime()
        assert len(vp.vpoints) == 252
        assert len(vp.vlines) == 672
        geo = vp.as_geometry()
        assert all(len(geo.lines_through[p]) == 8 for p in range(252))

    def test_extract_subgeometry_type_a(self, h2dual):
        # classical valuations with AAA lines reproduce the host hexagon
        sub = extract_subgeometry(h2dual.valuation_geometry, ["A"], ["AAA"])
        assert sub.num_points == 63 and len(sub.lines) == 63
        assert are_isomorphic(sub, h2dual.geometry) is not None

    def test_empty_restriction(self, h2dual):
        sub = restrict(h2dual.valuation_geometry, [], [])
        assert sub.vpoints == [] and sub.vlines == []


class TestSubgeometryChecks:
    def test_lemma_suite_passes(self, h2dual):
        rep = check_lemma_3_1(h2dual.vprime(), h2dual.geometry)
        assert rep.connected and rep.a
        assert rep.collinear_zero_distance and rep.b
        assert rep.grid_zero_distance and rep.c
        assert rep.grids_per_point_16 and rep.grids16
        assert rep.triangle_free
        assert rep.all_pass()
        assert rep.witness is None
        assert rep.total_grids == 112
        assert rep.grid_completions_per_point == 16

    def test_corrupted_line_detected(self, h2dual):
        vp = h2dual.vprime()
        # replace one line by a non-star triple of valuations whose zero
        # points are not pairwise at distance 3
        geo = vp.as_geometry()
        zeros = [v.zero_set()[0] for v in vp.vpoints]
        host = h2dual.geometry
        bad = next((i, j) for i in range(252) for j in range(i + 1, 252)
                   if host.dist[zeros[i]][zeros[j]] != 3)
        lines = list(vp.vlines)
        k = next(x for x in range(252)
                 if x not in bad and geo.dist[bad[0]][x] > 1
                 and geo.dist[bad[1]][x] > 1)
        lines[0] = tuple(sorted((bad[0], bad[1], k)))
        corrupted = ValuationGeometry(host, vp.vpoints, lines,
                                      vp.point_types, vp.line_types)
        rep = check_lemma_3_1(corrupted, host)
        assert not rep.collinear_zero_distance
        assert rep.witness is not None
