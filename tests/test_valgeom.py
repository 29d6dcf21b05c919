"""Neighboring valuations, the star operator, valuation geometries,
line-type tables and the subgeometry checks."""
import functools
import random
import re
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hexval import cli, pipeline, reference, valgeom
from hexval.constructions import build_h2_dual, build_hexagon_2_1, grid_3x3
from hexval.geometry import Geometry, dual, from_text
from hexval.perm import are_isomorphic, automorphism_group
from hexval.valgeom import (LemmaReport, ValuationGeometry,
                            _check_double_count, _count_distinct,
                            _star_closed_lines,
                            build_valuation_geometry, check_lemma_3_1,
                            class_line_table, line_type_table,
                            orbit_valuation_geometry, restrict)
from hexval.valuations import Valuation, Valuations, classify_valuations
from hosts import (EXAMPLE_HOST, LINELESS_VPRIME_HOST, RIGID_HOSTS, chain,
                   line_lists, partial_linear_spaces, relabeled,
                   triple_lists)
from optimized import run_optimized
from oracles import (EQUAL, are_neighboring, as_valuations,
                     brute_force_valuations, check_lemma_3_1_oracle,
                     classical_valuation, is_valid, star)

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS.parent / "perfbench" / "golden" / "report_all.json"


def extract_subgeometry(vg, point_types, line_types):
    """The restriction of vg to the given point and line types, as a
    plain geometry."""
    return restrict(vg, point_types, line_types).as_geometry()


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


def scalar_build(g, rows, point_types):
    """Oracle: the valuation geometry of value vectors with one type each,
    from one scalar star per neighboring pair. Returns (sorted value
    vectors, sorted lines, line types)."""
    typed = sorted(zip(map(tuple, np.asarray(rows).tolist()), point_types))
    vals = [Valuation(g, values) for values, _ in typed]
    vlines = sorted(set().union(*(scalar_lines_through(vals, i)
                                  for i in range(len(vals)))))
    line_types = ["".join(sorted(typed[x][1] for x in line))
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
        bad = Valuation(g, tuple(values))
        # validity is computed once per (host, values); later calls still
        # raise
        for _ in range(2):
            with pytest.raises(ValueError, match="second argument"):
                star(f, bad)
            with pytest.raises(ValueError, match="first argument"):
                star(bad, f)
        assert is_valid(f) and not is_valid(bad)

    def test_star_input_check_survives_optimize(self):
        # under -O asserts are stripped; the input check must still raise
        code = (
            "from hexval import build_hexagon_2_1\n"
            "from oracles import classical_valuation, star\n"
            "from hexval.valuations import Valuation\n"
            "g = build_hexagon_2_1()\n"
            "f = classical_valuation(g, 0)\n"
            "v = list(f.values); v[1] += 1; v[2] -= 1\n"
            "bad = Valuation(g, tuple(v))\n"
            "for pair in [(f, bad), (bad, f)] * 2:\n"
            "    try:\n"
            "        star(*pair)\n"
            "    except ValueError:\n"
            "        print('ValueError')\n")
        assert run_optimized(code) == "ValueError\n" * 4

    def test_star_algebra_on_all_h21_lines(self, h21):
        # (i) symmetry (ii)(iii) each pair recovers the third member
        vg = build_valuation_geometry(h21.geometry, h21.valuations,
                                      h21.type_labels)
        vals = as_valuations(vg.host, vg.vpoints)
        for i, j, k in vg.vlines:
            fi, fj, fk = (vals[x] for x in (i, j, k))
            assert star(fi, fj).values == star(fj, fi).values == fk.values
            assert star(fi, fk).values == fj.values
            assert star(fj, fk).values == fi.values
            assert len({fi.values, fj.values, fk.values}) == 3


class TestValuationGeometry:
    def test_empty_input(self, h21):
        vg = build_valuation_geometry(h21.geometry, [], [])
        assert vg.vpoints.shape == (0, 21) and vg.vlines == []

    def test_duplicates_rejected(self, h21):
        f = classical_valuation(h21.geometry, 0)
        with pytest.raises(ValueError):
            build_valuation_geometry(h21.geometry, [f.values, f.values],
                                     ["A", "A"])

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
        points, vlines, line_types = scalar_build(
            bundle.geometry, bundle.valuations, bundle.type_labels)
        assert vg.vpoints.dtype == np.int8
        assert list(map(tuple, vg.vpoints.tolist())) == points
        assert vg.vlines == vlines
        assert vg.line_types == line_types

    def test_dual_grid_fails_like_scalar_oracle(self):
        # with 2-point lines the star of a neighboring pair need not be a
        # valuation; both builds must stop there
        g = dual(grid_3x3())
        rows = brute_force_valuations(g)
        labels = classify_valuations(
            g, automorphism_group(g), Valuations(g, rows))[1]
        with pytest.raises(RuntimeError, match="not a valuation"):
            scalar_build(g, rows, labels)
        with pytest.raises(RuntimeError, match="not a valuation"):
            build_valuation_geometry(g, rows, labels)

    @pytest.mark.parametrize("name", ["h2", "h2dual"])
    def test_sampled_rows_match_scalar_scan(self, request, name):
        vg = request.getfixturevalue(name).valuation_geometry
        through = {}
        for line in vg.vlines:
            for i in line:
                through.setdefault(i, set()).add(line)
        vals = as_valuations(vg.host, vg.vpoints)
        for i in random.Random(f"valgeom/{name}").sample(
                range(len(vg.vpoints)), 64):
            assert scalar_lines_through(vals, i) == through[i]

    def test_several_epsilons_rejected(self):
        # on two disjoint lines the difference of these valuations is 0 on
        # one line and -1 on the other, so eps = 0 and eps = 1 both fit
        g = Geometry(6, [(0, 1, 2), (3, 4, 5)])
        f1 = Valuation(g, (0, 1, 1, 0, 1, 1))
        f2 = Valuation(g, (0, 1, 1, 1, 2, 2))
        with pytest.raises(ValueError, match="more than one epsilon"):
            build_valuation_geometry(g, [f1.values, f2.values], ["A", "A"])
        with pytest.raises(ValueError, match="more than one epsilon"):
            class_line_table(g, [f1.values, f2.values], ["A", "A"])
        with pytest.raises(ValueError, match="not unique"):
            are_neighboring(f1, f2)

    def test_line_found_by_fewer_than_three_pairs_rejected(self):
        # sorted triples, one per pair that found its line: the line
        # (0, 1, 2) found by two of its pairs is not star-closed
        line = [0, 1, 2]
        with pytest.raises(RuntimeError, match="only 2 of its three"):
            _star_closed_lines(np.array([line, line]))
        with pytest.raises(RuntimeError, match="repeats a member"):
            _star_closed_lines(np.array([[1, 1, 2]] * 3))
        assert _star_closed_lines(np.array([line] * 3)).tolist() \
            == [[0, 1, 2]]

    def test_line_keys_do_not_wrap(self):
        # members near 2^40: a key (a * n + b) * n + c packed into int64
        # wraps once n passes 2,097,151
        big = 1 << 40
        cols = np.array([[big + 1, big - 1, 7], [big - 1, big + 1, 7],
                         [big + 1, big - 1, 7], [big + 1, big - 1, 6]])
        rows, counts = _count_distinct(cols)
        assert rows.tolist() == [[big - 1, big + 1, 7],
                                 [big + 1, big - 1, 6],
                                 [big + 1, big - 1, 7]]
        assert counts.tolist() == [1, 1, 2]
        line, other = [big - 2, big - 1, big], [big - 2, big - 1, big + 1]
        assert _star_closed_lines(np.array([line] * 3 + [other] * 3)
                                  ).tolist() == [line, other]
        with pytest.raises(RuntimeError, match=f"line \\({big - 2}, "
                           f"{big - 1}, {big + 1}\\) is the star of only 2"):
            _star_closed_lines(np.array([line] * 3 + [other] * 2))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda width: st.lists(
        st.lists(st.integers(-(1 << 62), 1 << 62) | st.integers(0, 2),
                 min_size=width, max_size=width), max_size=12)))
    def test_count_distinct_against_counter(self, rows):
        width = len(rows[0]) if rows else 3
        found, counts = _count_distinct(
            np.array(rows, dtype=np.int64).reshape(len(rows), width))
        expected = sorted(Counter(map(tuple, rows)).items())
        assert list(zip(map(tuple, found.tolist()), counts.tolist())) \
            == expected

    def test_non_valuation_rejected(self, h21):
        g = h21.geometry
        values = list(classical_valuation(g, 0).values)
        values[1] += 1
        values[2] -= 1
        with pytest.raises(ValueError, match="not a valuation"):
            build_valuation_geometry(g, [h21.valuations[0], values],
                                     ["A", "A"])

    @pytest.mark.parametrize("build", [build_valuation_geometry,
                                       class_line_table])
    def test_empty_rows(self, h21, build):
        for rows in ([], np.empty((0, 21), dtype=np.int8)):
            result = build(h21.geometry, rows, [])
            if isinstance(result, ValuationGeometry):
                assert result.vpoints.shape == (0, 21)
                assert result.vlines == [] and result.line_types == []
            else:
                assert result == {}

    @pytest.mark.parametrize("build", [build_valuation_geometry,
                                       class_line_table])
    @pytest.mark.parametrize("case,message", [
        ("value 200", "must lie in 0..124"),
        ("negative", "must lie in 0..124"),
        ("short", "must have 21 entries"),
        ("flat", "must have 21 entries"),
        ("not a valuation", "not a valuation of the host"),
        ("duplicate", "duplicate valuations"),
        ("types", "1 point types for 2 value vectors")])
    def test_bad_rows_rejected(self, h21, build, case, message):
        g = h21.geometry
        first, second = h21.valuations[:2].tolist()
        bad = list(first)
        bad[1] += 1
        bad[2] -= 1
        high = list(first)
        # 200 read as int8 would wrap to -56
        high[0] = 200
        rows = {"value 200": [second, high],
                "negative": [second, [v - 1 for v in first]],
                "short": [first[:-1], second[:-1]],
                "flat": first,
                "not a valuation": [second, bad],
                "duplicate": [second, first, second],
                "types": [first, second]}[case]
        types = ["A"] if case == "types" else ["A"] * len(rows)
        with pytest.raises(ValueError, match=message) as exc:
            build(g, rows, types)
        assert "\n" not in str(exc.value)


class TestLineTypeTable:
    def test_h2dual_matches_reference(self, h2dual):
        assert h2dual.line_table == reference.LINE_TABLE_H2DUAL

    def test_h2_matches_reference(self, h2):
        assert h2.line_table == reference.LINE_TABLE_H2

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


def representative_table(bundle):
    """class_line_table of the bundle's valuations and orbit labels."""
    return class_line_table(bundle.geometry, bundle.valuations,
                            bundle.type_labels)


# Each mutant replaces one valgeom function by a faulty version; the
# checks of class_line_table must then raise RuntimeError.
EXACT_NEIGHBOR_STARS = valgeom._neighbor_stars
EXACT_STAR_ROWS = valgeom._star_rows
EXACT_DOUBLE_COUNT = valgeom._check_double_count


def drop_line_partner(vmat, line_index, rows=None):
    """_neighbor_stars without its first pair, so one line is found from
    only one of its other points."""
    dropped = False
    for i, j, k in EXACT_NEIGHBOR_STARS(vmat, line_index, rows):
        if len(i) and not dropped:
            i, j, k, dropped = i[1:], j[1:], k[1:], True
        yield i, j, k


def corrupt_line_star(first, second, eps):
    """_star_rows, with one value of the first star raised when
    class_line_table re-checks star(j, k) on its lines through
    _check_stars; the stars of _neighbor_stars, called from
    _lines_through, stay exact."""
    stars = EXACT_STAR_ROWS(first, second, eps)
    callers = (sys._getframe(1).f_code.co_name,
               sys._getframe(2).f_code.co_name)
    if callers == ("_check_stars", "class_line_table") and len(stars):
        stars[0, 0] += 1
    return stars


def star_to_member(vmat, line_index, rows=None):
    """_neighbor_stars with the first star it finds set to its own
    representative, so that line repeats a member."""
    changed = False
    for i, j, k in EXACT_NEIGHBOR_STARS(vmat, line_index, rows):
        if len(k) and not changed:
            k, changed = k.copy(), True
            k[0] = i[0]
        yield i, j, k


def miscount(table, sizes, members):
    """_check_double_count on the table with one count of a line type of
    two point types raised by 1."""
    ltype = next(t for t in sorted(table) if len(table[t]) > 1)
    ptype = sorted(table[ltype])[0]
    table[ltype][ptype] += 1
    return EXACT_DOUBLE_COUNT(table, sizes, members)


class TestClassLineTable:
    """class_line_table from representatives equals the line table of the
    full build, whose per-point constancy check it replaces."""

    @pytest.mark.parametrize("host", ["h2", "h2dual", "h21"])
    def test_matches_full_build(self, request, host):
        bundle = request.getfixturevalue(host)
        expected = line_type_table(bundle.valuation_geometry)
        assert representative_table(bundle) == expected
        assert bundle.line_table == expected

    def test_relabeled_hosts(self, h21):
        # relabeling reorders the rows, so other orbit members come first
        # and represent their point types
        for g in (relabeled(h21.geometry, seed=5),
                  relabeled(from_text(EXAMPLE_HOST), seed=3)):
            bundle = pipeline.Bundle(g)
            expected = line_type_table(bundle.valuation_geometry)
            assert representative_table(bundle) == expected
        # the example host has several max-1 orbits, C1, C2 and C3
        assert {"C1", "C2", "C3"} <= set().union(*expected.values())

    @settings(max_examples=40, deadline=None)
    @given(partial_linear_spaces(min_lines=1, connected=True))
    def test_random_hosts(self, g):
        bundle = pipeline.Bundle(g)
        expected = line_type_table(bundle.valuation_geometry)
        assert representative_table(bundle) == expected

    def test_block_boundaries(self, monkeypatch, h2):
        # one representative row per block of the scan
        monkeypatch.setattr(valgeom, "_BLOCK_ELEMENTS", 1)
        assert representative_table(h2) == reference.LINE_TABLE_H2

    def test_multiplicity_from_member_labels(self):
        # "B1B12B12".count("B1") is 3, but B1 is on the line once
        table = {"B1B12B12": {"B1": 2, "B12": 1}}
        _check_double_count(table, {"B1": 1, "B12": 4},
                            {"B1B12B12": ["B1", "B12", "B12"]})
        with pytest.raises(RuntimeError, match="not a multiple of 2"):
            _check_double_count(table, {"B1": 1, "B12": 3},
                                {"B1B12B12": ["B1", "B12", "B12"]})

    @pytest.mark.parametrize("target,mutant,message", [
        ("_neighbor_stars", "drop_line_partner", "not found twice"),
        ("_neighbor_stars", "star_to_member", "repeats a member"),
        ("_star_rows", "corrupt_line_star", "do not star to"),
        ("_check_double_count", "miscount", "double count of line type")])
    def test_checks_survive_optimize(self, target, mutant, message):
        assert message in run_optimized(
            f"import test_valgeom\n"
            f"from hexval import pipeline, valgeom\n"
            f"from hexval.constructions import build_hexagon_2_1\n"
            f"valgeom.{target} = test_valgeom.{mutant}\n"
            f"try:\n"
            f"    pipeline.Bundle(build_hexagon_2_1()).line_table\n"
            f"except RuntimeError as exc:\n"
            f"    print(exc)\n")


class TestReportPath:
    """The report reads the line table from representatives and the
    Lemma 3.1 input from the type-C rows, never the full geometry."""

    def test_report_builds_only_type_c_geometry(self, monkeypatch, capsys):
        sizes = []

        def counting(g, rows, point_types):
            sizes.append(len(rows))
            return build_valuation_geometry(g, rows, point_types)

        monkeypatch.setattr(pipeline, "build_valuation_geometry", counting)
        monkeypatch.setattr(pipeline, "_BUNDLES", {})
        assert cli.run(["report", "--all", "--format", "json"]) == 0
        assert capsys.readouterr().out == GOLDEN.read_text(encoding="utf-8")
        assert sizes == []

    @pytest.mark.parametrize("host,table", [
        ("h2dual", reference.LINE_TABLE_H2DUAL),
        ("h2", reference.LINE_TABLE_H2)])
    def test_bundle_without_full_build(self, monkeypatch, request, host,
                                       table):
        def at_most_252_rows(g, rows, point_types):
            if len(rows) > 252:
                raise AssertionError(f"full build on {len(rows)} rows")
            return build_valuation_geometry(g, rows, point_types)

        monkeypatch.setattr(pipeline, "build_valuation_geometry",
                            at_most_252_rows)
        bundle = pipeline.Bundle(request.getfixturevalue(host).geometry)
        assert bundle.line_table == table
        assert len(bundle.vprime().vpoints) == (252 if host == "h2dual"
                                                else 36)


class TestRestriction:
    def test_vprime_is_restriction(self, h2dual):
        vp = h2dual.vprime()
        full = restrict(h2dual.valuation_geometry, ("C",), ("CCC",))
        assert vp.host is full.host
        assert vp.vpoints.tolist() == full.vpoints.tolist()
        assert vp.vlines == full.vlines
        assert vp.point_types == full.point_types
        assert vp.line_types == full.line_types

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
        assert sub.vpoints.shape == (0, 63) and sub.vlines == []


#: the fixed hosts whose V' is compared with the full build and whose
#: Lemma 3.1 check is compared with the scalar oracle
TEST_HOSTS = {
    "grid3": grid_3x3, "chain1": lambda: chain(1), "chain3": lambda: chain(3),
    "example": lambda: from_text(EXAMPLE_HOST),
    "h2dual-relabeled": lambda: relabeled(build_h2_dual(), 3),
    "h21-relabeled": lambda: relabeled(build_hexagon_2_1(), 5),
    **{name: functools.partial(from_text, text)
       for name, text in RIGID_HOSTS.items()}}


def full_vprime(bundle):
    """Oracle: the Type-C/CCC restriction of the full valuation geometry."""
    vg = build_valuation_geometry(bundle.geometry, bundle.valuations,
                                  bundle.type_labels)
    return restrict(vg, ("C",), ("CCC",))


def assert_same_geometry(got, want):
    assert got.host is want.host
    assert got.vpoints.tolist() == want.vpoints.tolist()
    assert got.vlines == want.vlines
    assert got.point_types == want.point_types
    assert got.line_types == want.line_types


def drop_first_line(vmat, line_index, rows=None):
    """_neighbor_stars without the first line it finds, from either of
    the line's other members."""
    i, j, k = map(np.concatenate,
                  zip(*EXACT_NEIGHBOR_STARS(vmat, line_index, rows)))
    keep = (np.minimum(j, k) != min(j[0], k[0])) | (
        np.maximum(j, k) != max(j[0], k[0]))
    yield i[keep], j[keep], k[keep]


def misplace_third_member(vmat, line_index, rows=None):
    """_neighbor_stars with the first line {i, a, b} it finds turned into
    {i, a, c}, c a member of another line through i, from both a and c."""
    i, j, k = map(np.concatenate,
                  zip(*EXACT_NEIGHBOR_STARS(vmat, line_index, rows)))
    a, b = j[0], k[0]
    c = next(x for x in j.tolist() if x not in (a, b))
    k[(j == a) & (k == b)] = c
    j[(j == b) & (k == a)] = c
    yield i, j, k


#: each fault of orbit_valuation_geometry's input: the host, the
#: _neighbor_stars mutant it needs, if any, and the error it must raise
ORBIT_FAULTS = {
    "foreign generator": ("h2dual", None, "outside the given rows"),
    "two orbits": ("h2dual", None, "not in the orbit of valuation 0"),
    # the 63 AAA lines of H(2) miss row 0, a type-C row, so only the
    # walk from row 0 can find the second orbit
    "two orbits, no line through row 0": (
        "h2", None, "valuation 12 (in sorted order) is not in the orbit "
                    "of valuation 0"),
    "dropped line": ("h2dual", "drop_first_line", "of its three members"),
    "wrong third member": ("h2dual", "misplace_third_member",
                           "do not star to"),
    "star to a member": ("h2dual", "star_to_member", "repeats a member"),
}


def faulty_orbit_geometry(bundle, fault):
    """orbit_valuation_geometry on the bundle's type-C rows, with the
    first generator swapping points 0 and 1 for a foreign generator and
    the type-A rows added for two orbits."""
    generators = list(bundle.aut_group.generators)
    if fault == "foreign generator":
        generators[0] = (1, 0, *range(2, bundle.geometry.num_points))
    labels = ("A", "C") if fault.startswith("two orbits") else ("C",)
    keep = [i for i, label in enumerate(bundle.type_labels)
            if label in labels]
    return orbit_valuation_geometry(
        bundle.geometry, bundle.valuations[keep],
        [bundle.type_labels[i] for i in keep], generators)


class TestOrbitValuationGeometry:
    """vprime() carries the lines through one type-C valuation to every
    other by the group; the full all-pairs build restricted to C/CCC is
    its oracle."""

    # TestRestriction compares H^D(2)
    @pytest.mark.parametrize("host,points,lines", [
        ("h2", 36, 0), ("h21", 24, 8)])
    def test_matches_full_build(self, request, host, points, lines):
        bundle = request.getfixturevalue(host)
        vp = bundle.vprime()
        assert (len(vp.vpoints), len(vp.vlines)) == (points, lines)
        assert_same_geometry(vp, restrict(bundle.valuation_geometry,
                                          ("C",), ("CCC",)))

    @pytest.mark.parametrize("host", TEST_HOSTS)
    def test_matches_full_build_on_test_hosts(self, host):
        bundle = pipeline.Bundle(TEST_HOSTS[host]())
        assert_same_geometry(bundle.vprime(), full_vprime(bundle))

    @pytest.mark.parametrize("host", RIGID_HOSTS)
    def test_rigid_hosts_carry_type_c(self, host):
        # no automorphism but the identity, so the walk from row 0 has no
        # generator to follow: the one type-C valuation is its own orbit
        bundle = pipeline.Bundle(from_text(RIGID_HOSTS[host]))
        assert bundle.aut_order == 1
        assert bundle.type_labels.count("C") == 1
        assert len(bundle.vprime().vpoints) == 1

    @settings(max_examples=60, deadline=None)
    @given(partial_linear_spaces(max_points=10, max_lines=8,
                                 connected=True))
    def test_matches_full_build_on_random_hosts(self, g):
        bundle = pipeline.Bundle(g)
        assert_same_geometry(bundle.vprime(), full_vprime(bundle))

    def test_no_type_c_runs_no_kernel(self, monkeypatch, fano):
        calls = Counter()

        def counted(name):
            exact = getattr(valgeom, name)

            def counting(*args):
                calls[name] += 1
                return exact(*args)
            return counting

        for name in ("_checked_rows", "_neighbor_stars", "grid_rows"):
            monkeypatch.setattr(valgeom, name, counted(name))
        assert "C" not in fano.type_labels
        vp = fano.vprime()
        assert vp.vpoints.shape == (0, 7) and vp.vlines == []
        assert check_lemma_3_1(vp, fano.geometry) == LemmaReport(
            connected=True, collinear_zero_distance=True,
            grid_zero_distance=True, grids_per_point_16=False,
            triangle_free=True, total_grids=0,
            grid_completions_per_point=None,
            witness=("no type-C valuations",))
        assert calls == Counter()

    @pytest.mark.parametrize("fault", ORBIT_FAULTS)
    def test_fault_detected(self, monkeypatch, request, fault):
        host, mutant, message = ORBIT_FAULTS[fault]
        bundle = request.getfixturevalue(host)
        if mutant:
            monkeypatch.setattr(valgeom, "_neighbor_stars", globals()[mutant])
        with pytest.raises(RuntimeError, match=re.escape(message)):
            faulty_orbit_geometry(bundle, fault)

    @pytest.mark.parametrize("fault", ORBIT_FAULTS)
    def test_fault_detected_under_optimize(self, fault):
        host, mutant, message = ORBIT_FAULTS[fault]
        assert message in run_optimized(
            f"import test_valgeom\n"
            f"from hexval import valgeom\n"
            f"from hexval.pipeline import get_bundle\n"
            f"if {mutant!r}:\n"
            f"    valgeom._neighbor_stars = getattr(test_valgeom,\n"
            f"                                      {mutant!r})\n"
            f"try:\n"
            f"    test_valgeom.faulty_orbit_geometry(get_bundle({host!r}),\n"
            f"                                       {fault!r})\n"
            f"except RuntimeError as exc:\n"
            f"    print(exc)\n")


def with_lines(vp, lines):
    """The restriction vp with its lines replaced."""
    lines = list(lines)
    return ValuationGeometry(vp.host, vp.vpoints, lines, vp.point_types,
                             ["CCC"] * len(lines))


def line_through_far_pair(vp):
    """vp with its first line replaced by a non-star triple of valuations
    whose first two zero points are not at distance 3."""
    geo = vp.as_geometry()
    zeros = [row.index(0) for row in vp.vpoints.tolist()]
    host = vp.host
    bad = next((i, j) for i in range(252) for j in range(i + 1, 252)
               if host.dist[zeros[i]][zeros[j]] != 3)
    lines = list(vp.vlines)
    k = next(x for x in range(252)
             if x not in bad and geo.dist[bad[0]][x] > 1
             and geo.dist[bad[1]][x] > 1)
    lines[0] = tuple(sorted((bad[0], bad[1], k)))
    return with_lines(vp, lines)


def classical_grid(host):
    """A 3x3 grid restriction on host whose cell (i, j) is the classical
    valuation at the ((i + j) mod 3)-th of three pairwise opposite points:
    collinear cells have opposite zero points, but cells 0 and 5 share
    theirs."""
    centers = []
    for p in range(host.num_points):
        if all(host.dist[p][q] == 3 for q in centers):
            centers.append(p)
    vals = [classical_valuation(host, centers[(i + j) % 3]).values
            for i in range(3) for j in range(3)]
    return ValuationGeometry(host, np.array(vals, dtype=np.int8),
                             grid_3x3().lines, ["C"] * 9, ["CCC"] * 6)


def corrupted_restriction(bundle, case):
    """A restriction on the bundle's host that breaks one Lemma 3.1
    check; all but the grid case alter the bundle's vprime()."""
    if case == "grid":
        return classical_grid(bundle.geometry)
    vp = bundle.vprime()
    if case == "collinear":
        return line_through_far_pair(vp)
    if case == "triangle":
        # 0 and 96 are at distance 2 and 61 is collinear with neither, so
        # the new line closes triangles on 0, 96 and each of their common
        # neighbours; the three zero points are pairwise opposite
        return with_lines(vp, vp.vlines + [(0, 61, 96)])
    if case == "connected":
        return with_lines(vp, [line for line in vp.vlines if 0 not in line])
    if case == "grid_count":
        return with_lines(vp, vp.vlines[1:])
    raise ValueError(case)


class TestSubgeometryChecks:
    def test_lemma_suite_passes(self, h2dual):
        rep = check_lemma_3_1(h2dual.vprime(), h2dual.geometry)
        assert rep == LemmaReport(
            connected=True, collinear_zero_distance=True,
            grid_zero_distance=True, grids_per_point_16=True,
            triangle_free=True, total_grids=112,
            grid_completions_per_point=16, witness=None)

    def test_several_zero_points_raise(self, h21):
        # the zero counts come from one array pass; the error names the
        # first valuation a check reads and its count
        with pytest.raises(ValueError) as info:
            check_lemma_3_1(h21.vprime(), h21.geometry)
        assert str(info.value) == ("Lemma 3.1 needs one zero point per "
                                   "valuation; point 0 of the restriction "
                                   "has 7")

    def test_restriction_distances_never_computed(self, h2dual):
        vp = h2dual.vprime()
        fresh = ValuationGeometry(vp.host, vp.vpoints, vp.vlines,
                                  vp.point_types, vp.line_types)
        assert check_lemma_3_1(fresh, h2dual.geometry).total_grids == 112
        assert fresh._geometry is None

    def test_corrupted_line_detected(self, h2dual):
        corrupted = corrupted_restriction(h2dual, "collinear")
        assert check_lemma_3_1(corrupted, h2dual.geometry) == LemmaReport(
            connected=True, collinear_zero_distance=False,
            grid_zero_distance=True, grids_per_point_16=False,
            triangle_free=True, total_grids=111,
            witness=("collinear", 0, 1))

    @pytest.mark.parametrize("case,expected", [
        ("grid", LemmaReport(
            connected=True, collinear_zero_distance=True,
            grid_zero_distance=False, grids_per_point_16=False,
            triangle_free=True, total_grids=1, witness=("grid", 0, 5))),
        ("triangle", LemmaReport(
            connected=True, collinear_zero_distance=True,
            grid_zero_distance=True, grids_per_point_16=True,
            triangle_free=False, total_grids=112,
            grid_completions_per_point=16,
            witness=("triangle", 0, 91, 96))),
        ("connected", LemmaReport(
            connected=False, collinear_zero_distance=True,
            grid_zero_distance=True, grids_per_point_16=False,
            triangle_free=True, total_grids=108,
            witness=("disconnected", 0, 1))),
        ("grid_count", LemmaReport(
            connected=True, collinear_zero_distance=True,
            grid_zero_distance=True, grids_per_point_16=False,
            triangle_free=True, total_grids=111,
            witness=("grid_completions", 0, 12)))])
    def test_corrupted_restriction_detected(self, h2dual, case, expected):
        corrupted = corrupted_restriction(h2dual, case)
        assert check_lemma_3_1(corrupted, h2dual.geometry) == expected

    def test_witness_survives_optimize(self, h2dual):
        expected = check_lemma_3_1(corrupted_restriction(h2dual, "triangle"),
                                   h2dual.geometry)
        assert run_optimized(
            f"from test_valgeom import corrupted_restriction\n"
            f"from hexval.pipeline import get_bundle\n"
            f"from hexval.valgeom import check_lemma_3_1\n"
            f"bundle = get_bundle('h2dual')\n"
            f"print(repr(check_lemma_3_1(corrupted_restriction(\n"
            f"    bundle, 'triangle'), bundle.geometry)))\n"
        ) == repr(expected) + "\n"


def lemma_or_error(check, vprime, host):
    """check(vprime, host), or the type and text of the error it raises."""
    try:
        return check(vprime, host)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def assert_lemma_matches_oracle(vprime, host):
    """The array check and the scalar oracle give the same report, or
    raise the same error; returns it."""
    got = lemma_or_error(check_lemma_3_1, vprime, host)
    assert got == lemma_or_error(check_lemma_3_1_oracle, vprime, host)
    return got


class TestLemmaOracle:
    """check_lemma_3_1 on line arrays and packed rows against the scalar
    check on a restriction Geometry (oracles.check_lemma_3_1_oracle)."""

    def test_hexagon(self, h2dual):
        assert assert_lemma_matches_oracle(
            h2dual.vprime(), h2dual.geometry).witness is None

    @pytest.mark.parametrize("case,witness", [
        ("collinear", "collinear"), ("grid", "grid"),
        ("triangle", "triangle"), ("connected", "disconnected"),
        ("grid_count", "grid_completions")])
    def test_corrupted_restrictions(self, h2dual, case, witness):
        report = assert_lemma_matches_oracle(
            corrupted_restriction(h2dual, case), h2dual.geometry)
        assert report.witness[0] == witness

    def test_several_zero_points(self, h21):
        assert assert_lemma_matches_oracle(h21.vprime(), h21.geometry)[0] \
            is ValueError

    @pytest.mark.parametrize("host", TEST_HOSTS)
    def test_test_hosts(self, host):
        bundle = pipeline.Bundle(TEST_HOSTS[host]())
        assert_lemma_matches_oracle(bundle.vprime(), bundle.geometry)

    @pytest.mark.parametrize("text,points", [
        (RIGID_HOSTS["rigid"], 1), (LINELESS_VPRIME_HOST, 2),
        (LINELESS_VPRIME_HOST, 3)],
        ids=["rigid", "two-points", "three-points"])
    def test_lineless_vprime(self, monkeypatch, text, points):
        # a V' with points but no line is decided by its point count:
        # no line array, neighbour rows, grid, triangle or frontier walk
        bundle = pipeline.Bundle(from_text(text))
        vp = bundle.vprime()
        assert vp.vlines == [] and len(vp.vpoints) >= points
        vprime = ValuationGeometry(vp.host, vp.vpoints[:points], [],
                                   vp.point_types[:points], [])
        for name in ("_line_array", "line_incidence", "grid_rows",
                     "_first_triangle", "_first_unreached"):
            monkeypatch.setattr(valgeom, name, None)
        report = check_lemma_3_1(vprime, bundle.geometry)
        monkeypatch.undo()
        assert report == assert_lemma_matches_oracle(vprime, bundle.geometry)
        assert report.witness == (("disconnected", 0, 1) if points > 1
                                  else ("grid_completions", 0, 0))
        assert report.connected == (points == 1)
        assert (report.total_grids, report.grid_completions_per_point,
                report.grids_per_point_16) == (0, None, False)

    @settings(max_examples=60, deadline=None)
    @given(partial_linear_spaces(max_points=10, max_lines=8,
                                 connected=True))
    def test_random_hosts(self, g):
        bundle = pipeline.Bundle(g)
        assert_lemma_matches_oracle(bundle.vprime(), bundle.geometry)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(line_lists(), triple_lists()))
    def test_any_lines(self, drawn):
        # the first V' rows of the dual hexagon, one zero point each,
        # under lines that may be short, long, repeated, out of range or
        # share a pair
        n, lines = drawn
        bundle = pipeline.get_bundle("h2dual")
        vp = bundle.vprime()
        assert_lemma_matches_oracle(
            ValuationGeometry(vp.host, vp.vpoints[:n], lines, ["C"] * n,
                              ["CCC"] * len(lines)), bundle.geometry)
