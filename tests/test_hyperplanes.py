"""Hyperplane enumeration and classification.

The orbit classification on nullspace coordinates is checked against an
oracle that closes every enumerated hyperplane under the generators,
permuting member masks through per-generator byte tables.
"""
import random
import tracemalloc

import pytest
from hypothesis import assume, given, settings, strategies as st

from hexval import gf2, hyperplanes, perm, pipeline
from hexval.cli import run
from hexval.constructions import build_hexagon_2_1, grid_3x3
from hexval.geometry import Geometry, GeometryError, to_text
from hexval.hyperplanes import (MAX_DIMENSION, Hyperplane, HyperplaneClass,
                                classify_hyperplanes, enumerate_hyperplanes,
                                hyperplane_count)
from hexval.perm import automorphism_group
from hexval.valuations import all_valuations
from hosts import (chain, disjoint_lines, partial_linear_spaces, pendant_path,
                   relabeled)
from optimized import run_optimized
from oracles import PermGroup, oracle_group, orbit, rank


def apply_perm_to_mask(p, mask):
    """Oracle: the image of a point mask under p, one point at a time."""
    img = 0
    while mask:
        low = mask & -mask
        mask ^= low
        img |= 1 << p[low.bit_length() - 1]
    return img


def byte_tables(p):
    """The action of p on point masks, one table per 8 points: row k maps
    each value b of mask byte k to the image of those points. Each entry
    adds one point to an entry built before it."""
    tables = []
    for base in range(0, len(p), 8):
        row = [0] * (1 << min(8, len(p) - base))
        for b in range(1, len(row)):
            low = b & -b
            row[b] = row[b ^ low] | 1 << p[base + low.bit_length() - 1]
        tables.append(row)
    return tables


def permute_mask(tables, mask):
    img = 0
    for row in tables:
        img |= row[mask & 0xFF]
        mask >>= 8
    return img


def full_line_count(g, member_bits):
    return sum(1 for mask in g.line_masks if (member_bits & mask) == mask)


def oracle_classes(g, group, hyps=None):
    """Oracle: the hyperplane classes by closing each enumerated
    hyperplane not yet seen under the generators (orbit on byte
    tables), sorted like classify_hyperplanes."""
    if hyps is None:
        hyps = enumerate_hyperplanes(g)
    all_masks = {h.member_bits for h in hyps}
    unseen = set(all_masks)
    order = group.order()
    tables = [byte_tables(gen) for gen in group.generators]
    classes = []
    for h in hyps:
        if h.member_bits not in unseen:
            continue
        masks = orbit(tables, h.member_bits, permute_mask)
        assert masks <= all_masks
        unseen -= masks
        rep_bits = min(masks)
        key = (rep_bits.bit_count(), full_line_count(g, rep_bits))
        assert all((m.bit_count(), full_line_count(g, m)) == key
                   for m in masks)
        assert order % len(masks) == 0
        classes.append(HyperplaneClass(
            representative=Hyperplane(g.num_points, rep_bits),
            orbit_size=len(masks),
            stabilizer_order=order // len(masks),
            invariant_key=key))
    assert sum(c.orbit_size for c in classes) == len(hyps)
    classes.sort(key=lambda c: (c.invariant_key,
                                c.representative.member_bits))
    return classes


def span_rows_ascend(g):
    """Whether the span rows of enumerable_basis(g) strictly ascend."""
    rows = gf2.span_words(hyperplanes.enumerable_basis(g), g.num_points)
    values = [gf2.from_words(row) for row in rows]
    return all(a < b for a, b in zip(values, values[1:]))


def brute_force_hyperplanes(g):
    """All proper point sets meeting every line in 1 or all points, by
    checking every subset (tiny geometries only)."""
    out = []
    full = (1 << g.num_points) - 1
    for bits in range(1, full + 1):
        if bits == full:
            continue
        ok = True
        for mask in g.line_masks:
            c = (bits & mask).bit_count()
            if c != 1 and c != mask.bit_count():
                ok = False
                break
        if ok:
            out.append(bits)
    return sorted(out)


#: a basis whose first vector, from the nullspace, keeps the 1-or-3 line
#: rule and whose second, one point outside it, breaks it; each is the
#: only one with its free column. Both functions must reject it; the
#: classification runs under the trivial group, so no generator image is
#: checked before the rule.
LATER_VECTOR_BREAKS_RULE = (
    "from hexval import perm\n"
    "from hexval.constructions import build_hexagon_2_1\n"
    "from hexval.geometry import Geometry\n"
    "from hexval.hyperplanes import (classify_hyperplanes,\n"
    "                                enumerate_hyperplanes)\n"
    "h21 = build_hexagon_2_1()\n"
    "b0 = h21.nullspace_basis[0]\n"
    "q = next(p for p in range(21) if not b0 >> p & 1)\n"
    "g = Geometry(21, h21.lines)\n"
    "g.nullspace_basis = (b0, 1 << q)\n"
    "trivial = perm.AutGroup(21, (), (), ())\n"
    "for check in (enumerate_hyperplanes,\n"
    "              lambda g: classify_hyperplanes(g, trivial)):\n"
    "    try:\n"
    "        check(g)\n"
    "    except RuntimeError as exc:\n"
    "        print(exc)\n")


#: two nullspace vectors of h21 with one highest bit: the second holds
#: the free column of the first. Both functions must reject them.
SHARED_FREE_COLUMN = (
    "from hexval import perm\n"
    "from hexval.constructions import build_hexagon_2_1\n"
    "from hexval.geometry import Geometry\n"
    "from hexval.hyperplanes import (classify_hyperplanes,\n"
    "                                enumerate_hyperplanes)\n"
    "h21 = build_hexagon_2_1()\n"
    "b0, b1 = h21.nullspace_basis[:2]\n"
    "g = Geometry(21, h21.lines)\n"
    "g.nullspace_basis = (b1, b0 ^ b1)\n"
    "for check in (enumerate_hyperplanes,\n"
    "              lambda g: classify_hyperplanes(\n"
    "                  g, perm.AutGroup(21, (), (), ()))):\n"
    "    try:\n"
    "        check(g)\n"
    "    except RuntimeError as exc:\n"
    "        print(exc)\n")


class TestEnumeration:
    def test_grid_matches_brute_force(self):
        g = grid_3x3()
        hyps = enumerate_hyperplanes(g)
        assert [h.member_bits for h in hyps] == brute_force_hyperplanes(g)

    def test_fano_matches_brute_force(self, fano):
        g = fano.geometry
        hyps = enumerate_hyperplanes(g)
        assert [h.member_bits for h in hyps] == brute_force_hyperplanes(g)
        # the hyperplanes of the Fano plane are exactly its 7 lines
        assert len(hyps) == 7
        line_masks = sorted(g.line_masks)
        assert sorted(h.member_bits for h in hyps) == line_masks

    def test_hexagon_counts(self, h2, h2dual):
        assert len(h2.hyperplanes) == (1 << 14) - 1
        assert len(h2dual.hyperplanes) == (1 << 14) - 1
        assert h2.hyperplane_count == h2dual.hyperplane_count == (1 << 14) - 1

    @pytest.mark.parametrize("host", ["h21", "fano", "grid3"])
    def test_count_from_dimension(self, request, host):
        bundle = request.getfixturevalue(host)
        assert hyperplane_count(bundle.geometry) == len(bundle.hyperplanes)

    def test_line_rule_holds(self, h2):
        g = h2.geometry
        for hyp in h2.hyperplanes[:200]:
            for mask in g.line_masks:
                c = (hyp.member_bits & mask).bit_count()
                assert c in (1, 3)

    def test_sorted_and_distinct(self, h21):
        bits = [h.member_bits for h in h21.hyperplanes]
        assert bits == sorted(set(bits))

    def test_rejects_dependent_basis(self, h21):
        # three nullspace vectors, so every one of them keeps the line
        # rule, but the third is the sum of the first two: it shares the
        # free column of the second, and their span holds 3 nonzero
        # vectors, not 7
        b0, b1 = h21.geometry.nullspace_basis[:2]
        g = Geometry(21, h21.geometry.lines)
        g.nullspace_basis = (b0, b1, b0 ^ b1)
        with pytest.raises(RuntimeError,
                           match="not the only one with its free column"):
            enumerate_hyperplanes(g)

    @settings(max_examples=40, deadline=None)
    @given(partial_linear_spaces(min_lines=1, connected=True))
    def test_span_rows_ascend(self, g):
        # each basis vector's highest bit is its own free column, so span
        # row i ascends with i
        assert span_rows_ascend(g)

    def test_span_rows_ascend_over_two_words(self, h2):
        g = pendant_path(h2.geometry)
        assert g.num_points > 64 and span_rows_ascend(g)

    def test_reversed_basis(self, h21):
        # the basis is sorted by free column before it is used
        g = Geometry(21, h21.geometry.lines)
        g.nullspace_basis = h21.geometry.nullspace_basis[::-1]
        assert enumerate_hyperplanes(g) == h21.hyperplanes
        assert classify_hyperplanes(g, h21.aut_group) == \
            h21.hyperplane_classes

    def test_shared_free_column_refused(self):
        # both functions refuse, also under -O, which strips asserts; the
        # first vector of that column is named
        b1 = build_hexagon_2_1().nullspace_basis[1]
        assert run_optimized(SHARED_FREE_COLUMN) == 2 * (
            f"nullspace basis vector {b1:b} is not the only one with its "
            f"free column\n")

    def test_rejects_vector_outside_nullspace(self, h21):
        # a single point meets its lines in 1 point, so its complement
        # fails the 1-or-3 rule
        g = Geometry(21, h21.geometry.lines)
        g.nullspace_basis = (1,)
        with pytest.raises(RuntimeError, match="fails the 1-or-3 line rule"):
            enumerate_hyperplanes(g)

    @pytest.mark.parametrize("optimized", [False, True])
    def test_later_basis_vector_breaks_rule(self, capsys, optimized):
        # the rule is checked on the basis: the error names the first
        # basis vector that breaks it, the first such vector of the span
        if optimized:
            out = run_optimized(LATER_VECTOR_BREAKS_RULE)
        else:
            exec(LATER_VECTOR_BREAKS_RULE, {})
            out = capsys.readouterr().out
        b0 = build_hexagon_2_1().nullspace_basis[0]
        q = next(p for p in range(21) if not b0 >> p & 1)
        member = ((1 << 21) - 1) ^ 1 << q
        assert out == 2 * f"hyperplane {member:b} fails the 1-or-3 line rule\n"

    def test_one_nullspace_per_geometry(self, monkeypatch, h21):
        # the count, the classes, the isomorphism invariant and the full
        # sweep all read the basis kept on the geometry
        classes, count = h21.hyperplane_classes, len(h21.valuations)
        calls = []

        def counted(rows, cols):
            calls.append(cols)
            return exact(rows, cols)

        exact = gf2.nullspace
        monkeypatch.setattr(gf2, "nullspace", counted)
        g = Geometry(21, h21.geometry.lines)
        assert hyperplane_count(g) == 255
        assert classify_hyperplanes(g, automorphism_group(g)) == classes
        assert perm.are_isomorphic(g, g) is not None
        assert len(all_valuations(g)) == count
        assert calls == [21]

    def test_nullspace_dimension_two_elimination_orders(self, h2):
        rows, n = h2.geometry.line_masks, h2.geometry.num_points
        dim = n - rank(rows, n)
        dim_rev = n - rank(rows, n, col_order=reversed(range(n)))
        assert dim == dim_rev == 14


class TestClassification:
    def test_grid_classes(self):
        g = grid_3x3()
        classes = classify_hyperplanes(g, automorphism_group(g))
        assert sum(c.orbit_size for c in classes) == len(
            enumerate_hyperplanes(g))

    def test_hexagon_class_counts(self, h2, h2dual):
        assert len(h2.hyperplane_classes) == 25
        assert len(h2dual.hyperplane_classes) == 14

    def test_class_equation(self, h2, h2dual):
        for bundle in (h2, h2dual):
            assert sum(c.orbit_size for c in bundle.hyperplane_classes) \
                == (1 << 14) - 1
            for c in bundle.hyperplane_classes:
                assert c.orbit_size * c.stabilizer_order == bundle.aut_order

    def test_invariants_constant_on_sample_orbit(self, h21):
        g = h21.geometry
        group = h21.aut_group
        cls = h21.hyperplane_classes[0]
        rep = cls.representative.member_bits
        key = (rep.bit_count(), full_line_count(g, rep))
        gen = group.generators[0]
        img = 0
        for p in range(g.num_points):
            if rep >> p & 1:
                img |= 1 << gen[p]
        assert (img.bit_count(), full_line_count(g, img)) == key

    def test_orbit_size_not_dividing_order_raises(self, monkeypatch, h21):
        group = PermGroup(21, h21.aut_group.generators)
        monkeypatch.setattr(group, "order", lambda: 7)
        with pytest.raises(RuntimeError, match="does not divide"):
            classify_hyperplanes(h21.geometry, group)

    def test_bundle_enumerates_once(self, monkeypatch, h21):
        # the stages report needs never enumerate the hyperplanes
        from hexval import pipeline
        calls = []

        def counted(g):
            calls.append(g)
            return enumerate_hyperplanes(g)

        for module in (pipeline, hyperplanes):
            monkeypatch.setattr(module, "enumerate_hyperplanes", counted)
        bundle = pipeline.Bundle(h21.geometry)
        assert bundle.hyperplane_classes == h21.hyperplane_classes
        assert bundle.valuations.tolist() == h21.valuations.tolist()
        assert bundle.valuations_per_class == h21.valuations_per_class
        assert bundle.hyperplane_count == 255
        assert len(calls) == 0
        assert len(bundle.hyperplanes) == 255
        assert len(calls) == 1

    def test_class_map_covers_all(self, h21):
        mapping = {}
        for idx, cls in enumerate(h21.hyperplane_classes):
            mapping.update(dict.fromkeys(
                orbit(h21.aut_group.generators,
                           cls.representative.member_bits,
                           apply_perm_to_mask), idx))
        assert len(mapping) == len(h21.hyperplanes)
        sizes = [0] * len(h21.hyperplane_classes)
        for idx in mapping.values():
            sizes[idx] += 1
        assert sizes == [c.orbit_size for c in h21.hyperplane_classes]


NOT_AN_AUTOMORPHISM = (
    "from hexval import perm\n"
    "from hexval.constructions import build_hexagon_2_1\n"
    "from hexval.hyperplanes import classify_hyperplanes\n"
    "swap = (1, 0) + tuple(range(2, 21))\n"
    "group = perm.AutGroup(21, (swap,), (0,), (2,))\n"
    "try:\n"
    "    classify_hyperplanes(build_hexagon_2_1(), group)\n"
    "except RuntimeError as exc:\n"
    "    print(exc)\n")

WRONG_ORDER = (
    "import dataclasses\n"
    "from hexval import perm\n"
    "from hexval.constructions import build_hexagon_2_1\n"
    "from hexval.hyperplanes import classify_hyperplanes\n"
    "g = build_hexagon_2_1()\n"
    "group = dataclasses.replace(perm.automorphism_group(g),\n"
    "                            base_orbit_lengths=(7,))\n"
    "try:\n"
    "    classify_hyperplanes(g, group)\n"
    "except RuntimeError as exc:\n"
    "    print(exc)\n")


class TestAgainstOracle:
    """classify_hyperplanes equals the byte-table orbit walk exactly:
    representatives, orbit sizes, stabilizer orders, keys and order."""

    @pytest.mark.parametrize("host", ["h2", "h2dual", "h21", "fano",
                                      "grid3"])
    def test_hosts(self, request, host):
        bundle = request.getfixturevalue(host)
        assert bundle.hyperplane_classes == oracle_classes(
            bundle.geometry, bundle.aut_group, bundle.hyperplanes)

    @pytest.mark.parametrize("host", ["h2", "h2dual", "h21"])
    def test_relabelings(self, request, host):
        g = relabeled(request.getfixturevalue(host).geometry, seed=host)
        group = automorphism_group(g)
        assert classify_hyperplanes(g, group) == oracle_classes(g, group)

    def test_two_word_masks(self, h2):
        # 67 points: member masks span two 64-bit words; relabeled, so an
        # automorphism moves points of both words together
        g = relabeled(pendant_path(h2.geometry), seed=67)
        group = automorphism_group(g)
        classes = classify_hyperplanes(g, group)
        assert len(gf2.nullspace(g.line_masks, g.num_points)) == 16
        assert sum(c.orbit_size for c in classes) == (1 << 16) - 1
        assert max(c.representative.member_bits for c in classes) >> 64
        assert classes == oracle_classes(g, group)

    @settings(max_examples=60, deadline=None)
    @given(partial_linear_spaces(min_lines=1))
    def test_random_hosts(self, g):
        group = automorphism_group(g)
        assert classify_hyperplanes(g, group) == oracle_classes(g, group)

    @settings(max_examples=40, deadline=None)
    @given(partial_linear_spaces(min_lines=2), st.integers(0, 2))
    def test_random_hosts_mixed_degrees(self, g, isolated):
        # points of several degrees, some on no line: the full lines come
        # from one popcount per nonzero degree
        assume(len({len(t) for t in g.lines_through}) > 1)
        g = Geometry(g.num_points + isolated, g.lines)
        group = automorphism_group(g)
        assert classify_hyperplanes(g, group) == oracle_classes(g, group)

    @pytest.mark.parametrize("host", ["h21", "pendant", "isolated"])
    def test_full_lines_on_every_hyperplane(self, h2, h21, host):
        # under the trivial group each hyperplane is its own class, so
        # every vector's (size, full lines) key is reported
        g = {"h21": h21.geometry, "pendant": pendant_path(h2.geometry),
             "isolated": Geometry(22, h21.geometry.lines)}[host]
        classes = classify_hyperplanes(g, PermGroup(g.num_points))
        assert len(classes) == hyperplane_count(g)
        for c in classes:
            member = c.representative.member_bits
            assert c.invariant_key == (member.bit_count(),
                                       full_line_count(g, member))

    def test_trivial_group_and_no_hyperplanes(self):
        g = disjoint_lines(2)
        classes = classify_hyperplanes(g, PermGroup(6))
        assert [c.orbit_size for c in classes] == [1] * 15
        assert classify_hyperplanes(Geometry(0, []), PermGroup(0)) == []

    def test_generator_outside_nullspace_raises(self, h21):
        swap = (1, 0) + tuple(range(2, 21))
        assert not oracle_group(h21.aut_group).contains(swap)
        with pytest.raises(RuntimeError, match="not in the nullspace"):
            classify_hyperplanes(h21.geometry, PermGroup(21, [swap]))

    def test_checks_survive_optimize(self):
        assert "not in the nullspace" in run_optimized(NOT_AN_AUTOMORPHISM)
        assert "does not divide the group order 7" in \
            run_optimized(WRONG_ORDER)


class TestEnumerationGuard:
    """Nullspaces above MAX_DIMENSION are refused before enumeration."""

    def test_library_refuses(self):
        g = disjoint_lines(13)
        assert MAX_DIMENSION == 24
        assert hyperplane_count(g) == (1 << 26) - 1
        tracemalloc.start()
        try:
            for fn in (enumerate_hyperplanes,
                       lambda g: classify_hyperplanes(g, PermGroup(39))):
                with pytest.raises(GeometryError, match="dimension 26"):
                    fn(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("argv", [["valuations"], ["valgeom"],
                                      ["check"],
                                      ["hyperplanes", "--classes"]])
    def test_cli_exits_2(self, capsys, tmp_path, argv):
        # disconnected, so refused before the hyperplanes; hyperplanes
        # --classes is refused at dimension 26 before the search of the
        # group of order 6^13 * 13! (test_cli.py, TestAut)
        path = tmp_path / "lines13.geom"
        path.write_text(to_text(disjoint_lines(13)))
        assert run([argv[0], "--in", str(path), *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [["hyperplanes", "--classes"],
                                      ["valuations"], ["valgeom"], ["check"]])
    def test_connected_host_exits_2(self, capsys, monkeypatch, tmp_path,
                                    argv):
        # a path of 24 lines: connected, dimension 25; the dimension is
        # read before the automorphism group, whose search is the slow
        # part on a long host
        searches = []
        monkeypatch.setattr(pipeline, "automorphism_group",
                            lambda g: searches.append(g))
        path = tmp_path / "path24.geom"
        path.write_text(to_text(chain(24)))
        assert run([argv[0], "--in", str(path), *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: the hyperplane space has dimension 25; its 2^25 - 1 "
            "hyperplanes are not enumerated above dimension 24"]
        assert searches == []

    def test_plain_count_still_printed(self, capsys, tmp_path):
        path = tmp_path / "lines13.geom"
        path.write_text(to_text(disjoint_lines(13)))
        assert run(["hyperplanes", "--in", str(path)]) == 0
        assert capsys.readouterr().out == "hyperplanes: 67108863\n"


class TestByteTables:
    def test_h21_hyperplanes_match_oracle(self, h21):
        for gen in h21.aut_group.generators:
            tables = byte_tables(gen)
            for h in h21.hyperplanes:
                assert permute_mask(tables, h.member_bits) == \
                    apply_perm_to_mask(gen, h.member_bits)

    @pytest.mark.parametrize("host", ["fano", "grid3", "four_lines", "h21",
                                      "h2"])
    def test_random_masks_match_oracle(self, request, host):
        # 7, 9, 12, 21 and 63 points: every partial last byte width
        if host == "four_lines":
            g = disjoint_lines(4)
            generators = automorphism_group(g).generators
        else:
            bundle = request.getfixturevalue(host)
            g, generators = bundle.geometry, bundle.aut_group.generators
        rng = random.Random(f"masks/{host}")
        masks = [rng.getrandbits(g.num_points) for _ in range(200)]
        masks += [0, (1 << g.num_points) - 1]
        for gen in generators:
            tables = byte_tables(gen)
            assert len(tables) == -(-g.num_points // 8)
            for mask in masks:
                assert permute_mask(tables, mask) == \
                    apply_perm_to_mask(gen, mask)


class TestHyperplaneType:
    def test_size_and_complement(self):
        h = Hyperplane(5, 0b10110)
        assert h.size() == 3
        assert [p for p in range(5) if h.member_bits >> p & 1] == [1, 2, 4]
        assert h.complement_bits() == 0b01001
