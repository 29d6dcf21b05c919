"""Hyperplane enumeration and classification."""
import random

import pytest

from hexval import gf2, hyperplanes, perm
from hexval.constructions import grid_3x3
from hexval.geometry import Geometry
from hexval.hyperplanes import (Hyperplane, _byte_tables, _permute_mask,
                                classify_hyperplanes, enumerate_hyperplanes,
                                full_line_count, incidence_matrix)
from hexval.perm import automorphism_group


def apply_perm_to_mask(p, mask):
    """Oracle: the image of a point mask under p, one point at a time."""
    img = 0
    while mask:
        low = mask & -mask
        mask ^= low
        img |= 1 << p[low.bit_length() - 1]
    return img


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

    def test_line_rule_holds(self, h2):
        g = h2.geometry
        for hyp in h2.hyperplanes[:200]:
            for mask in g.line_masks:
                c = (hyp.member_bits & mask).bit_count()
                assert c in (1, 3)

    def test_sorted_and_distinct(self, h21):
        bits = [h.member_bits for h in h21.hyperplanes]
        assert bits == sorted(set(bits))

    def test_nullspace_dimension_two_elimination_orders(self, h2):
        m = incidence_matrix(h2.geometry)
        dim = m.cols - gf2.rank(m)
        dim_rev = m.cols - gf2.rank(m, col_order=reversed(range(m.cols)))
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
        group = perm.PermGroup(21, h21.aut_group.generators)
        monkeypatch.setattr(group, "order", lambda: 7)
        with pytest.raises(RuntimeError, match="does not divide"):
            classify_hyperplanes(h21.geometry, group, h21.hyperplanes)

    def test_bundle_enumerates_once(self, monkeypatch, h21):
        # hyperplane_classes and valuations reuse Bundle.hyperplanes
        from hexval import pipeline, valuations
        calls = []

        def counted(g):
            calls.append(g)
            return enumerate_hyperplanes(g)

        for module in (pipeline, hyperplanes, valuations):
            monkeypatch.setattr(module, "enumerate_hyperplanes", counted)
        bundle = pipeline.Bundle(h21.geometry)
        assert bundle.hyperplane_classes == h21.hyperplane_classes
        assert bundle.valuations == h21.valuations
        assert len(calls) == 1

    def test_class_map_covers_all(self, h21):
        mapping = {}
        for idx, cls in enumerate(h21.hyperplane_classes):
            mapping.update(dict.fromkeys(
                perm.orbit(h21.aut_group.generators,
                           cls.representative.member_bits,
                           apply_perm_to_mask), idx))
        assert len(mapping) == len(h21.hyperplanes)
        sizes = [0] * len(h21.hyperplane_classes)
        for idx in mapping.values():
            sizes[idx] += 1
        assert sizes == [c.orbit_size for c in h21.hyperplane_classes]


class TestByteTables:
    def test_h21_hyperplanes_match_oracle(self, h21):
        for gen in h21.aut_group.generators:
            tables = _byte_tables(gen)
            for h in h21.hyperplanes:
                assert _permute_mask(tables, h.member_bits) == \
                    apply_perm_to_mask(gen, h.member_bits)

    @pytest.mark.parametrize("host", ["fano", "grid3", "four_lines", "h21",
                                      "h2"])
    def test_random_masks_match_oracle(self, request, host):
        # 7, 9, 12, 21 and 63 points: every partial last byte width
        if host == "four_lines":
            g = Geometry(12, [(3 * i, 3 * i + 1, 3 * i + 2)
                              for i in range(4)])
            generators = automorphism_group(g).generators
        else:
            bundle = request.getfixturevalue(host)
            g, generators = bundle.geometry, bundle.aut_group.generators
        rng = random.Random(f"masks/{host}")
        masks = [rng.getrandbits(g.num_points) for _ in range(200)]
        masks += [0, (1 << g.num_points) - 1]
        for gen in generators:
            tables = _byte_tables(gen)
            assert len(tables) == -(-g.num_points // 8)
            for mask in masks:
                assert _permute_mask(tables, mask) == \
                    apply_perm_to_mask(gen, mask)


class TestHyperplaneType:
    def test_size_and_complement(self):
        h = Hyperplane(5, 0b10110)
        assert h.size() == 3
        assert h.points() == (1, 2, 4)
        assert h.complement_bits() == 0b01001
