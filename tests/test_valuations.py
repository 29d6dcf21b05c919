"""Valuations: construction, enumeration against the brute-force oracle
and the scalar per-hyperplane search, statistics and isomorphism
classification against the tuple orbit search."""
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hexval import gf2, pipeline, valuations
from hexval.geometry import GeometryError, find_ovoids, from_text
from hexval.perm import AutGroup, automorphism_group
from hexval.hyperplanes import (Hyperplane, enumerable_basis,
                               enumerate_hyperplanes)
from hexval.valuations import (Valuation, Valuations, ValuationStats,
                               all_valuations, classify_valuations, find_rows,
                               orbit_closure, row_keys, row_stats,
                               unique_rows, valuations_on_hyperplanes)
from hosts import (EXAMPLE_HOST, chain, partial_linear_spaces, pendant_path,
                   relabeled)
from optimized import run_optimized
from oracles import (as_valuations, brute_force_valuations,
                     classical_valuation, is_semi_valuation, is_valuation,
                     orbit_of_function, ovoidal_valuation, zero_set)


def tuples(rows):
    """The rows of an int8 value matrix as value tuples."""
    return list(map(tuple, rows.tolist()))


def label_of(bundle):
    """{value tuple: class label} of a bundle's valuations."""
    return dict(zip(tuples(bundle.valuations), bundle.type_labels))


def valuation_stats(val):
    """The statistics of one Valuation, read off its values, zero set and
    hyperplane: the oracle of the array statistics row_stats."""
    top = max(val.values)
    width = val.host.diameter() + 1 if val.host.is_connected() else 0
    dist = [0] * max(width, top + 1)
    for v in val.values:
        dist[v] += 1
    return ValuationStats(
        max_value=top,
        zero_set=zero_set(val),
        hyperplane_size=val.hyperplane().size(),
        distribution=tuple(dist))


def stats_of(val):
    """The array statistics of one Valuation, after checking them
    against the oracle."""
    st, = row_stats(val.host, np.array([val.values], dtype=np.int8))
    assert st == valuation_stats(val)
    return st


# -- the scalar search: the oracle of the int8 row search ----------------

FAIL = object()


class PartialValuation:
    """Partially defined point values, closed under line propagation.

    The defined set is a subspace: whenever two points of a line carry
    values, the third is determined (equal values a,a force a-1; values
    a,a+1 force a+1; a gap of 2 or more is impossible).
    """

    __slots__ = ("host", "values", "defined_count")

    def __init__(self, host, values, defined_count):
        self.host = host
        self.values = values
        self.defined_count = defined_count

    @classmethod
    def empty(cls, host):
        return cls(host, [None] * host.num_points, 0)

    def is_complete(self):
        return self.defined_count == self.host.num_points

    def copy(self):
        return PartialValuation(self.host, self.values[:], self.defined_count)


def _propagate(pv, dirty):
    """Close pv under line propagation starting from the given points.

    Returns pv or FAIL. Mutates pv in place.
    """
    g = pv.host
    values = pv.values
    qi = 0
    while qi < len(dirty):
        x = dirty[qi]
        qi += 1
        for li in g.lines_through[x]:
            line = g.lines[li]
            known = [p for p in line if values[p] is not None]
            if len(known) < 2:
                continue
            if len(known) == 3:
                vals = sorted(values[p] for p in line)
                if vals.count(vals[0]) != 1 or vals[1] != vals[0] + 1 \
                        or vals[2] != vals[0] + 1:
                    return FAIL
                continue
            a, b = values[known[0]], values[known[1]]
            third = next(p for p in line if values[p] is None)
            if a == b:
                val = a - 1
            elif abs(a - b) == 1:
                val = max(a, b)
            else:
                return FAIL
            values[third] = val
            pv.defined_count += 1
            dirty.append(third)
    return pv


def assign_value(pv, x, value):
    """Smallest partial valuation extending pv with pv(x) = value, or FAIL."""
    if pv.values[x] is not None:
        raise ValueError(f"point {x} already defined")
    new = pv.copy()
    new.values[x] = value
    new.defined_count += 1
    return _propagate(new, [x])


def valuations_from_hyperplane(g, hyp):
    """All valuations whose non-maximal-value set is exactly hyp, point
    by point.

    Seeds value 0 on the complement of hyp, branches undefined points over
    -1 .. -diameter (lowest-index point first, the order of the int8 row
    search), normalizes completions to minimum 0 and keeps those whose
    maximal-value set equals the complement.
    """
    if not g.is_connected():
        raise ValueError("valuations require a connected geometry")
    depths = range(-1, -g.diameter() - 1, -1)
    comp = hyp.complement_bits()
    pv = PartialValuation.empty(g)
    dirty = []
    for p in range(g.num_points):
        if comp >> p & 1:
            pv.values[p] = 0
            pv.defined_count += 1
            dirty.append(p)
    state = _propagate(pv, dirty)
    results = []
    stack = [] if state is FAIL else [state]
    while stack:
        pv = stack.pop()
        if pv.is_complete():
            shift = min(pv.values)
            values = tuple(v - shift for v in pv.values)
            top = max(values)
            max_set = sum(1 << p for p, v in enumerate(values) if v == top)
            if max_set == comp:
                results.append(values)
            continue
        x = next(p for p in range(g.num_points) if pv.values[p] is None)
        for i in depths:
            nxt = assign_value(pv, x, i)
            if nxt is not FAIL:
                stack.append(nxt)
    out = [Valuation(g, v) for v in sorted(set(results))]
    for val in out:
        if not is_valuation(g, val.values):
            raise RuntimeError(f"completion is not a valuation: "
                               f"{val.values}")
        if val.hyperplane().member_bits != hyp.member_bits:
            raise RuntimeError(f"valuation {val.values} does not have "
                               f"hyperplane {hyp.member_bits:b}")
    return out


class TestPredicates:
    def test_classical_is_valuation(self, h21):
        g = h21.geometry
        for p in (0, 5, 20):
            val = classical_valuation(g, p)
            assert is_valuation(g, val.values)
            assert val.values[p] == 0
            assert max(val.values) == 3

    def test_ovoidal_is_valuation(self, h2):
        g = h2.geometry
        ovoid = find_ovoids(g)[0]
        val = ovoidal_valuation(g, ovoid)
        assert is_valuation(g, val.values)
        assert max(val.values) == 1
        assert zero_set(val) == ovoid

    def test_shifted_is_semi_but_not_valuation(self, grid3):
        g = grid3.geometry
        base = classical_valuation(g, 0).values
        shifted = tuple(v + 2 for v in base)
        assert is_semi_valuation(g, shifted)
        assert not is_valuation(g, shifted)

    def test_constant_rejected(self, grid3):
        g = grid3.geometry
        assert not is_semi_valuation(g, (0,) * 9)

    def test_length_guard(self, grid3):
        with pytest.raises(ValueError):
            Valuation(grid3.geometry, (0, 1))


class TestHyperplaneLink:
    def test_hyperplane_of_classical(self, h2):
        g = h2.geometry
        val = classical_valuation(g, 0)
        hyp = val.hyperplane()
        assert hyp.size() == 31  # 1 + 6 + 24 points closer than distance 3
        assert all(val.values[p] < 3 for p in range(g.num_points)
                   if hyp.member_bits >> p & 1)

    def test_valuations_from_hyperplane_roundtrip(self, h21):
        g = h21.geometry
        vals = all_valuations(g)[:40]
        batched = valuations_on_hyperplanes(g, [v.hyperplane() for v in vals])
        for val, found in zip(vals, batched):
            assert found.dtype == np.int8
            assert val.values in tuples(found)
            assert tuples(found) == [v.values for v in
                                     valuations_from_hyperplane(
                                         g, val.hyperplane())]

    def test_non_valuation_hyperplane_empty(self, h2):
        # some hyperplane of H(2) carrying no valuation
        carrying = {v.hyperplane().member_bits for v in as_valuations(
            h2.geometry, h2.valuations)}
        empty = next(h for h in h2.hyperplanes
                     if h.member_bits not in carrying)
        assert valuations_from_hyperplane(h2.geometry, empty) == []
        assert [m.shape for m in valuations_on_hyperplanes(
            h2.geometry, [empty])] == [(0, 63)]
        assert valuations_on_hyperplanes(h2.geometry, []) == []


class TestPartialValuation:
    def test_propagation_completes_line(self, grid3):
        g = grid3.geometry
        pv = PartialValuation.empty(g)
        pv = assign_value(pv, 0, 0)
        pv = assign_value(pv, 1, 1)
        assert pv is not FAIL
        # third point of the row line 0-1-2 is forced to 1
        assert pv.values[2] == 1

    def test_gap_of_two_fails(self, grid3):
        g = grid3.geometry
        pv = PartialValuation.empty(g)
        pv = assign_value(pv, 0, 0)
        pv = assign_value(pv, 1, 2)
        assert pv is FAIL

    def test_double_assignment_rejected(self, grid3):
        pv = PartialValuation.empty(grid3.geometry)
        pv = assign_value(pv, 0, 0)
        with pytest.raises(ValueError):
            assign_value(pv, 0, 1)


class TestEnumeration:
    def test_grid_matches_brute_force(self, grid3):
        g = grid3.geometry
        assert [v.values for v in all_valuations(g)] == \
            brute_force_valuations(g)

    def test_h21_matches_brute_force(self, h21):
        assert tuples(h21.valuations) == brute_force_valuations(h21.geometry)

    def test_diameter_four_chain_matches_brute_force(self):
        # values fall to -4 below the hyperplane complement before the shift
        g = from_text("points 9\n0 1 2\n2 3 4\n4 5 6\n6 7 8\n")
        assert [v.values for v in all_valuations(g)] == \
            brute_force_valuations(g)

    def test_disconnected_rejected(self):
        g = from_text("points 6\n0 1 2\n3 4 5\n")
        with pytest.raises(ValueError, match="connected"):
            all_valuations(g)
        with pytest.raises(ValueError, match="connected"):
            valuations_from_hyperplane(g, Hyperplane(6, 0b001001))
        with pytest.raises(ValueError, match="connected"):
            valuations_on_hyperplanes(g, [Hyperplane(6, 0b001001)])

    def test_empty_geometry_has_no_valuations(self):
        g = from_text("points 0\n")
        assert all_valuations(g) == []
        assert classify_valuations(g, automorphism_group(g),
                                   all_valuations(g)) == ([], [])

    def test_grid_valuation_census(self, grid3):
        # 9 classical + 6 ovoidal = 15 valuations of the 3x3 grid
        assert len(all_valuations(grid3.geometry)) == 15

    def test_hexagon_totals(self, h2, h2dual):
        assert len(h2.valuations) == 1431
        assert len(h2dual.valuations) == 1575

    def test_all_are_valuations(self, h21):
        g = h21.geometry
        for values in tuples(h21.valuations):
            assert is_valuation(g, values)

    def test_canonical_order(self, h21):
        values = tuples(h21.valuations)
        assert values == sorted(set(values))
        assert h21.valuations.dtype == np.int8


class TestStatsAndClassification:
    def test_classical_stats(self, h2):
        st = stats_of(classical_valuation(h2.geometry, 0))
        assert st.max_value == 3
        assert st.zero_set == (0,)
        assert st.hyperplane_size == 31
        assert st.distribution == (1, 6, 24, 32)

    def test_distribution_padded_to_diameter(self, h2):
        g = h2.geometry
        ovoid = find_ovoids(g)[0]
        st = stats_of(ovoidal_valuation(g, ovoid))
        assert st.distribution == (21, 42, 0, 0)

    def test_h2dual_classes(self, h2dual):
        types = h2dual.valuation_types
        got = [(t.label, t.class_size, t.stats.max_value,
                len(t.stats.zero_set), t.stats.hyperplane_size,
                t.stats.distribution) for t in types]
        assert got == [
            ("A", 63, 3, 1, 31, (1, 6, 24, 32)),
            ("B", 252, 3, 1, 47, (1, 14, 32, 16)),
            ("C", 252, 2, 1, 23, (1, 22, 40, 0)),
            ("D", 1008, 2, 5, 31, (5, 26, 32, 0)),
        ]

    def test_h2_classes(self, h2):
        types = h2.valuation_types
        got = [(t.label, t.class_size) for t in types]
        assert got == [("A", 63), ("B1", 126), ("B2", 252), ("B3", 504),
                       ("B4", 72), ("B5", 378), ("C", 36)]

    def test_labels_cover_all_valuations(self, h2):
        labels = h2.type_labels
        assert len(labels) == 1431
        assert set(labels) == {"A", "B1", "B2", "B3", "B4", "B5", "C"}

    def test_grid_classification(self, grid3):
        from hexval.perm import automorphism_group
        g = grid3.geometry
        group = automorphism_group(g)
        types, labels = classify_valuations(g, group, all_valuations(g))
        assert sorted((t.label, t.class_size) for t in types) == \
            [("A", 9), ("C", 6)]

    def test_class_sizes_sum(self, h2dual):
        assert sum(t.class_size for t in h2dual.valuation_types) == 1575

    def test_disconnected_host_rejected(self):
        g = from_text("points 6\n0 1 2\n3 4 5\n")
        group = automorphism_group(g)
        with pytest.raises(ValueError) as info:
            classify_valuations(g, group, [Valuation(g, (0, 1, 1, 0, 1, 1))])
        assert str(info.value) == "valuations require a connected geometry"


class TestPerHyperplaneClass:
    def test_h2_seven_classes_carry_valuations(self, h2):
        counts = h2.valuations_per_class
        assert sum(1 for c in counts if c > 0) == 7
        assert max(counts) == 2

    def test_h2dual_four_classes_carry_valuations(self, h2dual):
        counts = h2dual.valuations_per_class
        assert sum(1 for c in counts if c > 0) == 4
        assert max(counts) == 2

    def test_double_valuation_class_labels(self, h2, h2dual):
        for bundle, expected in ((h2, "B4"), (h2dual, "B")):
            idx = [i for i, n in enumerate(bundle.valuations_per_class)
                   if n == 2]
            assert len(idx) == 1
            labels = label_of(bundle)
            assert {labels[v] for v in
                    tuples(bundle.class_valuations[idx[0]])} == {expected}
            assert bundle.class_valuations_isomorphic(idx[0])

    def test_isomorphic_matches_orbit_oracle(self, h2, h2dual, h21):
        # direct test: every valuation on the representative lies in the
        # automorphism orbit of the first one
        for bundle in (h2, h2dual, h21):
            g = bundle.geometry
            for i, cls in enumerate(bundle.hyperplane_classes):
                vals = [v.values for v in
                        valuations_from_hyperplane(g, cls.representative)]
                direct = len(vals) <= 1 or set(vals) <= set(
                    orbit_of_function(bundle.aut_group, vals[0]))
                assert bundle.class_valuations_isomorphic(i) == direct


def sweep_oracle(g):
    """The per-hyperplane loop that all_valuations batches."""
    return sorted(set().union(*(valuations_from_hyperplane(g, h)
                                for h in enumerate_hyperplanes(g))),
                  key=lambda v: v.values)


def sweep_rows(g):
    """The value tuples of all_valuations(g)."""
    return [v.values for v in all_valuations(g)]


def class_oracle(bundle):
    """The value tuples of the scalar search on each class representative
    of a bundle."""
    return [[v.values for v in
             valuations_from_hyperplane(bundle.geometry, cls.representative)]
            for cls in bundle.hyperplane_classes]


def class_rows(bundle):
    """Bundle.class_valuations as value tuples, after checking that each
    class is an int8 matrix."""
    assert all(m.dtype == np.int8 for m in bundle.class_valuations)
    return [tuples(m) for m in bundle.class_valuations]


EXACT_PROPAGATE_ROWS = valuations._propagate_rows


def corrupt_propagate_rows(rows, lines, floor):
    """_propagate_rows, then the least value of one completed row
    lowered by 1."""
    rows, kept = EXACT_PROPAGATE_ROWS(rows, lines, floor)
    done = np.flatnonzero((rows != valuations.UNDEF).all(axis=1))
    if done.size:
        rows[done[0], rows[done[0]].argmin()] -= 1
    return rows, kept


def kernel_start_rows(search):
    """Each complement matrix that search() hands _sweep_block, with the
    rows that block hands its first _propagate_rows call: the rows the
    search starts from."""
    blocks = []
    exact_block, exact_propagate = (valuations._sweep_block,
                                    valuations._propagate_rows)

    def block(rows, comp, lines, depth):
        blocks.append([comp.copy(), None])
        return exact_block(rows, comp, lines, depth)

    def propagate(rows, lines, floor):
        if blocks[-1][1] is None:
            blocks[-1][1] = rows.copy()
        return exact_propagate(rows, lines, floor)

    with mock.patch.object(valuations, "_sweep_block", block), \
            mock.patch.object(valuations, "_propagate_rows", propagate):
        search()
    return blocks


def point_mask(row):
    """The point mask of a bool row."""
    return sum(1 << p for p in np.flatnonzero(row).tolist())


def near_mask(g, c):
    """The points off the point mask c that are collinear with a point
    of c, from the neighbour masks."""
    near, rest = 0, c
    while rest:
        low = rest & -rest
        near |= g.neighbor_masks[low.bit_length() - 1]
        rest ^= low
    return near & ~c


def mask_matrix(masks, n):
    """The bool [masks, n] matrix of a list of point masks."""
    width = max(1, -(-n // 8))
    raw = b"".join(m.to_bytes(width, "little") for m in masks)
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8).reshape(
        len(masks), width), axis=1, count=n, bitorder="little").astype(bool)


def seeded_layers(g, masks, nears):
    """The start row of each complement given as a point mask c, with
    its near_mask(g, c): 0 on c, -1 on the near points, undefined
    elsewhere."""
    rows = np.full((len(masks), g.num_points), valuations.UNDEF)
    rows[mask_matrix(nears, g.num_points)] = -1
    rows[mask_matrix(masks, g.num_points)] = 0
    return rows


def assert_seeded_layer(g):
    """all_valuations(g) drops exactly the seeds that have a line inside
    their -1 layer, and the first propagation step kills each of them;
    it starts every other seed once, from its seeded_layers row. Returns
    the numbers of seeds dropped and started."""
    blocks = kernel_start_rows(lambda: all_valuations(g))
    seeds = [0]
    for b in enumerable_basis(g):
        seeds += [c ^ b for c in seeds]
    assert len(set(seeds)) == len(seeds) == 2 ** len(enumerable_basis(g))
    near = {c: near_mask(g, c) for c in seeds[1:]}
    kept = sorted(c for c, m in near.items()
                  if not any(line & m == line for line in g.line_masks))
    dropped = sorted(near.keys() - set(kept))
    assert sorted(point_mask(c) for comp, _ in blocks for c in comp) == kept
    for comp, rows in blocks:
        masks = [point_mask(c) for c in comp]
        assert rows.dtype == np.int8
        assert (rows == seeded_layers(g, masks,
                                      [near[c] for c in masks])).all()
    lines = np.array(g.lines, dtype=np.intp).reshape(-1, 3)
    rows, _ = EXACT_PROPAGATE_ROWS(
        seeded_layers(g, dropped, [near[c] for c in dropped]), lines,
        -g.diameter())
    assert len(rows) == 0
    return len(dropped), len(kept)


def propagated_rows(g):
    """The number of _propagate_rows calls all_valuations(g) makes and the
    rows it hands them in all."""
    sizes = []

    def counted(rows, lines, floor):
        sizes.append(len(rows))
        return EXACT_PROPAGATE_ROWS(rows, lines, floor)

    with mock.patch.object(valuations, "_propagate_rows", counted):
        all_valuations(g)
    return len(sizes), sum(sizes)


CHAIN = "points 9\n0 1 2\n2 3 4\n4 5 6\n6 7 8\n"

# lowers the least value of one completed row after every propagation;
# the search of h21 through the call appended below then raises
CORRUPT = (
    "import numpy as np\n"
    "from hexval import pipeline, valuations\n"
    "from hexval.constructions import build_hexagon_2_1\n"
    "exact = valuations._propagate_rows\n"
    "def corrupt(rows, lines, floor):\n"
    "    rows, kept = exact(rows, lines, floor)\n"
    "    done = np.flatnonzero((rows != valuations.UNDEF).all(axis=1))\n"
    "    if done.size:\n"
    "        rows[done[0], rows[done[0]].argmin()] -= 1\n"
    "    return rows, kept\n"
    "valuations._propagate_rows = corrupt\n"
    "try:\n"
    "    {call}\n"
    "except RuntimeError as exc:\n"
    "    print(exc)\n")
CORRUPT_H21 = CORRUPT.format(
    call="valuations.all_valuations(build_hexagon_2_1())")
CORRUPT_H21_CLASSES = CORRUPT.format(
    call="pipeline.Bundle(build_hexagon_2_1()).class_valuations")

# drops the last valuation of every representative carrying several; on
# h21 that is the class whose three valuations form one orbit
LOSSY_H21 = (
    "from hexval import pipeline\n"
    "from hexval.constructions import build_hexagon_2_1\n"
    "exact = pipeline.valuations_on_hyperplanes\n"
    "def lossy(g, hyps):\n"
    "    return [vals[:-1] if len(vals) > 1 else vals\n"
    "            for vals in exact(g, hyps)]\n"
    "pipeline.valuations_on_hyperplanes = lossy\n"
    "try:\n"
    "    pipeline.Bundle(build_hexagon_2_1()).valuations\n"
    "except RuntimeError:\n"
    "    print('RuntimeError')\n")


class TestRepresentativeExpansion:
    """Bundle.valuations closes the class representatives' rows under
    the generators; the full sweep all_valuations is its oracle."""

    @pytest.mark.parametrize("host", ["h2", "h2dual", "h21", "fano",
                                      "grid3"])
    def test_matches_full_sweep(self, request, host):
        bundle = request.getfixturevalue(host)
        assert bundle.valuations.dtype == np.int8
        assert tuples(bundle.valuations) == sweep_rows(bundle.geometry)

    @pytest.mark.parametrize("text", [CHAIN, "points 1\n", "points 0\n",
                                      EXAMPLE_HOST])
    def test_small_hosts_match_full_sweep(self, text):
        bundle = pipeline.Bundle(from_text(text))
        assert bundle.valuations.shape == (len(sweep_rows(bundle.geometry)),
                                           bundle.geometry.num_points)
        assert tuples(bundle.valuations) == sweep_rows(bundle.geometry)

    def test_relabeled_h21_matches_full_sweep(self, h21):
        bundle = pipeline.Bundle(relabeled(h21.geometry, seed=5))
        expected = sweep_rows(bundle.geometry)
        assert tuples(bundle.valuations) == expected
        assert len(expected) == len(h21.valuations)

    def test_two_word_host_matches_full_sweep(self, h2):
        # 67 points: the seeds and value rows span two 64-bit words
        bundle = pipeline.Bundle(relabeled(pendant_path(h2.geometry),
                                           seed=67))
        expected = sweep_rows(bundle.geometry)
        assert tuples(bundle.valuations) == expected
        assert len(expected) > len(h2.valuations)

    def test_bundle_never_sweeps(self, monkeypatch, h21):
        def sweep(*args, **kwargs):
            raise AssertionError("all_valuations called")

        monkeypatch.setattr(pipeline, "all_valuations", sweep,
                            raising=False)
        monkeypatch.setattr(valuations, "all_valuations", sweep)
        bundle = pipeline.Bundle(h21.geometry)
        assert tuples(bundle.valuations) == \
            brute_force_valuations(h21.geometry)
        assert bundle.valuations_per_class == [1, 0, 1, 1, 1, 3]

    def test_lost_representative_valuation_raises(self, monkeypatch, h21):
        exact = valuations_on_hyperplanes

        def lossy(g, hyps):
            return [vals[:-1] if len(vals) > 1 else vals
                    for vals in exact(g, hyps)]

        monkeypatch.setattr(pipeline, "valuations_on_hyperplanes", lossy)
        bundle = pipeline.Bundle(h21.geometry)
        # class 5 (orbit 28) keeps 2 of its 3 valuations: 255 - 28 counted
        with pytest.raises(RuntimeError, match="carry 227 .* hold 255"):
            bundle.valuations

    def test_lost_valuation_check_survives_optimize(self):
        assert run_optimized(LOSSY_H21) == "RuntimeError\n"


class TestClassSearch:
    """Bundle.class_valuations equals the scalar search on every class
    representative exactly."""

    @pytest.mark.parametrize("host", ["h2", "h2dual", "h21", "fano",
                                      "grid3"])
    def test_matches_scalar_search(self, request, host):
        bundle = request.getfixturevalue(host)
        assert class_rows(bundle) == class_oracle(bundle)

    def test_chain_and_relabeled_h21(self, h21):
        for g in (from_text(CHAIN), relabeled(h21.geometry, seed=11)):
            bundle = pipeline.Bundle(g)
            assert class_rows(bundle) == class_oracle(bundle)

    @settings(max_examples=40, deadline=None)
    @given(partial_linear_spaces(min_lines=1, connected=True))
    def test_random_hosts(self, g):
        bundle = pipeline.Bundle(g)
        assert class_rows(bundle) == class_oracle(bundle)

    def test_block_boundaries(self, monkeypatch, h2):
        # 25 representatives in blocks of 7: three full and one of 4
        monkeypatch.setattr(valuations, "_BLOCK_ROWS", 7)
        bundle = pipeline.Bundle(h2.geometry)
        assert class_rows(bundle) == class_oracle(h2)

    def test_corrupted_propagation_raises(self, monkeypatch, h21):
        monkeypatch.setattr(valuations, "_propagate_rows",
                            corrupt_propagate_rows)
        with pytest.raises(RuntimeError, match="not a valuation"):
            pipeline.Bundle(h21.geometry).class_valuations

    def test_corruption_check_survives_optimize(self):
        assert run_optimized(CORRUPT_H21_CLASSES).startswith(
            "completion is not a valuation")

    def test_wrong_seed_raises(self, monkeypatch, h21):
        # each completion credited to the next surviving representative
        exact = valuations._sweep_block

        def shifted(rows, comp, lines, depth):
            vals, origin = exact(rows, comp, lines, depth)
            return vals, (origin + 1) % len(comp)

        monkeypatch.setattr(valuations, "_sweep_block", shifted)
        with pytest.raises(RuntimeError, match="not have its seed's"):
            pipeline.Bundle(h21.geometry).class_valuations

    def test_partner_table_built_once(self, monkeypatch, h2, h2dual):
        # one line-partner table serves the one seed screen; start rows are
        # built only for the screen's survivors, one block per sweep, and
        # the sweeps run on full blocks of 512
        exact_screen = valuations._screen
        for bundle, sweeps in ((h2, 4), (h2dual, 3)):
            g = bundle.geometry
            tables, kept = [], []

            def screen(seeds, lines, partners):
                tables.append(partners)
                kept.append(exact_screen(seeds, lines, partners))
                return kept[-1]

            monkeypatch.setattr(valuations, "_screen", screen)
            blocks = kernel_start_rows(lambda: all_valuations(g))
            assert len(kept) == len(tables) == 1
            assert tables[0].shape == (g.num_points, 3)
            live = kept[0][0]
            sizes = [len(rows) for _, rows in blocks]
            assert [len(comp) for comp, _ in blocks] == sizes
            assert sum(sizes) == len(live) < 2 ** 14 - 1
            assert len(sizes) == sweeps
            assert sizes[:-1] == [valuations._BLOCK_ROWS] * (sweeps - 1)
            assert 0 < sizes[-1] <= valuations._BLOCK_ROWS

    def test_four_point_line_refused(self):
        # its 4 columns must not be read as the 3 of a line
        g = from_text("points 4\n0 1 2 3\n")
        with pytest.raises(GeometryError, match="3-point lines"):
            valuations_on_hyperplanes(g, [Hyperplane(4, 0b0001)])


class TestBatchedSweep:
    """all_valuations equals the per-hyperplane scalar loop exactly."""

    @pytest.mark.parametrize("host", ["h21", "grid3", "fano"])
    def test_matches_scalar_loop(self, request, host):
        g = request.getfixturevalue(host).geometry
        assert all_valuations(g) == sweep_oracle(g)

    def test_chain_and_relabeled_h21(self, h21):
        for g in (from_text(CHAIN), relabeled(h21.geometry, seed=11)):
            assert all_valuations(g) == sweep_oracle(g)

    @settings(max_examples=60, deadline=None)
    @given(partial_linear_spaces(min_lines=1, connected=True))
    def test_random_hosts(self, g):
        assert all_valuations(g) == sweep_oracle(g)

    def test_point_hosts(self):
        assert all_valuations(from_text("points 0\n")) == []
        g = from_text("points 1\n")
        assert all_valuations(g) == [Valuation(g, (0,))]

    @pytest.mark.parametrize("text", ["points 3\n0 1 2\n",
                                      "points 5\n0 1 2\n0 3 4\n"])
    def test_tight_floor_hosts(self, text):
        # a single line (diameter 1, floor -1, so the forced -1 layer
        # sits on the floor) and two lines through a point (diameter 2);
        # the cull drops only rows with a line at -1, -1, -1, and the
        # floor stays with propagation (on CHAIN it kills a branched row)
        g = from_text(text)
        assert all_valuations(g) == sweep_oracle(g)
        assert all_valuations(g)

    @pytest.mark.parametrize("host, calls, rows", [("h2", 8, 1899),
                                                   ("h2dual", 6, 1827)])
    def test_kernel_work(self, monkeypatch, request, host, calls, rows):
        # only the survivors of the start-row cull are propagated, in full
        # blocks; the rows handed to propagation do not depend on blocking
        g = request.getfixturevalue(host).geometry
        assert propagated_rows(g) == (calls, rows)
        monkeypatch.setattr(valuations, "_BLOCK_ROWS", 97)
        assert propagated_rows(g)[1] == rows

    def test_block_boundaries(self, monkeypatch, h21):
        # 255 seeds in blocks of 7, 36 full and one of 3; frontiers in pieces
        monkeypatch.setattr(valuations, "_BLOCK_ROWS", 7)
        assert [v.values for v in all_valuations(h21.geometry)] == \
            tuples(h21.valuations)

    def test_seed_outside_nullspace_raises(self, monkeypatch, grid3):
        # one point meets each of its lines in 1 point
        monkeypatch.setattr(valuations, "enumerable_basis", lambda g: [1])
        with pytest.raises(RuntimeError, match="0-or-2 line rule"):
            all_valuations(grid3.geometry)

    def test_diameter_beyond_int8_refused(self):
        with pytest.raises(GeometryError, match="diameter 127"):
            all_valuations(chain(127))

    def test_corrupted_propagation_raises(self, monkeypatch, h21):
        monkeypatch.setattr(valuations, "_propagate_rows",
                            corrupt_propagate_rows)
        with pytest.raises(RuntimeError, match="not a valuation"):
            all_valuations(h21.geometry)

    def test_corruption_check_survives_optimize(self):
        assert run_optimized(CORRUPT_H21).startswith(
            "completion is not a valuation")


class TestValuationsSequence:
    """all_valuations returns one Valuations: the rows held once as a
    sorted distinct int8 matrix, a Valuation record built per item read."""

    @pytest.mark.parametrize("host", ["h21", "grid3", "fano",
                                      "h21-relabeled"])
    def test_equals_scalar_oracle(self, request, host):
        name, _, relabel = host.partition("-")
        g = request.getfixturevalue(name).geometry
        if relabel:
            g = relabeled(g, seed=11)
        vals, oracle = all_valuations(g), sweep_oracle(g)
        assert isinstance(vals, Valuations) and vals.host is g
        assert vals == oracle and oracle == vals
        assert list(vals) == oracle
        assert vals.rows.dtype == np.int8 and not vals.rows.flags.writeable
        assert tuples(vals.rows) == [v.values for v in oracle]

    def test_slices(self, h21):
        vals = all_valuations(h21.geometry)
        records = list(vals)
        for piece in (slice(2, 7), slice(None, -1), slice(None, None, 3),
                      slice(7, 2)):
            part = vals[piece]
            assert isinstance(part, Valuations) and part.host is vals.host
            assert part == records[piece] and list(part) == records[piece]
        assert vals[-1] == records[-1] and vals[5] == records[5]
        # a slice keeps value-vector order
        assert vals[::-1] == vals

    def test_value_vector_order(self, h21):
        g = h21.geometry
        rows = h21.valuations
        # reversed and repeated rows come back sorted and distinct
        vals = Valuations(g, np.concatenate([rows[::-1], rows[:5]]))
        assert [v.values for v in vals] == sorted(set(tuples(rows)))
        assert vals == all_valuations(g)
        assert vals != all_valuations(relabeled(g, seed=11))
        assert vals != list(vals)[:-1] and vals != 3

    def test_wrong_width_refused(self, h21, grid3):
        rows = h21.valuations
        for bad in (rows[:, :-1], rows[0], np.zeros((2, 22), dtype=np.int8)):
            with pytest.raises(ValueError, match="host of 21 points"):
                Valuations(h21.geometry, bad)
        with pytest.raises(ValueError, match="negative value"):
            Valuations(h21.geometry, rows - 1)
        # classify reads the rows as they are, so it checks their width
        with pytest.raises(ValueError, match="9-point host given for a "
                                             "21-point host"):
            classify_valuations(h21.geometry, h21.aut_group,
                                all_valuations(grid3.geometry))

    def test_point_hosts(self):
        empty = from_text("points 0\n")
        assert all_valuations(empty).rows.shape == (0, 0)
        assert Valuations(empty, []) == [] == all_valuations(empty)
        with pytest.raises(ValueError, match="host of 0 points"):
            Valuations(empty, np.zeros((2, 1), dtype=np.int8))
        point = from_text("points 1\n")
        vals = all_valuations(point)
        assert vals.rows.tolist() == [[0]]
        assert list(vals) == [Valuation(point, (0,))] == vals[:]
        assert classify_valuations(point, automorphism_group(point),
                                   vals)[1] == ["A"]

    def test_unhashable(self, grid3):
        with pytest.raises(TypeError):
            hash(all_valuations(grid3.geometry))

    def test_classification_builds_no_record(self, monkeypatch, h21):
        built = []

        def counting(*args):
            built.append(args)
            return Valuation(*args)

        monkeypatch.setattr(valuations, "Valuation", counting)
        g = h21.geometry
        vals = all_valuations(g)
        assert classify_valuations(g, h21.aut_group, vals) \
            == h21.classification
        assert built == []
        # reading items builds them, one each
        assert len(list(vals[:3])) == 3 and vals[-1] is not None
        assert len(built) == 4


class TestSeededLayer:
    """The search starts each seed from 0 on its complement and -1 on the
    points collinear with it, and drops it when a line lies inside that
    -1 layer; the neighbour and line masks are the oracle."""

    @pytest.mark.parametrize("host", ["h2", "h2dual"])
    def test_hexagons(self, request, host):
        dropped, started = assert_seeded_layer(
            request.getfixturevalue(host).geometry)
        assert dropped > started > 0

    def test_two_word_host(self, h2):
        dropped, started = assert_seeded_layer(
            relabeled(pendant_path(h2.geometry), seed=67))
        assert dropped > 0 and started > 0

    @settings(max_examples=40, deadline=None)
    @given(partial_linear_spaces(min_lines=1, connected=True))
    def test_random_hosts(self, g):
        assert_seeded_layer(g)


def bool_row_screen(seeds, lines, partners):
    """The seed screen on bool rows, the oracle of the bit-sliced
    _screen: each block of _BLOCK_ROWS seeds is unpacked into complement
    rows, each must meet every line in 0 or 2 points (RuntimeError at the
    lowest failing seed), and a seed is kept unless a line lies inside its
    near set, read from the partners gathered on the rows. Returns the
    indices of the seeds kept and the bool [seeds, points] complement and
    near rows of every seed."""
    n = len(partners)
    nbytes = -(-n // 8)
    kept = [np.empty(0, dtype=np.intp)]
    comps, nears = [np.empty((0, n), bool)], [np.empty((0, n), bool)]
    for start in range(0, len(seeds), valuations._BLOCK_ROWS):
        words = seeds[start:start + valuations._BLOCK_ROWS].astype("<u8")
        packed = words.view(np.uint8).reshape(len(words), -1)[:, :nbytes]
        comp = np.unpackbits(packed, axis=1, count=n,
                             bitorder="little").astype(bool)
        met = comp[:, lines].sum(axis=2, dtype=np.int8)
        bad = np.flatnonzero(((met != 0) & (met != 2)).any(axis=1))
        if bad.size:
            raise RuntimeError(
                f"hyperplane complement {gf2.from_words(words[bad[0]]):b} "
                f"fails the 0-or-2 line rule")
        padded = np.concatenate([comp, np.zeros((len(comp), 1), bool)],
                                axis=1)
        near = padded[:, partners].any(axis=2) & ~comp
        kept.append(start + np.flatnonzero(
            ~near[:, lines].all(axis=2).any(axis=1)))
        comps.append(comp)
        nears.append(near)
    return np.concatenate(kept), np.concatenate(comps), np.concatenate(nears)


def column_rows(cols, index):
    """The bool [index, points] rows of the seeds index in the [points,
    words] uint64 point columns cols, bit s of a column's little-endian
    bytes being seed s."""
    bits = np.unpackbits(np.ascontiguousarray(cols, dtype="<u8").view(
        np.uint8), axis=1, bitorder="little").astype(bool)
    return bits.T[index]


def screen_outcome(screen, seeds, lines, partners):
    """The seed indices screen keeps, or the message it raises."""
    try:
        return screen(seeds, lines, partners)[0].tolist()
    except RuntimeError as exc:
        return str(exc)


def assert_screen_matches(search):
    """search() screens its seeds once, and keeps exactly the seeds the
    bool-row oracle keeps, also in oracle blocks of 7 and 97 seeds; the
    point columns it returns hold each kept seed's oracle complement and
    near rows. Returns the seeds, lines and partner table it screened
    with and the indices it kept."""
    calls = []
    exact = valuations._screen

    def screen(seeds, lines, partners):
        calls.append((seeds, lines, partners,
                      exact(seeds, lines, partners)))
        return calls[-1][-1]

    with mock.patch.object(valuations, "_screen", screen):
        search()
    (seeds, lines, partners, (kept, comp_cols, near_cols)), = calls
    assert kept.dtype == np.intp
    assert comp_cols.dtype == near_cols.dtype == np.uint64
    assert comp_cols.shape == near_cols.shape == (len(partners),
                                                  -(-len(seeds) // 64))
    for block in (valuations._BLOCK_ROWS, 7, 97):
        with mock.patch.object(valuations, "_BLOCK_ROWS", block):
            oracle_kept, comp, near = bool_row_screen(seeds, lines, partners)
            assert kept.tolist() == oracle_kept.tolist()
            assert exact(seeds, lines, partners)[0].tolist() == kept.tolist()
    assert (column_rows(comp_cols, kept) == comp[kept]).all()
    assert (column_rows(near_cols, kept) == near[kept]).all()
    return seeds, lines, partners, kept


class TestSeedScreen:
    """The bit-sliced seed screen keeps exactly the seeds of the bool-row
    screen, and names the same seed when one fails the 0-or-2 rule."""

    @pytest.mark.parametrize("host, kept", [("h2", 1683),
                                            ("h2dual", 1449)])
    def test_hexagons(self, request, host, kept):
        g = request.getfixturevalue(host).geometry
        seeds, lines, partners, live = assert_screen_matches(
            lambda: all_valuations(g))
        # 16,383 seeds: the last word holds 63, and its padding bit is
        # neither kept nor flagged
        assert len(seeds) == 2 ** 14 - 1 and len(live) == kept
        for count in (1, 63, 64, 65, 100, 129):
            assert screen_outcome(valuations._screen, seeds[:count], lines,
                                  partners) == \
                screen_outcome(bool_row_screen, seeds[:count], lines,
                               partners)

    def test_two_word_host(self, h2):
        g = relabeled(pendant_path(h2.geometry), seed=67)
        seeds, _, _, live = assert_screen_matches(lambda: all_valuations(g))
        assert seeds.shape[1] == 2 and 0 < len(live) < len(seeds)

    def test_no_seeds(self, h2):
        _, _, _, live = assert_screen_matches(
            lambda: valuations_on_hyperplanes(h2.geometry, []))
        assert len(live) == 0

    @pytest.mark.parametrize("text, kept", [("points 0\n", 0),
                                            ("points 1\n", 1)])
    def test_point_hosts(self, text, kept):
        g = from_text(text)
        _, _, _, live = assert_screen_matches(lambda: all_valuations(g))
        assert len(live) == kept

    @pytest.mark.parametrize("block", [512, 7, 97])
    def test_lowest_failing_seed_named(self, monkeypatch, h2, block):
        # two one-point complements among the nullspace seeds: both
        # screens name the earlier one
        monkeypatch.setattr(valuations, "_BLOCK_ROWS", block)
        seeds, lines, partners, _ = assert_screen_matches(
            lambda: all_valuations(h2.geometry))
        seeds = seeds.copy()
        seeds[[3000, 1000]] = gf2.to_words([1 << 5, 1 << 9], 1)
        message = screen_outcome(valuations._screen, seeds, lines, partners)
        assert message == screen_outcome(bool_row_screen, seeds, lines,
                                         partners)
        assert message == f"hyperplane complement {1 << 9:b} fails the " \
            f"0-or-2 line rule"

    @settings(max_examples=40, deadline=None)
    @given(partial_linear_spaces(min_lines=1, connected=True),
           st.lists(st.integers(0, 2 ** 12 - 1), max_size=70))
    def test_random_hosts(self, g, extra):
        # the nullspace seeds, then arbitrary point masks, which may fail
        # the 0-or-2 rule
        seeds, lines, partners, _ = assert_screen_matches(
            lambda: all_valuations(g))
        mixed = np.concatenate([seeds, gf2.to_words(
            [m & ((1 << g.num_points) - 1) for m in extra], 1)])
        assert screen_outcome(valuations._screen, mixed, lines, partners) \
            == screen_outcome(bool_row_screen, mixed, lines, partners)


# h21's valuations without the last one, which the orbit of another
# valuation reaches
OPEN_SET_H21 = (
    "from hexval.constructions import build_hexagon_2_1\n"
    "from hexval.perm import automorphism_group\n"
    "from hexval.valuations import all_valuations, classify_valuations\n"
    "g = build_hexagon_2_1()\n"
    "try:\n"
    "    classify_valuations(g, automorphism_group(g),\n"
    "                        all_valuations(g)[:-1])\n"
    "except RuntimeError as exc:\n"
    "    print(exc)\n")


class TestRowKeys:
    """Key order is value-vector order: unique_rows and find_rows agree
    with sorted tuples and a dict lookup."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 124), min_size=4, max_size=4),
                    max_size=20),
           st.lists(st.integers(0, 124), min_size=4, max_size=4))
    def test_against_tuples(self, rows, probe):
        mat = np.array(rows, dtype=np.int8).reshape(len(rows), 4)
        distinct = sorted(set(map(tuple, rows)))
        found = unique_rows(mat)
        assert tuples(found) == distinct and found.dtype == np.int8
        index = {values: i for i, values in enumerate(distinct)}
        queries = rows + [probe]
        expected = [index.get(tuple(q), -1) for q in queries]
        assert find_rows(found, np.array(queries, dtype=np.int8)).tolist() \
            == expected
        # the keys compared in pieces of 3
        with mock.patch.object(valuations, "_BLOCK_ROWS", 3):
            assert find_rows(found, np.array(queries, dtype=np.int8)
                             ).tolist() == expected
        assert np.argsort(row_keys(mat), kind="stable").tolist() == sorted(
            range(len(rows)), key=lambda i: rows[i])


def closure_oracle(seeds, group):
    """The sorted union of the tuple orbits of the seed rows, and each
    row's orbit root, the index of its orbit's smallest member."""
    orbits = {}
    for values in map(tuple, seeds.tolist()):
        if values not in orbits:
            members = orbit_of_function(group, values)
            orbits.update((member, members[0]) for member in members)
    rows = sorted(orbits)
    index = {values: i for i, values in enumerate(rows)}
    return rows, [index[orbits[values]] for values in rows]


class TestOrbitClosure:
    """orbit_closure on the cases the pipeline reaches only through the
    CLI, against the tuple orbit search."""

    def assert_matches_oracle(self, seeds, group):
        rows, roots = orbit_closure(seeds, group)
        assert rows.dtype == np.int8 and rows.shape[1] == seeds.shape[1]
        assert (tuples(rows), roots.tolist()) == closure_oracle(seeds, group)
        return rows

    def test_empty_seeds(self, h21):
        rows = self.assert_matches_oracle(
            np.empty((0, 21), dtype=np.int8), h21.aut_group)
        assert rows.shape == (0, 21)

    @pytest.mark.parametrize("generators", [(), ((),)])
    def test_zero_width_rows(self, generators):
        # the host on no points: every row is the empty function
        group = AutGroup(0, generators, (), ())
        rows = self.assert_matches_oracle(
            np.empty((3, 0), dtype=np.int8), group)
        assert rows.shape == (1, 0)
        assert orbit_closure(np.empty((0, 0), dtype=np.int8), group
                             )[0].shape == (0, 0)

    def test_duplicate_seeds(self, h21):
        seeds = h21.class_valuations[0]
        twice = np.concatenate([seeds[::-1], seeds, seeds[:1]])
        rows = self.assert_matches_oracle(twice, h21.aut_group)
        assert tuples(rows) == tuples(orbit_closure(seeds,
                                                    h21.aut_group)[0])

    def test_identity_generator(self, h21):
        group = h21.aut_group
        identity = tuple(range(group.degree))
        for generators in ((identity,), (identity,) + group.generators):
            with_identity = AutGroup(group.degree, generators, group.base,
                                     group.base_orbit_lengths)
            self.assert_matches_oracle(h21.valuations[::40], with_identity)

    def test_closed_set_memory(self, h2):
        # the images of the whole frontier under every generator at once
        # peaked at 1.54 MB
        rows, group = h2.valuations, h2.aut_group
        tracemalloc.start()
        try:
            closed, _ = orbit_closure(rows, group)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(closed, rows)
        assert peak < 1_300_000


def assert_labels_are_orbits(bundle):
    """Each label's members are exactly one automorphism orbit of the
    tuple search, every valuation row has a label, each row's orbit root
    is the row of its orbit's smallest value vector, both in the closure
    of the class representatives' rows and in that of the closed set,
    and the line table is constant on labels."""
    rows = tuples(bundle.valuations)
    assert len(bundle.type_labels) == len(rows)
    members = {}
    for values, label in zip(rows, bundle.type_labels):
        members.setdefault(label, []).append(values)
    index = {values: i for i, values in enumerate(rows)}
    closed, roots = orbit_closure(bundle.valuations, bundle.aut_group)
    assert tuples(closed) == rows
    assert roots.tolist() == bundle.valuation_closure[1].tolist()
    roots = roots.tolist()
    for label, vals in members.items():
        assert vals == orbit_of_function(bundle.aut_group, vals[0])
        assert {roots[index[v]] for v in vals} == {index[vals[0]]}
    assert sorted(members) == sorted(t.label for t in bundle.valuation_types)
    assert bundle.line_table is not None


class TestOrbitLabels:
    """Valuation classes are the orbits Bundle.valuations expands."""

    def test_example_host(self):
        bundle = pipeline.Bundle(from_text(EXAMPLE_HOST))
        assert_labels_are_orbits(bundle)
        labels = [t.label for t in bundle.valuation_types]
        assert sorted(labels) == ["A", "B1", "B2", "B3", "B4", "B5", "B6",
                                  "C1", "C2", "C3"]
        # B2 and B3 share every statistic but are two orbits
        b2, b3 = bundle.valuation_types[2:4]
        assert (b2.label, b3.label) == ("B2", "B3")
        assert b2.stats.distribution == b3.stats.distribution

    @settings(max_examples=40, deadline=None)
    @given(partial_linear_spaces(min_lines=1, connected=True))
    def test_random_hosts(self, g):
        assert_labels_are_orbits(pipeline.Bundle(g))

    @settings(max_examples=40, deadline=None)
    @given(partial_linear_spaces(min_lines=1, connected=True))
    def test_stats_against_oracle(self, g):
        # every row's array statistics, and each class's, which are its
        # smallest row's, equal those of the Valuation oracle
        bundle = pipeline.Bundle(g)
        rows = tuples(bundle.valuations)
        assert row_stats(g, bundle.valuations) == [
            valuation_stats(Valuation(g, values)) for values in rows]
        smallest = {}
        for values, label in zip(rows, bundle.type_labels):
            smallest.setdefault(label, values)
        assert [t.stats for t in bundle.valuation_types] == [
            valuation_stats(Valuation(g, smallest[t.label]))
            for t in bundle.valuation_types]

    def test_one_orbit_roots_call_per_host(self, monkeypatch, h21):
        calls = []

        def counting(rows, group):
            calls.append(len(rows))
            return orbit_closure(rows, group)

        monkeypatch.setattr(pipeline, "orbit_closure", counting)
        bundle = pipeline.Bundle(h21.geometry)
        bundle.valuations
        # 7 representative valuations close to 255 rows
        assert calls == [7]
        assert sum(bundle.valuations_per_class) == 7
        assert len(bundle.valuation_types) == 5
        bundle.classification, bundle.line_table, bundle.vprime()
        assert all(bundle.class_valuations_isomorphic(i)
                   for i in range(len(bundle.hyperplane_classes)))
        assert calls == [7]

    @pytest.mark.parametrize("host", ["h2", "h2dual", "h21"])
    def test_public_classification_matches_bundle(self, request, host):
        bundle = request.getfixturevalue(host)
        assert classify_valuations(bundle.geometry, bundle.aut_group,
                                   Valuations(bundle.geometry,
                                              bundle.valuations)) \
            == bundle.classification

    def test_public_classification_relabeled(self, h21):
        for g in (relabeled(h21.geometry, seed=5),
                  relabeled(from_text(EXAMPLE_HOST), seed=3)):
            bundle = pipeline.Bundle(g)
            assert classify_valuations(g, automorphism_group(g),
                                       all_valuations(g)) \
                == bundle.classification

    def test_open_set_raises(self, h21):
        with pytest.raises(RuntimeError, match="leaves the given"):
            classify_valuations(h21.geometry, h21.aut_group,
                                Valuations(h21.geometry,
                                           h21.valuations)[:-1])

    def test_open_set_check_survives_optimize(self):
        assert "leaves the given valuations" in run_optimized(OPEN_SET_H21)
