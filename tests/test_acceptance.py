"""Acceptance gate: nine criteria, one printed pass/fail line each.

Every comparison is exact; the shared session bundles supply the heavy
computations (automorphism groups, hyperplane classes, valuation
geometries)."""
import random
from collections import Counter

from hexval import gf2, reference
from hexval.constructions import grid_3x3
from hexval.geometry import (check_generalized_hexagon, find_ovoids,
                             near_hexagon_point_bound, order_of)
from hexval.perm import are_isomorphic
from hexval.valgeom import check_lemma_3_1
from hexval.valuations import Valuation, all_valuations
from oracles import brute_force_valuations, rank, star


def _verdict(number: int, title: str, ok: bool):
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {title}"
    print(line)
    assert ok, line


def _valuation_rows(bundle):
    return [(t.label, t.class_size, t.stats.max_value,
             len(t.stats.zero_set), t.stats.hyperplane_size,
             t.stats.distribution) for t in bundle.valuation_types]


def test_criterion_1_table_1(h2dual):
    ok = (_valuation_rows(h2dual) == reference.VALUATION_TABLE_H2DUAL
          and sum(t.class_size for t in h2dual.valuation_types)
          == reference.VALUATION_TOTALS["h2dual"])
    _verdict(1, "valuation classes of H^D(2), exact", ok)


def test_criterion_2_table_3(h2):
    ok = (_valuation_rows(h2) == reference.VALUATION_TABLE_H2
          and sum(t.class_size for t in h2.valuation_types)
          == reference.VALUATION_TOTALS["h2"])
    _verdict(2, "valuation classes of H(2), exact", ok)


def test_criterion_3_line_tables(h2, h2dual):
    # line_type_table enforces per-point constancy within each point type
    ok = (h2dual.line_table == reference.LINE_TABLE_H2DUAL
          and h2.line_table == reference.LINE_TABLE_H2)
    _verdict(3, "valuation-geometry line tables, exact", ok)


def test_criterion_4_hyperplane_classes(h2, h2dual):
    ok = True
    for bundle, name in ((h2, "h2"), (h2dual, "h2dual")):
        counts = bundle.valuations_per_class
        double = [i for i, n in enumerate(counts) if n == 2]
        ok &= len(bundle.hyperplane_classes) \
            == reference.HYPERPLANE_CLASSES[name]
        ok &= sum(1 for n in counts if n > 0) \
            == reference.CLASSES_WITH_VALUATIONS[name]
        ok &= max(counts) == 2 and len(double) == 1
        labels = dict(zip(map(tuple, bundle.valuations.tolist()),
                          bundle.type_labels))
        ok &= {labels[v] for v in
               map(tuple, bundle.class_valuations[double[0]].tolist())} \
            == {reference.TWO_VALUATION_CLASS[name]}
        ok &= bundle.class_valuations_isomorphic(double[0])
    _verdict(4, "hyperplane classification 25/14, valuation-carrying "
                "classes 7/4, double class B4/B isomorphic", ok)


def test_criterion_5_lemma_suite(h2dual):
    vp = h2dual.vprime()
    rep = check_lemma_3_1(vp, h2dual.geometry)
    lines_per_point = Counter(x for line in vp.vlines for x in line)
    ok = (rep.connected and rep.collinear_zero_distance
          and rep.grid_zero_distance and rep.grids_per_point_16
          and rep.triangle_free
          and len(vp.vpoints) == reference.VPRIME_POINTS
          and len(vp.vlines) == reference.VPRIME_LINES
          and len(lines_per_point) == reference.VPRIME_POINTS
          and set(lines_per_point.values())
          == {reference.VPRIME_LINES_PER_POINT}
          and rep.grid_completions_per_point
          == reference.VPRIME_GRID_COMPLETIONS_PER_POINT
          and rep.total_grids == reference.VPRIME_DISTINCT_GRIDS)
    _verdict(5, "subgeometry suite on H^D(2): connectivity, zero-point "
                "distances, 16 grids per point, triangle-free", ok)


def test_criterion_6_constructions(h2, h2dual):
    ok = True
    for bundle in (h2, h2dual):
        g = bundle.geometry
        ok &= check_generalized_hexagon(g).is_generalized_hexagon
        spec = order_of(g)
        ok &= (spec.s, spec.t) == reference.HEXAGON_ORDER
        ok &= all(g.distance_distribution(p)
                  == reference.DISTANCE_DISTRIBUTION
                  for p in range(g.num_points))
    ok &= are_isomorphic(h2.geometry, h2dual.geometry) is None
    ok &= len(find_ovoids(h2.geometry)) == reference.OVOID_COUNT["h2"]
    ok &= len(find_ovoids(h2dual.geometry)) == reference.OVOID_COUNT["h2dual"]
    _verdict(6, "hexagon constructions valid, non-isomorphic, 36/0 ovoids",
             ok)


def test_criterion_7_point_bound(h2):
    ok = (set(reference.POINT_BOUND) == {(2, 2), (2, 8)}
          and all(near_hexagon_point_bound(s, t) == bound
                  for (s, t), bound in reference.POINT_BOUND.items())
          and h2.geometry.num_points
          == reference.POINT_BOUND[reference.HEXAGON_ORDER])
    _verdict(7, "near-hexagon point bound values 63 and 819", ok)


def test_criterion_8_oracle_suite(h2, h2dual, h21):
    ok = True

    # all_valuations against brute force on the two small hosts
    for g in (grid_3x3(), h21.geometry):
        ok &= [v.values for v in all_valuations(g)] \
            == brute_force_valuations(g)

    # star algebra (i)(ii)(iii) on every constructed vline
    for bundle in (h21, h2, h2dual):
        vg = bundle.valuation_geometry
        vals = [Valuation(vg.host, tuple(row)) for row in vg.vpoints.tolist()]
        for i, j, k in vg.vlines:
            fi, fj, fk = (vals[x] for x in (i, j, k))
            if not (star(fi, fj).values == star(fj, fi).values == fk.values
                    and star(fi, fk).values == fj.values
                    and star(fj, fk).values == fi.values):
                ok = False
                break

    # nullspace against brute force on random matrices with <= 12 columns
    rng = random.Random(8)
    for _ in range(30):
        rows, cols = rng.randrange(1, 9), rng.randrange(1, 13)
        m = [rng.getrandbits(cols) for _ in range(rows)]
        brute = sorted(v for v in range(1 << cols)
                       if not any((row & v).bit_count() & 1 for row in m))
        spanned = sorted(gf2.from_words(row) for row in
                         gf2.span_words(gf2.nullspace(m, cols), cols))
        ok &= spanned == brute

    # double counting identities on every row of both line tables
    for bundle, table in ((h2dual, reference.VALUATION_TABLE_H2DUAL),
                          (h2, reference.VALUATION_TABLE_H2)):
        size = {row[0]: row[1] for row in table}
        labels = sorted(size, key=len, reverse=True)
        for ltype, counts in bundle.line_table.items():
            mult = {}
            rest = ltype
            while rest:
                label = next(l for l in labels if rest.startswith(l))
                mult[label] = mult.get(label, 0) + 1
                rest = rest[len(label):]
            totals = {size[pt] * c // mult[pt] for pt, c in counts.items()}
            ok &= len(totals) == 1

    _verdict(8, "oracle suite: brute-force valuations, star algebra, "
                "nullspace brute force, double counting", ok)


def test_criterion_9_derived_values(h2, h2dual):
    ok = True
    for bundle in (h2, h2dual):
        ok &= bundle.aut_order == reference.AUT_ORDER
        # class equation: sum over classes of |Aut|/|Stab| = 2^14 - 1
        ok &= sum(bundle.aut_order // c.stabilizer_order
                  for c in bundle.hyperplane_classes) \
            == reference.HYPERPLANE_TOTAL
    rows, n = h2.geometry.line_masks, h2.geometry.num_points
    dim_fwd = n - rank(rows, n)
    dim_rev = n - rank(rows, n, col_order=reversed(range(n)))
    ok &= dim_fwd == dim_rev \
        and (1 << dim_fwd) - 1 == reference.HYPERPLANE_TOTAL
    _verdict(9, "aut orders 12096 via class equation, nullspace dimension "
                "by two elimination orders", ok)
