"""
Valuations of the order-2 hexagons
==================================

A valuation assigns an integer to every point so that each line has a
unique minimum, all other points of the line sit one above it, and the
global minimum is 0. Classical valuations measure distance from a fixed
point; ovoidal valuations are 0 on an ovoid and 1 elsewhere.
"""
from hexval import get_bundle

bundle = get_bundle("h2")
g = bundle.geometry

# the classical valuation at point 0 is just the distance function: its
# row of the distance matrix
f = g.dist[0]
top = max(f)
print("classical valuation: max", top,
      "zeros", tuple(p for p, v in enumerate(f) if v == 0),
      "hyperplane size", sum(v < top for v in f))

# each ovoid gives an ovoidal valuation with maximum value 1: 0 on the
# ovoid, 1 elsewhere; the ovoids are the zero sets of those valuations
ovoid = bundle.ovoids[0]
print("ovoidal valuation: max 1, zeros", ovoid)

# all valuations are generated hyperplane by hyperplane: zeros seeded on
# the complement, line propagation, then a small branch-and-filter. The
# bundle searches one hyperplane per class and closes the result under
# the automorphism group; it holds one int8 row per valuation
vals = bundle.valuations
print("valuations of H(2):", len(vals), "rows of", vals.shape[1], "values")

# the automorphism group splits them into 7 classes; the table records
# class size, maximum value, zero-set and hyperplane sizes and the
# count of points carrying each value
print("\nType   #    M_f |O_f| |H_f| distribution")
for t in bundle.valuation_types:
    st = t.stats
    print(f"{t.label:4s} {t.class_size:5d} {st.max_value:3d} "
          f"{len(st.zero_set):5d} {st.hyperplane_size:5d} "
          f"{list(st.distribution)}")

# the dual hexagon has 1575 valuations in 4 classes
dual_bundle = get_bundle("h2dual")
print("\nvaluations of H^D(2):", len(dual_bundle.valuations))
for t in dual_bundle.valuation_types:
    print(f"  {t.label}: {t.class_size}")
