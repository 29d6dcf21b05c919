"""
Hyperplanes of a 3-points-per-line geometry
===========================================

A hyperplane is a proper point set meeting every line in one or all of
its points. For geometries with 3 points per line, complements of
hyperplanes are exactly the nonzero vectors of the GF(2) nullspace of
the line-point incidence matrix, so the whole family can be enumerated
by linear algebra instead of backtracking.
"""
from hexval import get_bundle

bundle = get_bundle("h2")

# the incidence matrix of H(2) has nullity 14: 2^14 - 1 hyperplanes
print("hyperplanes of H(2):", bundle.hyperplane_count)

# the automorphism group (order 12096, computed by backtracking with
# distance-profile pruning) partitions them into isomorphism classes;
# size is an orbit invariant, so the class representatives give the
# smallest and largest size without listing every hyperplane
classes = bundle.hyperplane_classes
sizes = [c.representative.size() for c in classes]
print("smallest:", min(sizes), "largest:", max(sizes))
print("automorphism group order:", bundle.aut_order)
print("isomorphism classes:", len(classes))

# the class equation recovers the total: sum of orbit sizes = 2^14 - 1
print("class equation total:", sum(c.orbit_size for c in classes))

# per-class summary: size, orbit, stabilizer and how many valuations
# have this hyperplane as their set of non-maximal-value points
print("\nsize orbit stab valuations")
for cls, nvals in zip(classes, bundle.valuations_per_class):
    print(f"{cls.representative.size():4d} {cls.orbit_size:5d} "
          f"{cls.stabilizer_order:4d} {nvals:10d}")
