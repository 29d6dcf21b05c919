"""
Valuation geometries and the Type-C subgeometry
===============================================

Two valuations f1, f2 are neighboring when |f1(x) - f2(x) + eps| <= 1
for some fixed eps in {-1, 0, 1} and all points x. Every neighboring
pair determines a third valuation f1 * f2, and the triples {f1, f2,
f1 * f2} are the lines of the valuation geometry.
"""
from hexval import check_lemma_3_1, get_bundle

bundle = get_bundle("h2dual")

# points: the 1575 valuations of H^D(2); every line is star-closed
vg = bundle.valuation_geometry
print("valuation geometry:", len(vg.vpoints), "points,",
      len(vg.vlines), "lines")

# the points are the rows of one int8 matrix; a line is three rows, any
# two of which are neighboring with the third as their star (values 0..3,
# one digit per point of H^D(2))
print("first line:")
for x in vg.vlines[0]:
    print(f"  {x:4d} {vg.point_types[x]}",
          "".join(map(str, vg.vpoints[x].tolist())))

# line types are sorted strings of the point-type labels; the table
# counts the lines through one valuation of each point type, and a double
# count checks it: for each line type, |P| x (lines through a P-point) /
# (multiplicity of P on the line) is the same number for every point type P
print("\nlines per point, by type:")
for ltype, counts in bundle.line_table.items():
    print(f"  {ltype:4s} {counts}")

# restricting to Type-C points and CCC lines gives a 252-point geometry
# with 8 lines per point; it is the valuation geometry of the type-C
# valuations alone
vprime = bundle.vprime()
print("\nType-C/CCC restriction:", len(vprime.vpoints), "points,",
      len(vprime.vlines), "lines")

# its structural checks: connectivity, zero-point distances for
# collinear and grid-opposite pairs, 16 grid completions per point,
# and no triangles
report = check_lemma_3_1(vprime, bundle.geometry)
print("connected:", report.connected)
print("collinear zero-points at distance 3:",
      report.collinear_zero_distance)
print("grid zero-points at distance 3:", report.grid_zero_distance)
print("16 grid completions per point:", report.grids_per_point_16,
      f"({report.total_grids} distinct grids)")
print("triangle-free:", report.triangle_free)
