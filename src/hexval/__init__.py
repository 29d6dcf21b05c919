"""Valuation geometries of the two generalized hexagons of order 2.

The package constructs the split Cayley hexagon H(2) and its dual,
enumerates their hyperplanes and valuations, builds the valuation
geometries and reproduces the full regression tables deterministically.
"""

from .constructions import (build_fano, build_h2, build_h2_dual,
                            build_hexagon_2_1, grid_3x3)
from .geometry import (Geometry, GeometryError, OrderSpec,
                       check_generalized_hexagon, check_near_polygon, dual,
                       enumerate_grids, find_ovoids, from_text,
                       near_hexagon_point_bound, order_of, to_text)
from .hyperplanes import (Hyperplane, HyperplaneClass, classify_hyperplanes,
                          enumerate_hyperplanes)
from .perm import AutGroup, are_isomorphic, automorphism_group
from .pipeline import Bundle, get_bundle
from .valgeom import (ValuationGeometry, build_valuation_geometry,
                      check_lemma_3_1, line_type_table)
from .valuations import Valuation, all_valuations, classify_valuations

__version__ = "0.1.0"

__all__ = [
    "AutGroup", "Bundle", "Geometry", "GeometryError", "Hyperplane",
    "HyperplaneClass", "OrderSpec", "Valuation", "ValuationGeometry",
    "all_valuations", "are_isomorphic", "automorphism_group", "build_fano",
    "build_h2", "build_h2_dual", "build_hexagon_2_1",
    "build_valuation_geometry", "check_generalized_hexagon",
    "check_lemma_3_1", "check_near_polygon", "classify_hyperplanes",
    "classify_valuations", "dual", "enumerate_grids",
    "enumerate_hyperplanes", "find_ovoids", "from_text", "get_bundle",
    "grid_3x3", "line_type_table", "near_hexagon_point_bound", "order_of",
    "to_text",
]
