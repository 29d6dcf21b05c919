"""Lazy, cached computation pipeline for a single geometry.

A Bundle owns a geometry and computes its automorphism group, hyperplane
classification, valuations, valuation-class labels and valuation geometry
on demand, caching each stage. The valuations carried by each hyperplane
class are computed once, on the class representative; the per-class
counts, labels and isomorphism checks all read that one stage. The
built-in hexagons are cached at module level so CLI commands and tests
share one computation.
"""
from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Optional, Tuple

from .constructions import build_h2, build_h2_dual, build_hexagon_2_1
from .geometry import Geometry, find_ovoids
from .hyperplanes import (Hyperplane, HyperplaneClass, classify_hyperplanes,
                          enumerate_hyperplanes)
from .perm import PermGroup, automorphism_group
from .valgeom import (ValuationGeometry, build_valuation_geometry,
                      line_type_table, restrict)
from .valuations import (Valuation, ValuationType, all_valuations,
                         classify_valuations, valuations_from_hyperplane)

BUILTIN_BUILDERS = {
    "h2": build_h2,
    "h2dual": build_h2_dual,
    "h21": build_hexagon_2_1,
}


class Bundle:
    """Cached derived data for one geometry."""

    def __init__(self, geometry: Geometry, name: str = ""):
        self.geometry = geometry
        self.name = name or geometry.name

    @cached_property
    def aut_group(self) -> PermGroup:
        return automorphism_group(self.geometry)

    @cached_property
    def aut_order(self) -> int:
        return self.aut_group.order()

    @cached_property
    def hyperplanes(self) -> List[Hyperplane]:
        return enumerate_hyperplanes(self.geometry)

    @cached_property
    def hyperplane_classes(self) -> List[HyperplaneClass]:
        return classify_hyperplanes(self.geometry, self.aut_group,
                                    self.hyperplanes)

    @cached_property
    def valuations(self) -> List[Valuation]:
        return all_valuations(self.geometry, self.hyperplanes)

    @cached_property
    def classification(self) -> Tuple[List[ValuationType],
                                      Dict[Tuple[int, ...], str]]:
        return classify_valuations(self.geometry, self.aut_group,
                                   self.valuations)

    @property
    def valuation_types(self) -> List[ValuationType]:
        return self.classification[0]

    @property
    def type_labels(self) -> Dict[Tuple[int, ...], str]:
        return self.classification[1]

    @cached_property
    def valuation_geometry(self) -> ValuationGeometry:
        return build_valuation_geometry(self.geometry, self.valuations,
                                        self.type_labels)

    @cached_property
    def line_table(self) -> Dict[str, Dict[str, int]]:
        return line_type_table(self.valuation_geometry)

    @cached_property
    def ovoids(self) -> List[Tuple[int, ...]]:
        return find_ovoids(self.geometry)

    def vprime(self, point_types=("C",), line_types=("CCC",)):
        return restrict(self.valuation_geometry, point_types, line_types)

    # -- valuations per hyperplane class ---------------------------------

    @cached_property
    def class_valuations(self) -> List[List[Valuation]]:
        """The valuations carried by each hyperplane class representative.

        Each class carries the same number on every member, so the
        weighted total must equal the global valuation count.
        """
        per_class = [valuations_from_hyperplane(self.geometry,
                                                cls.representative)
                     for cls in self.hyperplane_classes]
        total = sum(len(vals) * cls.orbit_size
                    for vals, cls in zip(per_class, self.hyperplane_classes))
        if total != len(self.valuations):
            raise RuntimeError(
                f"hyperplane classes carry {total} valuations, "
                f"the full sweep found {len(self.valuations)}")
        return per_class

    @cached_property
    def valuations_per_class(self) -> List[int]:
        """Number of valuations carried by each hyperplane class."""
        return [len(vals) for vals in self.class_valuations]

    def class_valuations_isomorphic(self, class_index: int) -> bool:
        """Whether all valuations on one representative hyperplane lie in
        a single automorphism orbit.

        classify_valuations checks that each label is one orbit, except
        that every valuation of maximum 1 is labelled C; a hyperplane
        carries at most one of those, so on one hyperplane the labels
        tell the orbits apart.
        """
        vals = self.class_valuations[class_index]
        return len({self.type_labels[v.values] for v in vals}) <= 1

    def valuation_class_labels_per_hyperplane_class(self) -> List[Optional[str]]:
        """For each hyperplane class, the valuation-type label of the
        valuations it carries (None if it carries none)."""
        labels: List[Optional[str]] = []
        for idx, vals in enumerate(self.class_valuations):
            found = {self.type_labels[v.values] for v in vals}
            if len(found) > 1:
                raise RuntimeError(f"hyperplane class {idx} carries "
                                   f"valuations of types {sorted(found)}")
            labels.append(found.pop() if found else None)
        return labels


_BUNDLES: Dict[str, Bundle] = {}


def get_bundle(name: str) -> Bundle:
    """Shared Bundle for a built-in geometry name (h2, h2dual, h21)."""
    if name not in BUILTIN_BUILDERS:
        raise KeyError(f"unknown geometry name {name!r}; "
                       f"choose from {sorted(BUILTIN_BUILDERS)}")
    if name not in _BUNDLES:
        _BUNDLES[name] = Bundle(BUILTIN_BUILDERS[name](), name)
    return _BUNDLES[name]
