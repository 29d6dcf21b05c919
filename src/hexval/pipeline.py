"""Lazy, cached computation pipeline for a single geometry.

A Bundle owns a geometry and computes its automorphism group, hyperplane
classification, valuations, valuation-class labels and valuation geometry
on demand, caching each stage. Valuations are one int8 matrix, a row per
valuation in value-vector order, from the search to the report. The
hyperplane class representatives seed one batched valuation search
(``class_valuations``, through ``valuations.valuations_on_hyperplanes``).
One orbit pass, ``valuations.orbit_closure``, closes their rows under
the automorphism generators, looking each image up by its bytes in a
dict of the rows seen, and finds each row's orbit root
(``valuation_closure``); the class sizes times the valuations per
representative must count the closure. ``classification`` labels those
orbits, one label per row. The full sweep over every hyperplane,
``valuations.all_valuations``, runs the same search seeded from the
whole nullspace; it stays as the public function and as the oracle that
needs no automorphism group, and never reads ``hyperplanes``. The line
table is read off the lines through one valuation of each orbit
(``valgeom.class_line_table``), and the Lemma 3.1 input ``vprime()`` is
the valuation geometry of the type-C rows, one orbit, built from the
lines through one of them carried to every row by the automorphism
generators (``valgeom.orbit_valuation_geometry``), so the report never
scans all pairs of valuations or builds the full
``valuation_geometry``. The built-in hexagons are cached at module
level so CLI commands and tests share one computation.
"""
from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Tuple

import numpy as np

from .constructions import build_h2, build_h2_dual, build_hexagon_2_1
from .geometry import Geometry
from .hyperplanes import (Hyperplane, HyperplaneClass, classify_hyperplanes,
                          enumerable_basis, enumerate_hyperplanes,
                          hyperplane_count)
from .perm import AutGroup, automorphism_group
from .valgeom import (ValuationGeometry, build_valuation_geometry,
                      class_line_table, orbit_valuation_geometry)
from .valuations import (ValuationType, find_rows, label_orbits,
                         orbit_closure, valuations_on_hyperplanes)

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
    def aut_group(self) -> AutGroup:
        return automorphism_group(self.geometry)

    @cached_property
    def aut_order(self) -> int:
        return self.aut_group.order()

    @cached_property
    def hyperplanes(self) -> List[Hyperplane]:
        """Every hyperplane, as a list; no other stage reads it."""
        return enumerate_hyperplanes(self.geometry)

    @cached_property
    def hyperplane_count(self) -> int:
        return hyperplane_count(self.geometry)

    @cached_property
    def hyperplane_classes(self) -> List[HyperplaneClass]:
        enumerable_basis(self.geometry)  # refuse before the group search
        return classify_hyperplanes(self.geometry, self.aut_group)

    @cached_property
    def class_valuations(self) -> List[np.ndarray]:
        """The int8 valuation rows on each hyperplane class representative."""
        if not self.geometry.is_connected():
            raise ValueError("valuations require a connected geometry")
        return valuations_on_hyperplanes(
            self.geometry,
            [cls.representative for cls in self.hyperplane_classes])

    @cached_property
    def valuation_closure(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every valuation as an int8 row, in value-vector order, and the
        orbit root of each row: the class representatives' rows closed
        under the automorphism generators (``orbit_closure``).

        An automorphism maps the valuations on one hyperplane onto those
        on its image, so each class contributes its orbit size times the
        valuations on its representative; a different count means one of
        the two orbit computations is wrong (RuntimeError).
        """
        # class_valuations first: on a disconnected host it fails at
        # once, before the group search, which is slow on large groups
        class_vals = self.class_valuations
        empty = np.empty((0, self.geometry.num_points), dtype=np.int8)
        rows, roots = orbit_closure(np.concatenate([empty] + class_vals),
                                    self.aut_group)
        total = sum(len(vals) * cls.orbit_size
                    for vals, cls in zip(class_vals, self.hyperplane_classes))
        if total != len(rows):
            raise RuntimeError(
                f"hyperplane classes carry {total} valuations, the orbits "
                f"of their representatives' valuations hold {len(rows)}")
        return rows, roots

    @cached_property
    def valuations(self) -> np.ndarray:
        """Every valuation as an int8 row, in value-vector order."""
        return self.valuation_closure[0]

    @cached_property
    def classification(self) -> Tuple[List[ValuationType], List[str]]:
        """The valuation classes and the label of each valuation row."""
        return label_orbits(self.geometry, *self.valuation_closure)

    @property
    def valuation_types(self) -> List[ValuationType]:
        return self.classification[0]

    @property
    def type_labels(self) -> List[str]:
        return self.classification[1]

    @cached_property
    def valuation_geometry(self) -> ValuationGeometry:
        """The full valuation geometry; no other stage reads it."""
        return build_valuation_geometry(self.geometry, self.valuations,
                                        self.type_labels)

    @cached_property
    def line_table(self) -> Dict[str, Dict[str, int]]:
        """Lines of each type through a point of each valuation class,
        from the lines through one valuation per orbit."""
        return class_line_table(self.geometry, self.valuations,
                                self.type_labels)

    @cached_property
    def ovoids(self) -> List[Tuple[int, ...]]:
        """The ovoids, ascending: the zero sets of the valuations of
        maximum 1, exactly those with one 0 on each (3-point) line."""
        vals = self.valuations
        return sorted(tuple(np.flatnonzero(row == 0).tolist())
                      for row in vals[vals.max(axis=1, initial=0) == 1])

    def vprime(self) -> ValuationGeometry:
        """The Type-C/CCC restriction of the valuation geometry, built on
        the type-C valuations alone: a line with all three points of type
        C is exactly a CCC line. A label names one orbit, so the lines
        through one type-C valuation, carried to every type-C valuation
        by the automorphism generators, are all of them
        (``orbit_valuation_geometry``). With no type-C valuation it is
        the empty geometry on the host, returned before any row check or
        kernel runs."""
        type_c = [i for i, label in enumerate(self.type_labels)
                  if label == "C"]
        if not type_c:
            return ValuationGeometry(self.geometry, self.valuations[:0], [],
                                     [], [])
        return orbit_valuation_geometry(
            self.geometry, self.valuations[type_c], ["C"] * len(type_c),
            self.aut_group.generators)

    # -- valuations per hyperplane class ---------------------------------

    @cached_property
    def valuations_per_class(self) -> List[int]:
        """Number of valuations carried by each hyperplane class."""
        return [len(vals) for vals in self.class_valuations]

    def class_valuations_isomorphic(self, class_index: int) -> bool:
        """Whether all valuations on one representative hyperplane lie in
        a single automorphism orbit, that is, carry one class label."""
        rows = find_rows(self.valuations, self.class_valuations[class_index])
        return len({self.type_labels[i] for i in rows.tolist()}) <= 1


_BUNDLES: Dict[str, Bundle] = {}


def get_bundle(name: str) -> Bundle:
    """Shared Bundle for a built-in geometry name (h2, h2dual, h21)."""
    if name not in BUILTIN_BUILDERS:
        raise KeyError(f"unknown geometry name {name!r}; "
                       f"choose from {sorted(BUILTIN_BUILDERS)}")
    if name not in _BUNDLES:
        _BUNDLES[name] = Bundle(BUILTIN_BUILDERS[name](), name)
    return _BUNDLES[name]
