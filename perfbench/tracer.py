"""Spans around the calls into each hexval layer, recorded from outside.

``Tracer.install`` replaces the public functions of each layer, in every
hexval module namespace that refers to them, by wrappers that record a
span (name, start, end, parent) in memory; the ``Bundle`` stages are
wrapped the same way. Nothing in the program changes on disk. Spans of
one pass share the pass id the worker reports them under.

A layer's self time is its span duration minus the time its child spans
cover; counts are taken from the outputs at the span boundary.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import cached_property

#: module -> {public function: span name}
TARGETS = {
    "hexval.constructions": {
        "build_h2": "constructions.build",
        "build_h2_dual": "constructions.build",
        "build_fano": "constructions.build",
        "build_hexagon_2_1": "constructions.build",
        "grid_3x3": "constructions.build",
    },
    "hexval.geometry": {
        "from_text": "geometry.parse",
        "check_near_polygon": "geometry.validate",
        "check_generalized_hexagon": "geometry.validate",
        "order_of": "geometry.validate",
        "find_ovoids": "geometry.ovoids",
        "enumerate_grids": "geometry.grids",
    },
    "hexval.gf2": {"nullspace": "gf2.nullspace"},
    "hexval.perm": {
        "automorphism_group": "perm.aut",
        "are_isomorphic": "perm.iso",  # perm.noniso when it returns None
    },
    "hexval.hyperplanes": {
        "enumerate_hyperplanes": "hyperplanes.enumerate",
        "classify_hyperplanes": "hyperplanes.classify",
    },
    "hexval.valuations": {
        "all_valuations": "valuations.all",
        "classify_valuations": "valuations.classify",
    },
    "hexval.valgeom": {
        "build_valuation_geometry": "valgeom.build",
        "line_type_table": "valgeom.line_table",
        "check_lemma_3_1": "valgeom.lemma",
        "restrict": "valgeom.lemma",  # only the lemma's input uses it
    },
}

#: span name -> what to keep from the result for the pass counts
_KEEP = {
    "perm.aut": lambda group: (group.order(), len(group.generators)),
    "hyperplanes.enumerate": len,
    "hyperplanes.classify": len,
    "valuations.all": lambda vals: (
        len(vals), len({v.hyperplane().member_bits for v in vals})),
    "valgeom.build": lambda vg: len(vg.vlines),
}

NAME, START, END, PARENT, KEPT = range(5)


class Tracer:
    """In-memory span recorder for one pass."""

    def __init__(self):
        self.spans: list = []
        self._open: list = []
        self._undo: list = []

    # -- recording -------------------------------------------------------

    def _begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self._open.append(idx)
        self.spans.append([name, 0.0, 0.0, parent, None])
        self.spans[idx][START] = time.perf_counter()
        return idx

    def _end(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._begin(name)
        try:
            yield
        finally:
            self._end(idx)

    def _wrap(self, name: str, fn):
        keep = _KEEP.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(idx)
            if name == "perm.iso" and result is None:
                self.spans[idx][NAME] = "perm.noniso"
            if keep is not None:
                self.spans[idx][KEPT] = keep(result)
            return result
        return traced

    # -- patching --------------------------------------------------------

    def install(self) -> "Tracer":
        modules = [m for key, m in sys.modules.items()
                   if key == "hexval" or key.startswith("hexval.")]
        for modname, funcs in TARGETS.items():
            home = sys.modules[modname]
            for attr, name in funcs.items():
                original = getattr(home, attr)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    if getattr(mod, attr, None) is original:
                        self._patch(mod, attr, wrapper)
        pipeline = sys.modules["hexval.pipeline"]
        builders = pipeline.BUILTIN_BUILDERS
        for key, fn in list(builders.items()):
            self._undo.append((builders.__setitem__, key, fn))
            builders[key] = self._wrap("constructions.build", fn)
        bundle = pipeline.Bundle
        for attr, stage in list(vars(bundle).items()):
            if isinstance(stage, cached_property):
                wrapped = cached_property(self._wrap(f"pipeline.{attr}",
                                                     stage.func))
                wrapped.__set_name__(bundle, attr)
                self._patch(bundle, attr, wrapped)
        return self

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((functools.partial(setattr, owner), attr,
                           getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            restore, key, value = self._undo.pop()
            restore(key, value)

    # -- summary ---------------------------------------------------------

    def summary(self, t0: float, wall: float) -> dict:
        """Self times, counts and coverage of the pass that started at t0
        and took wall seconds."""
        children = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] is not None:
                children[span[PARENT]] += span[END] - span[START]
        self_s = defaultdict(float)
        cli_self_ms = defaultdict(list)
        covered = 0.0
        counts = defaultdict(int)
        distinct = swept = 0
        for idx, span in enumerate(self.spans):
            name, dur = span[NAME], span[END] - span[START]
            own = dur - children[idx]
            self_s[name] += own
            if span[PARENT] is None:
                covered += dur
            if name.startswith("cli.") and name != "cli.report":
                cli_self_ms[name[4:]].append(own * 1e3)
            kept = span[KEPT]
            if kept is None:
                continue
            if name == "perm.aut":
                counts["perm.aut_order"] += kept[0]
                counts["perm.aut_generators"] += kept[1]
            elif name == "hyperplanes.enumerate":
                counts["hyperplanes.count"] += kept
            elif name == "hyperplanes.classify":
                counts["hyperplanes.classes"] += kept
            elif name == "valgeom.build":
                counts["valgeom.lines"] += kept
            elif name == "valuations.all":
                counts["valuations.count"] += kept[0]
                distinct += kept[1]
                swept += sum(s[KEPT] for s in self.spans
                             if s[PARENT] == idx
                             and s[NAME] == "hyperplanes.enumerate")
        return {
            "self_s": dict(self_s),
            "counts": dict(counts),
            "yield": [distinct, swept],
            "coverage": covered / wall if wall > 0 else 0.0,
            "cli_self_ms": dict(cli_self_ms),
            "spans": [[s[NAME], round(s[START] - t0, 7),
                       round(s[END] - t0, 7), s[PARENT]]
                      for s in self.spans],
        }
