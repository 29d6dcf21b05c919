"""Semi-valuations and valuations of 3-points-per-line geometries.

A valuation assigns an integer to every point so that each line has a
unique minimum and the remaining points sit one above it, with global
minimum 0. Valuations are generated hyperplane by hyperplane: zeros are
seeded on the hyperplane complement, line propagation closes the partial
assignment, undefined points branch over -1 .. -diameter, and completions
are shifted so the minimum becomes 0. The host must be connected: a
disconnected one has infinitely many valuations.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .geometry import INF, Geometry
from .hyperplanes import Hyperplane, enumerate_hyperplanes
from .perm import PermGroup, orbit_of_function

FAIL = object()


@dataclass(frozen=True)
class Valuation:
    """Integer point function with the per-line semi-valuation property
    and minimum value 0."""

    host: Geometry
    values: Tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != self.host.num_points:
            raise ValueError("value vector length mismatch")

    def max_value(self) -> int:
        return max(self.values)

    def zero_set(self) -> Tuple[int, ...]:
        return tuple(p for p, v in enumerate(self.values) if v == 0)

    def hyperplane(self) -> Hyperplane:
        """H_f: the set of points with non-maximal value."""
        top = self.max_value()
        bits = sum(1 << p for p, v in enumerate(self.values) if v < top)
        return Hyperplane(self.host.num_points, bits)


@dataclass(frozen=True)
class ValuationStats:
    max_value: int
    zero_set: Tuple[int, ...]
    hyperplane_size: int
    distribution: Tuple[int, ...]


@dataclass(frozen=True)
class ValuationType:
    label: str
    class_size: int
    stats: ValuationStats


def is_semi_valuation(g: Geometry, values: Sequence[int]) -> bool:
    """Each line has a unique minimum; other points are one above it."""
    for line in g.lines:
        vals = [values[p] for p in line]
        low = min(vals)
        if vals.count(low) != 1 or max(vals) > low + 1:
            return False
    return True


def is_valuation(g: Geometry, values: Sequence[int]) -> bool:
    return min(values) == 0 and is_semi_valuation(g, values)


def classical_valuation(g: Geometry, center: int) -> Valuation:
    """f(y) = d(center, y)."""
    row = g.dist[center]
    if any(d == float("inf") for d in row):
        raise ValueError("classical valuation requires a connected geometry")
    return Valuation(g, tuple(int(d) for d in row))


def ovoidal_valuation(g: Geometry, ovoid: Sequence[int]) -> Valuation:
    members = set(ovoid)
    return Valuation(g, tuple(0 if p in members else 1
                              for p in range(g.num_points)))


# -- partial valuations (line propagation) -------------------------------


class PartialValuation:
    """Partially defined point values, closed under line propagation.

    The defined set is a subspace: whenever two points of a line carry
    values, the third is determined (equal values a,a force a-1; values
    a,a+1 force a+1; a gap of 2 or more is impossible).
    """

    __slots__ = ("host", "values", "defined_count")

    def __init__(self, host: Geometry, values: List[Optional[int]],
                 defined_count: int):
        self.host = host
        self.values = values
        self.defined_count = defined_count

    @classmethod
    def empty(cls, host: Geometry) -> "PartialValuation":
        return cls(host, [None] * host.num_points, 0)

    def is_complete(self) -> bool:
        return self.defined_count == self.host.num_points

    def copy(self) -> "PartialValuation":
        return PartialValuation(self.host, self.values[:], self.defined_count)


def _propagate(pv: PartialValuation, dirty: List[int]):
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


def assign_value(pv: PartialValuation, x: int, value: int):
    """Smallest partial valuation extending pv with pv(x) = value, or FAIL."""
    if pv.values[x] is not None:
        raise ValueError(f"point {x} already defined")
    new = pv.copy()
    new.values[x] = value
    new.defined_count += 1
    return _propagate(new, [x])


def valuations_from_hyperplane(g: Geometry, hyp: Hyperplane) -> List[Valuation]:
    """All valuations whose non-maximal-value set is exactly hyp.

    Seeds value 0 on the complement of hyp, branches undefined points over
    -1 .. -diameter (lowest-index point first), normalizes completions to
    minimum 0 and keeps those whose maximal-value set equals the
    complement. No lower value can occur: a valuation changes by at most
    1 along a line, so its values span at most the diameter.
    """
    diam = g.diameter()
    if diam == INF:
        raise ValueError("valuations require a connected geometry")
    depths = range(-1, -diam - 1, -1)
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


def all_valuations(g: Geometry, hyps: Optional[List[Hyperplane]] = None
                   ) -> List[Valuation]:
    """Every valuation of g, in canonical (value-vector) order.

    hyps is the output of enumerate_hyperplanes(g), enumerated here when
    not given.
    """
    if not g.is_connected():
        raise ValueError("valuations require a connected geometry")
    if hyps is None:
        hyps = enumerate_hyperplanes(g)
    seen = set()
    for hyp in hyps:
        for val in valuations_from_hyperplane(g, hyp):
            seen.add(val.values)
    return [Valuation(g, v) for v in sorted(seen)]


def brute_force_valuations(g: Geometry) -> List[Tuple[int, ...]]:
    """Independent oracle: depth-first enumeration of all point functions
    with values in 0..diameter satisfying the per-line rule and min 0.

    Values of a min-0 valuation never exceed the diameter (stepping along
    a geodesic from a zero point changes the value by at most 1 per hop).
    The search always branches on the unassigned point with the most
    assigned line-mates, so completed lines prune early.
    """
    diam = g.diameter()
    if diam == float("inf"):
        raise ValueError("geometry must be connected")
    diam = int(diam)
    n = g.num_points
    values: List[Optional[int]] = [None] * n
    out: List[Tuple[int, ...]] = []

    def line_ok(li: int) -> bool:
        known = [values[p] for p in g.lines[li] if values[p] is not None]
        if len(known) < len(g.lines[li]):
            # partial: still satisfiable iff spread <= 1
            return max(known) - min(known) <= 1
        vals = sorted(known)
        return vals.count(vals[0]) == 1 and all(v == vals[0] + 1
                                                for v in vals[1:])

    def pick() -> int:
        best, best_score = -1, (-1, -1)
        for p in range(n):
            if values[p] is not None:
                continue
            assigned_mates = sum(
                1 for li in g.lines_through[p]
                for q in g.lines[li] if q != p and values[q] is not None)
            score = (assigned_mates, -p)
            if score > best_score:
                best, best_score = p, score
        return best

    def rec(assigned: int):
        if assigned == n:
            if 0 in values:
                out.append(tuple(values))
            return
        p = pick()
        for v in range(diam + 1):
            values[p] = v
            if all(line_ok(li) for li in g.lines_through[p]):
                rec(assigned + 1)
        values[p] = None

    rec(0)
    return sorted(out)


# -- statistics and classification ---------------------------------------


def valuation_stats(val: Valuation, width: Optional[int] = None) -> ValuationStats:
    top = val.max_value()
    if width is None:
        diam = val.host.diameter()
        width = int(diam) + 1 if diam != float("inf") else top + 1
    dist = [0] * max(width, top + 1)
    for v in val.values:
        dist[v] += 1
    return ValuationStats(
        max_value=top,
        zero_set=val.zero_set(),
        hyperplane_size=val.hyperplane().size(),
        distribution=tuple(dist))


def classify_valuations(g: Geometry, group: PermGroup,
                        vals: Optional[List[Valuation]] = None
                        ) -> Tuple[List[ValuationType], Dict[Tuple[int, ...], str]]:
    """Partition valuations into isomorphism classes and label them.

    Classification keys on the value distribution, then verifies that each
    distribution class is a single automorphism orbit (aborts otherwise).
    Labels follow the classical/intermediate/ovoidal convention: the class
    of classical valuations is A, ovoidal classes (max value 1) are C, and
    everything in between gets B (with subscripts B1, B2, ... when there
    are several, ordered by zero-set size then hyperplane size).
    """
    if vals is None:
        vals = all_valuations(g)
    by_dist: Dict[Tuple[int, ...], List[Valuation]] = {}
    for val in vals:
        by_dist.setdefault(valuation_stats(val).distribution, []).append(val)
    for dist, members in by_dist.items():
        orbit = orbit_of_function(group, members[0].values)
        if sorted(v.values for v in members) != orbit:
            raise RuntimeError(
                f"distribution {dist} does not form a single orbit")
    classical_dist = valuation_stats(classical_valuation(g, 0)).distribution

    def sort_key(item):
        dist, members = item
        st = valuation_stats(members[0])
        return (-st.max_value, len(st.zero_set), st.hyperplane_size, dist)

    ordered = sorted(by_dist.items(), key=sort_key)
    middle = [d for d, _ in ordered
              if d != classical_dist
              and valuation_stats(by_dist[d][0]).max_value > 1]
    labels: Dict[Tuple[int, ...], str] = {}
    next_plain = 0
    has_ovoidal = any(valuation_stats(m[0]).max_value == 1
                      for m in by_dist.values())
    for dist, members in ordered:
        st = valuation_stats(members[0])
        if dist == classical_dist:
            labels[dist] = "A"
        elif st.max_value == 1:
            labels[dist] = "C"
        elif has_ovoidal:
            if len(middle) == 1:
                labels[dist] = "B"
            else:
                labels[dist] = f"B{middle.index(dist) + 1}"
        else:
            labels[dist] = chr(ord("B") + next_plain)
            next_plain += 1
    types = []
    for dist, members in ordered:
        types.append(ValuationType(
            label=labels[dist],
            class_size=len(members),
            stats=valuation_stats(members[0])))
    point_labels = {val.values: labels[valuation_stats(val).distribution]
                    for val in vals}
    return types, point_labels
