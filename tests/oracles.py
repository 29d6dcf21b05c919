"""Scalar reference definitions that the array paths of hexval are
tested against.

The library computes valuations, neighboring pairs and their star as
rows of one int8 matrix (``valuations._non_valuation_rows``,
``valgeom._epsilon_interval``, ``valgeom._star_rows``). Here the same
notions are written out one valuation at a time, straight from their
definitions: the per-line semi-valuation rule, the epsilon of a
neighboring pair and the star f1 * f2. Next to them are the generic
orbit closure and an elimination rank over GF(2), which the library no
longer needs in general form.
"""
import functools
from typing import Callable, Hashable, Iterable, Optional, Sequence, Tuple

from hexval.geometry import Geometry
from hexval.valuations import Valuation

EQUAL = "equal"


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


@functools.cache
def is_valid(f: Valuation) -> bool:
    """Whether f's values form a valuation of its host, checked once per
    (host, values): equal Valuation objects share one hash and one
    cache entry."""
    return is_valuation(f.host, f.values)


def zero_set(f: Valuation) -> Tuple[int, ...]:
    return tuple(p for p, v in enumerate(f.values) if v == 0)


def classical_valuation(g: Geometry, center: int) -> Valuation:
    """f(y) = d(center, y)."""
    row = g.dist[center]
    if -1 in row:
        raise ValueError("classical valuation requires a connected geometry")
    return Valuation(g, tuple(row))


def ovoidal_valuation(g: Geometry, ovoid: Sequence[int]) -> Valuation:
    members = set(ovoid)
    return Valuation(g, tuple(0 if p in members else 1
                              for p in range(g.num_points)))


def are_neighboring(f1: Valuation, f2: Valuation):
    """The unique epsilon in {-1, 0, 1} with |f1(x) - f2(x) + eps| <= 1
    for all x; EQUAL when f1 = f2; None when not neighboring."""
    if f1.host is not f2.host and f1.host.lines != f2.host.lines:
        raise ValueError("valuations live on different hosts")
    if f1.values == f2.values:
        return EQUAL
    lo = min(a - b for a, b in zip(f1.values, f2.values))
    hi = max(a - b for a, b in zip(f1.values, f2.values))
    eps_candidates = [e for e in (-1, 0, 1) if -1 - lo <= e <= 1 - hi]
    if not eps_candidates:
        return None
    if len(eps_candidates) > 1:
        raise ValueError(
            f"epsilon not unique for distinct valuations: {eps_candidates}")
    return eps_candidates[0]


def star(f1: Valuation, f2: Valuation) -> Valuation:
    """The third valuation f1 * f2 of a neighboring pair.

    f3'(x) = f1(x) - 1 where f1(x) = f2(x) - eps, else
    max(f1(x), f2(x) - eps); the result is shifted by its minimum.
    Raises ValueError when an argument is not a valuation or the pair is
    not neighboring.
    """
    for which, f in (("first", f1), ("second", f2)):
        if not is_valid(f):
            raise ValueError(f"{which} argument is not a valuation: "
                             f"{f.values}")
    eps = are_neighboring(f1, f2)
    if eps is None:
        raise ValueError("valuations are not neighboring")
    if eps is EQUAL:
        return f1
    raw = []
    for a, b in zip(f1.values, f2.values):
        b = b - eps
        raw.append(a - 1 if a == b else max(a, b))
    m = min(raw)
    if m not in (-1, 0, 1):
        raise RuntimeError(f"star shifts by {m}, outside -1..1")
    out = Valuation(f1.host, tuple(v - m for v in raw))
    if not is_valid(out):
        raise RuntimeError(f"star of neighboring valuations is not a "
                           f"valuation: {out.values}")
    return out


def orbit(generators: Sequence, start: Hashable,
          act: Callable[[object, Hashable], Hashable]) -> set:
    """Orbit of start under the group the generators generate; act(g, x)
    is the image of x under the generator g, in whatever form act reads
    (a permutation, or a table derived from one). The search closes the
    set under the generators, which suffices because the group is
    finite."""
    seen = {start}
    queue = [start]
    while queue:
        x = queue.pop()
        for g in generators:
            y = act(g, x)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


def rank(rows: Iterable[int], cols: int,
         col_order: Optional[Iterable[int]] = None) -> int:
    """GF(2) rank of the int rows over the columns 0..cols-1, reducing
    each row in col_order (ascending by default) against one basis row
    per pivot column."""
    order = list(range(cols) if col_order is None else col_order)
    basis = {}
    for row in rows:
        for col in order:
            if row >> col & 1:
                if col not in basis:
                    basis[col] = row
                    break
                row ^= basis[col]
    return len(basis)
