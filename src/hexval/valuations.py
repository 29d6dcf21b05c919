"""Valuations of 3-points-per-line geometries, as rows of int8 matrices.

A valuation assigns an integer to every point so that each line has a
unique minimum and the remaining points sit one above it, with global
minimum 0. Every check of that rule here runs on whole matrices
(``_non_valuation_rows``); the scalar definitions the rows are tested
against live with the tests, in ``tests/oracles.py``.
``all_valuations`` returns a ``Valuations``: the host and its valuations
held once, as the sorted distinct int8 matrix ``rows``, which
``classify_valuations`` hands to the orbit pass as it is. Its items are
``Valuation`` records, a host and a value tuple, built only when read.
They stay records rather than bare rows while perfbench's tracer reads
``v.hyperplane()`` from each item of ``all_valuations``; once perfbench
takes its counts from the matrix, ``all_valuations`` can return ``rows``
alone.

Valuations are generated hyperplane by hyperplane: the search starts
from 0 on the hyperplane complement and -1 on the points collinear with
it, the layer the line rule forces first; line propagation closes the
partial assignment, undefined points branch over -1 .. -diameter, and
completions are shifted so the minimum becomes 0. The host must be
connected: a disconnected one has infinitely many valuations.

One search does this for many hyperplanes at once. The hyperplane
complements are first screened bit-sliced, 64 seeds per machine word of
their transposed point masks: a seed whose start row already puts a
whole line at -1 is dropped. Each survivor seeds one row of an int8 value
matrix, read off the screen's point columns of the complements and of
their -1 layers, and the line rule is applied to them in blocks of
``_BLOCK_ROWS`` per step until nothing changes.
``valuations_on_hyperplanes`` seeds it with given hyperplanes, such as
the class representatives; ``all_valuations`` with every nonzero vector
of the incidence nullspace. Both keep rows in value-vector order, the
byte order of ``row_keys``.
``orbit_closure`` closes rows under the automorphism generators and
finds their orbits in the same pass, keeping a dict from each row's
bytes to its discovery index as the set of rows seen and sorting once
at the end; ``label_orbits`` names the orbits, the valuation classes,
from the statistics of their smallest rows.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Dict, Iterator, List, Tuple, Union

import numpy as np

from . import gf2
from .geometry import Geometry, GeometryError
from .hyperplanes import Hyperplane, enumerable_basis, _orbit_labels
from .perm import AutGroup

#: most value rows the valuation search propagates together (the
#: screened seeds read into start rows at once, and each piece of a
#: branched frontier), and that find_rows compares at once
_BLOCK_ROWS = 512
#: an undefined point in the int8 value rows of the valuation search
UNDEF = np.int8(np.iinfo(np.int8).max)
#: (shift, mask) of the three block swaps that transpose the 8 x 8 bit
#: matrix in a uint64, byte r holding row r
_TRANSPOSE8 = tuple((np.uint64(s), np.uint64(m)) for s, m in (
    (7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC),
    (28, 0x00000000F0F0F0F0)))


@dataclass(frozen=True)
class Valuation:
    """One valuation of the host, an item of Valuations: an integer point
    function with the per-line semi-valuation property and minimum value
    0."""

    host: Geometry
    values: Tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != self.host.num_points:
            raise ValueError("value vector length mismatch")

    def hyperplane(self) -> Hyperplane:
        """H_f: the set of points with non-maximal value."""
        top = max(self.values)
        bits = sum(1 << p for p, v in enumerate(self.values) if v < top)
        return Hyperplane(self.host.num_points, bits)


class Valuations(Sequence):
    """Valuations of one host, held once as the sorted distinct int8
    matrix rows, a read-only row per valuation in value-vector order.

    An item is the Valuation record of one row, built when it is read; a
    slice is the Valuations of the rows it selects, so it keeps
    value-vector order. It equals another Valuations of the same host and
    rows, and any sequence of the same records in the same order. Rows
    whose width is not the host's point count, or with a negative value,
    which would break the byte order of row_keys, raise ValueError.
    """

    def __init__(self, host: Geometry, rows) -> None:
        rows = np.asarray(rows, dtype=np.int8)
        if rows.ndim == 1 and not rows.size:  # an empty list of rows
            rows = rows.reshape(0, host.num_points)
        if rows.ndim != 2 or rows.shape[1] != host.num_points:
            raise ValueError(f"value rows of shape {rows.shape} on a host "
                             f"of {host.num_points} points")
        if rows.min(initial=0) < 0:
            raise ValueError("a valuation row has a negative value")
        self.host = host
        self.rows = unique_rows(rows)
        self.rows.flags.writeable = False

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index: Union[int, slice]
                    ) -> Union[Valuation, "Valuations"]:
        if isinstance(index, slice):
            return Valuations(self.host, self.rows[index])
        return Valuation(self.host, tuple(self.rows[index].tolist()))

    def __iter__(self) -> Iterator[Valuation]:
        host = self.host
        return (Valuation(host, values)
                for values in map(tuple, self.rows.tolist()))

    def __eq__(self, other) -> bool:
        if isinstance(other, Valuations):
            return other.host is self.host \
                and np.array_equal(other.rows, self.rows)
        if isinstance(other, Sequence):
            return len(other) == len(self) \
                and all(a == b for a, b in zip(self, other))
        return NotImplemented


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


# -- the int8 row search -------------------------------------------------


def _propagate_rows(rows: np.ndarray, lines: np.ndarray, floor: int
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Close every row of an int8 value matrix under line propagation.

    UNDEF marks an undefined point. A line with two values sets its
    third point: equal values a, a give a - 1, and a, a + 1 give a + 1.
    A row dies when two values of a line are 2 or more apart, when a full
    line lacks a unique minimum with the other two points one above it,
    or when a value would fall below floor. Two lines may set one point
    to different values in one step; the write keeps one of them, and
    since a line's third value is unique, the other line then fails the
    full-line test in the next step. Mutates rows; returns the closed
    surviving rows and their indices in rows.
    """
    kept = np.arange(len(rows))
    while len(rows):
        a, b, c = (rows[:, col] for col in lines.T)
        # sorted line values; UNDEF, the largest int8, sorts last
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        low, high = np.minimum(lo, c), np.maximum(hi, c)
        mid = np.minimum(hi, np.maximum(lo, c))
        gap = mid - low
        pair = (mid != UNDEF) & (high == UNDEF)
        third = np.where(gap == 0, low - 1, mid)
        dead = ((high != UNDEF) & ((gap != 1) | (high != mid))) \
            | (pair & ((gap > 1) | (third < floor)))
        alive = ~dead.any(axis=1)
        r, li = np.nonzero(pair & alive[:, None])
        if not len(r):
            return rows[alive], kept[alive]
        pos = np.where(a[r, li] == UNDEF, 0,
                       np.where(b[r, li] == UNDEF, 1, 2))
        rows[r, lines[li, pos]] = third[r, li]
        rows, kept = rows[alive], kept[alive]
    return rows, kept


def _point_columns(seeds: np.ndarray, n: int) -> np.ndarray:
    """The [n + 1, ceil(seeds / 64)] uint64 point columns of the [seeds,
    words] uint64 point masks seeds: bit s of word k of row p is set when
    seed 64k + s holds point p. Row n and the bits past the last seed are
    0.

    Byte j of 8 consecutive seeds is an 8 x 8 bit matrix in one uint64,
    transposed by three swaps of its off-diagonal blocks (Warren,
    Hacker's Delight, section 7-3); its byte c then holds point 8j + c of
    the 8 seeds.
    """
    words = -(-len(seeds) // 64)
    nbytes = -(-n // 8)
    data = np.zeros((64 * words, nbytes), dtype=np.uint8)
    data[:len(seeds)] = seeds.astype("<u8").view(np.uint8).reshape(
        len(seeds), 8 * seeds.shape[1])[:, :nbytes]
    x = np.ascontiguousarray(data.reshape(8 * words, 8, nbytes).transpose(
        0, 2, 1)).view("<u8")[..., 0]
    for shift, mask in _TRANSPOSE8:
        t = x >> shift
        t ^= x
        t &= mask
        x ^= t
        t <<= shift
        x ^= t
    cols = np.zeros((n + 1, 8 * words), dtype=np.uint8)
    cols[:n] = x.view(np.uint8).reshape(8 * words, 8 * nbytes).T[:n]
    return cols.view("<u8")


def _screen(seeds: np.ndarray, lines: np.ndarray, partners: np.ndarray
            ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The indices of the seeds, [seeds, words] uint64 complement masks,
    that survive their forced start row, bit-sliced: each step runs on 64
    seeds per word of their point columns. Returns them with the [n,
    words] uint64 point columns of the complements and of their near
    sets, from which the search reads its start rows.

    A line meets a complement C in 1 or 3 points exactly when the XOR of
    its three columns is set; the lowest such seed raises RuntimeError.
    The near set, the points off C collinear with C, is the OR of the
    columns of each point's partners (partners[p], padded with n) off C:
    a line meeting C meets it in 2 points, so propagation would set its
    third point to -1 first, and no two such writes conflict. A seed is
    dropped when a line lies inside its near set, as its start row puts
    that line at -1, -1, -1 and the first propagation step would kill it;
    every other first-step death is left to propagation.
    """
    n = len(partners)
    cols = _point_columns(seeds, n)
    odd = np.bitwise_or.reduce(
        np.bitwise_xor.reduce(cols[lines.T], axis=0), axis=0)
    if odd.any():
        bad = np.unpackbits(odd.view(np.uint8), bitorder="little").argmax()
        raise RuntimeError(f"hyperplane complement "
                           f"{gf2.from_words(seeds[bad]):b} fails the "
                           f"0-or-2 line rule")
    near = np.bitwise_or.reduce(cols[partners], axis=1) & ~cols[:n]
    dead = np.bitwise_or.reduce(
        np.bitwise_and.reduce(near[lines.T], axis=0), axis=0)
    live = np.flatnonzero(np.unpackbits(
        ~dead.view(np.uint8), count=len(seeds), bitorder="little"))
    return live, cols[:n], near


def _sweep_block(rows: np.ndarray, comp: np.ndarray, lines: np.ndarray,
                 depth: int) -> Tuple[np.ndarray, np.ndarray]:
    """The valuations grown from each int8 start row of rows whose
    maximal-value set is the same row of the bool complement matrix comp.

    Each row is closed under line propagation; open rows branch over
    -1 .. -depth at their lowest-index undefined point, and completions
    are shifted to minimum 0 and kept when their maximal-value set is
    their seed's complement. Returns the completions and the row of comp
    each one came from. No value falls below -depth, the diameter: the
    seed values 0 are the maximum, and a valuation changes by at most 1
    along a line (a -1 needs a line, so depth >= 1). Branched rows are
    propagated depth first in pieces of at most _BLOCK_ROWS, so the rows
    held stay bounded when branching multiplies them.
    """
    branch = np.arange(-1, -depth - 1, -1, dtype=np.int8)
    stack = [(rows, np.arange(len(rows)))]
    done, done_seeds = [], []
    while stack:
        rows, seeds = stack.pop()
        rows, kept = _propagate_rows(rows, lines, -depth)
        seeds = seeds[kept]
        undefined = rows == UNDEF
        open_ = undefined.any(axis=1)
        vals, origin = rows[~open_], seeds[~open_]
        vals -= vals.min(axis=1, keepdims=True)
        top = vals == vals.max(axis=1, keepdims=True)
        keep = (top == comp[origin]).all(axis=1)
        done.append(vals[keep])
        done_seeds.append(origin[keep])
        # each open row repeats over -1 .. -depth at its lowest-index
        # undefined point
        x = undefined[open_].argmax(axis=1)
        rows = np.repeat(rows[open_], depth, axis=0)
        seeds = np.repeat(seeds[open_], depth)
        rows[np.arange(len(rows)), np.repeat(x, depth)] = np.tile(
            branch, len(x))
        for start in range(0, len(rows), _BLOCK_ROWS):
            stack.append((rows[start:start + _BLOCK_ROWS],
                          seeds[start:start + _BLOCK_ROWS]))
    return np.concatenate(done), np.concatenate(done_seeds)


def _line_index(g: Geometry) -> List[np.ndarray]:
    """The host's lines as point-index arrays, one [length, lines] array
    per line length."""
    by_length: Dict[int, List[Tuple[int, ...]]] = {}
    for line in g.lines:
        by_length.setdefault(len(line), []).append(line)
    return [np.array(lines, dtype=np.intp).T
            for _, lines in sorted(by_length.items())]


def _non_valuation_rows(mat: np.ndarray,
                        line_index: List[np.ndarray]) -> np.ndarray:
    """Indices of the rows of mat that are not valuations: the row
    minimum is not 0 (an empty row has none), or some line does not have
    exactly one point at its minimum m and none above m + 1, so all
    others at m + 1."""
    bad = mat.min(axis=1, initial=1) != 0
    for idx in line_index:
        on_lines = mat[:, idx]
        low = on_lines.min(axis=1, keepdims=True)
        ok = (((on_lines == low).sum(axis=1) == 1)
              & (on_lines <= low + 1).all(axis=1))
        bad |= ~ok.all(axis=1)
    return np.flatnonzero(bad)


def _check_sweep(vals: np.ndarray, lines: np.ndarray, comp: np.ndarray
                 ) -> None:
    """RuntimeError unless each row of vals is a valuation whose
    maximal-value set is the same row of the bool complement matrix comp;
    independent of the propagation that found it."""
    bad = _non_valuation_rows(vals, [lines.T])
    if bad.size:
        raise RuntimeError(f"completion is not a valuation: "
                           f"{tuple(vals[bad[0]].tolist())}")
    top = vals == vals.max(axis=1, keepdims=True)
    bad = np.flatnonzero((top != comp).any(axis=1))
    if bad.size:
        raise RuntimeError(f"valuation {tuple(vals[bad[0]].tolist())} does "
                           f"not have its seed's hyperplane")


def _search_rows(g: Geometry, seed_words: Callable[[], np.ndarray]
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """The valuations on each hyperplane complement of seed_words(), a
    [seeds, words] uint64 array of point masks, low word first.

    seed_words is called after the guards: a disconnected host raises
    ValueError; a diameter of 127 or more, too large for int8 values, or
    a line without 3 points raises GeometryError. All seeds are screened
    at once, 64 per word (_screen): each must meet every line in 0 or 2
    points, and a seed whose forced start row already breaks a line is
    dropped. The survivors' start rows are read off the screen's point
    columns, and they are propagated and branched in full blocks of
    _BLOCK_ROWS; each completion is checked to be a valuation whose
    hyperplane is its seed's (RuntimeError otherwise). Returns the int8
    value rows and the index of the seed each one came from.
    """
    if not g.is_connected():
        raise ValueError("valuations require a connected geometry")
    n = g.num_points
    depth = g.diameter()
    if depth + 1 > np.iinfo(np.int8).max:
        raise GeometryError(f"diameter {depth} is too large for the int8 "
                            f"values of the valuation search")
    if any(len(line) != 3 for line in g.lines):
        raise GeometryError("the valuation search requires 3-point lines")
    seeds = seed_words()
    lines = np.array(g.lines, dtype=np.intp).reshape(-1, 3)
    # a point off a complement C is collinear with C when the next point
    # of one of its lines, taken cyclically, is in C: the line holds 0 or
    # 2 points of C. partners[p] lists those next points, padded with n.
    # (Gathers, not a float product: a threaded BLAS call stalls when the
    # other cores are busy.)
    points = lines.ravel()
    order = np.argsort(points, kind="stable")
    p, q = points[order], lines[:, [1, 2, 0]].ravel()[order]
    partners = np.full((n, np.bincount(p, minlength=n).max(initial=0)), n)
    partners[p, np.arange(len(p)) - np.searchsorted(p, p)] = q
    live, comp_cols, near_cols = _screen(seeds, lines, partners)
    # seed s is bit s & 7 of byte s >> 3 of a point column's little-endian
    # words; a block's rows are gathered from those bytes
    comp_bytes = comp_cols.view(np.uint8).T
    near_bytes = near_cols.view(np.uint8).T
    found = [np.empty((0, n), dtype=np.int8)]
    origins = [np.empty(0, dtype=np.intp)]
    for start in range(0, len(live), _BLOCK_ROWS):
        index = live[start:start + _BLOCK_ROWS]
        bit = (np.uint8(1) << (index & 7).astype(np.uint8))[:, None]
        comp = comp_bytes[index >> 3] & bit != 0
        near = near_bytes[index >> 3] & bit != 0
        # 0 on C, -1 on the near set, UNDEF elsewhere; mask arithmetic,
        # as np.where is slow on masks without a pattern
        vals, origin = _sweep_block(UNDEF * ~(near | comp) - near, comp,
                                    lines, depth)
        _check_sweep(vals, lines, comp[origin])
        found.append(vals)
        origins.append(index[origin])
    return np.concatenate(found), np.concatenate(origins)


def valuations_on_hyperplanes(g: Geometry, hyps: Sequence[Hyperplane]
                              ) -> List[np.ndarray]:
    """The valuations whose non-maximal-value set is each hyperplane, one
    int8 matrix each in value-vector order: the search of all_valuations,
    with the same guards and checks, seeded with the hyperplane
    complements. No row repeats on a seed, as branches differ."""
    words = max(1, -(-g.num_points // 64))
    vals, origin = _search_rows(g, lambda: gf2.to_words(
        [h.complement_bits() for h in hyps], words))
    order = np.lexsort((row_keys(vals), origin))
    # [:len(hyps)]: np.split gives one (empty) piece when hyps is empty
    return np.split(vals[order], np.searchsorted(
        origin[order], np.arange(1, len(hyps))))[:len(hyps)]


def all_valuations(g: Geometry) -> Valuations:
    """Every valuation of g, in canonical (value-vector) order.

    Every nonzero vector of the incidence nullspace is a hyperplane
    complement and seeds one row of the search, without the automorphism
    group.
    """
    vals, _ = _search_rows(g, lambda: gf2.span_words(
        enumerable_basis(g), g.num_points)[1:])
    return Valuations(g, vals)


def row_keys(rows: np.ndarray) -> np.ndarray:
    """Each row of an int8 matrix as one void scalar; values are at least
    0, so the byte order of the keys is value-vector order."""
    rows = np.ascontiguousarray(rows)
    return rows.view(f"V{rows.shape[1]}").reshape(len(rows))


def unique_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of an int8 matrix, in value-vector order."""
    # a sort and a mask: numpy's own unique imports numpy.ma
    keys = np.sort(row_keys(rows))
    keep = np.ones(len(keys), dtype=bool)
    keep[1:] = keys[1:] != keys[:-1]
    return keys[keep].view(np.int8).reshape(int(keep.sum()), rows.shape[1])


def find_rows(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The index of each of rows in the sorted distinct int8 rows table,
    or -1 where it is absent."""
    keys, want = row_keys(table), row_keys(rows)
    if not len(keys):
        return np.full(len(want), -1, dtype=np.intp)
    pos = np.searchsorted(keys, want)
    # a row is present when the key at its left insertion point equals it;
    # compared in pieces, as the keys gathered at once would take as much
    # memory again as the rows
    at = np.minimum(pos, len(keys) - 1)
    hit = np.empty(len(want), dtype=bool)
    for start in range(0, len(want), _BLOCK_ROWS):
        piece = slice(start, start + _BLOCK_ROWS)
        hit[piece] = keys[at[piece]] == want[piece]
    return np.where(hit, pos, -1)


def orbit_closure(seeds: np.ndarray, group: AutGroup
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """The closure of the int8 rows seeds under the images rows[:, theta]
    of the group's generators, as sorted distinct rows, and each row's
    orbit root, the row of the orbit's smallest value vector.

    A dict maps each row's bytes to its index in discovery order. Each
    frontier, the rows found last, is mapped by one generator at a time;
    every image is looked up by its bytes, a miss gets the next index,
    and the misses form the next frontier. The recorded image indices
    are renumbered to sorted order once, at the end, and min-label
    propagation over them gives the roots.
    """
    n = seeds.shape[1]
    perms = np.array(group.generators, dtype=np.intp).reshape(
        len(group.generators), n)
    index: Dict[bytes, int] = {}

    def lookup(rows: np.ndarray) -> np.ndarray:
        # the bytes of each C-contiguous row; a void view needs a width
        keys = rows.view(f"V{n}").ravel().tolist() if n else [b""] * len(rows)
        return np.fromiter((index.setdefault(key, len(index)) for key in keys),
                           dtype=np.intp, count=len(keys))

    lookup(np.ascontiguousarray(seeds, dtype=np.int8))
    # per frontier: [generators, frontier rows] discovery indices of images
    acts = [np.empty((len(perms), 0), dtype=np.intp)]
    frontiers = [np.empty((0, n), dtype=np.int8)]
    done = 0
    while done < len(index):
        new = np.frombuffer(b"".join(islice(index, done, None)),
                            dtype=np.int8).reshape(len(index) - done, n)
        done = len(index)
        frontiers.append(new)
        acts.append(np.array([lookup(np.take(new, perm, axis=1))
                              for perm in perms], dtype=np.intp
                             ).reshape(len(perms), len(new)))
    # values are at least 0, so byte order is value-vector order
    order = np.array([index[key] for key in sorted(index)], dtype=np.intp)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return (np.concatenate(frontiers)[order],
            _orbit_labels(rank[np.concatenate(acts, axis=1)[:, order]],
                          len(order)))


# -- statistics and classification ---------------------------------------


def row_stats(g: Geometry, rows: np.ndarray) -> List[ValuationStats]:
    """The statistics of each valuation row of the connected host g, in
    one pass over the matrix; the distribution counts the values
    0 .. diameter, or up to the row maximum when that is larger."""
    top = rows.max(axis=1)
    span = g.diameter() + 1
    dist = rows[:, :, None] == np.arange(max(span, top.max(initial=0) + 1))
    below = (rows < top[:, None]).sum(axis=1)
    return [ValuationStats(t, tuple(np.flatnonzero(row == 0).tolist()), h,
                           tuple(d[:max(span, t + 1)]))
            for t, row, h, d in zip(top.tolist(), rows, below.tolist(),
                                    dist.sum(axis=1).tolist())]


def label_orbits(g: Geometry, rows: np.ndarray, roots: np.ndarray
                 ) -> Tuple[List[ValuationType], List[str]]:
    """Label the orbits of the sorted distinct int8 rows of a connected
    host, given by their orbit_closure roots, as isomorphism classes;
    also return each row's label.

    Orbits are ordered by maximum value (descending), zero-set size,
    hyperplane size and value distribution, then by orbit size and
    smallest value vector, which only break ties the statistics leave.
    The orbit of the classical valuation at point 0 is A; orbits of
    maximum value 1 (ovoidal) are C, or C1, C2, ... when there are
    several; the rest are B (B1, B2, ... when there are several) on
    hosts with an ovoidal orbit, and B, C, D, ... in order otherwise.
    """
    if not len(rows):
        return [], []
    sizes = np.bincount(roots, minlength=len(rows))
    orbits = np.flatnonzero(sizes).tolist()
    stats = dict(zip(orbits, row_stats(g, rows[orbits])))
    # a root's index orders orbits as its smallest value vector does
    order = sorted(orbits, key=lambda i: (
        -stats[i].max_value, len(stats[i].zero_set),
        stats[i].hyperplane_size, stats[i].distribution, sizes[i], i))
    # the classical valuation at point 0, d(0, .)
    at = find_rows(rows, np.array(g.dist[:1], dtype=np.int8))[0]
    classical_at = int(roots[at]) if at >= 0 else None
    ovoidal = [i for i in order if stats[i].max_value == 1]
    middle = [i for i in order
              if i != classical_at and stats[i].max_value != 1]
    labels = {classical_at: "A"}
    if ovoidal:
        for group, letter in ((ovoidal, "C"), (middle, "B")):
            labels.update((i, letter if len(group) == 1 else
                           f"{letter}{k + 1}") for k, i in enumerate(group))
    else:
        labels.update((i, chr(ord("B") + k)) for k, i in enumerate(middle))
    types = [ValuationType(label=labels[i], class_size=int(sizes[i]),
                           stats=stats[i]) for i in order]
    return types, [labels[i] for i in roots.tolist()]


def classify_valuations(g: Geometry, group: AutGroup, vals: Valuations
                        ) -> Tuple[List[ValuationType], List[str]]:
    """Partition the given valuations of g into automorphism orbits and
    label each orbit as one isomorphism class (see label_orbits: A
    classical, B / B1.. intermediate, C / C1.. ovoidal). Returns the
    classes and the label of each valuation in value-vector order.

    A disconnected host, or rows of another width, raises ValueError. An
    orbit that leaves the given valuations means the set is not closed
    under the group (RuntimeError).
    """
    if not g.is_connected():
        raise ValueError("valuations require a connected geometry")
    given = vals.rows
    if given.shape[1] != g.num_points:
        raise ValueError(f"valuations of a {given.shape[1]}-point host "
                         f"given for a {g.num_points}-point host")
    rows, roots = orbit_closure(given, group)
    if len(rows) > len(given):
        # image of given row i under generator j at j * len(given) + i
        images = given[:, group.generators].swapaxes(0, 1)
        out = (find_rows(given, images.reshape(-1, g.num_points)) < 0).argmax()
        row = tuple(given[out % len(given)].tolist())
        raise RuntimeError(f"the automorphism orbit of {row} leaves the "
                           f"given valuations")
    return label_orbits(g, rows, roots)
