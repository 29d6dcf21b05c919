"""The test hosts that several test modules share: named constructions,
host texts, a hypothesis strategy of small partial linear spaces and
two of line lists that need not form one. New hosts go here, not into
a test module."""
import itertools
import random

from hypothesis import assume, strategies as st

from hexval.geometry import Geometry

# the host whose distributions are shared by several orbits, and which
# has three orbits of maximum value 1
EXAMPLE_HOST = "points 8\n1 2 6\n1 3 5\n3 4 7\n0 3 6\n"

#: connected hosts with no automorphism but the identity that carry a
#: type-C valuation, which is then an orbit of its own: ovoidal in the
#: first three, the second non-classical orbit of a host without
#: ovoidal valuations in the last. The random strategy rarely draws one.
RIGID_HOSTS = {
    "rigid": "points 9\n3 6 7\n8 3 2\n4 5 0\n1 2 5\n3 0 1\n6 0 2\n",
    "rigid-b-c": "points 10\n0 1 8\n0 3 5\n1 3 7\n2 4 6\n2 5 8\n3 4 8\n"
                 "3 6 9\n",
    "rigid-c-only": "points 9\n0 4 5\n0 6 7\n1 4 7\n2 3 4\n2 5 8\n3 5 6\n"
                    "4 6 8\n",
    "rigid-a-b-c-d": "points 10\n0 1 7\n0 3 6\n1 5 8\n2 3 8\n2 5 6\n"
                     "3 5 9\n4 6 9\n",
}


#: a connected host whose V' has three points and no line: no line of its
#: valuation geometry has three type-C points
LINELESS_VPRIME_HOST = "points 7\n0 1 2\n0 3 5\n0 4 6\n2 4 5\n"


def relabeled(g, seed):
    """g with its points renumbered by a seeded random permutation."""
    relabel = random.Random(seed).sample(range(g.num_points), g.num_points)
    return Geometry(g.num_points,
                    [[relabel[p] for p in line] for line in g.lines])


def disjoint_lines(k):
    return Geometry(3 * k, [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(k)])


def pendant_path(g):
    """g with a path of two new lines hanging from point 0."""
    n = g.num_points
    return Geometry(n + 4, list(g.lines) + [(0, n, n + 1),
                                            (n + 1, n + 2, n + 3)])


def chain(k):
    """k lines in a row, each meeting the next in one point."""
    return Geometry(2 * k + 1, [(2 * i, 2 * i + 1, 2 * i + 2)
                                for i in range(k)])


@st.composite
def partial_linear_spaces(draw, max_points=12, min_lines=0, max_lines=16,
                          connected=False):
    """Partial linear spaces with 3-point lines on at most max_points
    points, every point on a line, from min_lines to max_lines random
    triples; lines sharing a pair with an earlier line are dropped. With
    connected, only connected spaces are drawn."""
    n = draw(st.integers(3, max_points))
    triples = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=3,
                                    max_size=3),
                            min_size=min_lines, max_size=max_lines))
    lines, pairs = [], set()
    for t in triples:
        line = tuple(sorted(t))
        new_pairs = set(itertools.combinations(line, 2))
        if not new_pairs & pairs:
            pairs |= new_pairs
            lines.append(line)
    used = sorted({p for line in lines for p in line})
    index = {p: i for i, p in enumerate(used)}
    g = Geometry(len(used), [[index[p] for p in line] for line in lines])
    if connected:
        assume(g.is_connected())
    return g


@st.composite
def line_lists(draw):
    """A point count from 0 to 8 and lines on it: up to 6 of 2 to 5
    distinct points, which may share pairs, and up to 2 of 0 to 5 points
    from -1 to the count, which may be short or hold repeated or
    out-of-range points."""
    n = draw(st.integers(0, 8))
    lines = draw(st.lists(st.lists(st.integers(-1, n), max_size=5),
                          max_size=2))
    if n >= 2:
        lines += draw(st.lists(st.sets(st.integers(0, n - 1), min_size=2,
                                       max_size=min(5, n)), max_size=6))
    return n, lines


@st.composite
def triple_lists(draw):
    """A point count from 3 to 8 and up to 8 lines of 3 distinct points
    on it, which may repeat or share pairs."""
    n = draw(st.integers(3, 8))
    return n, draw(st.lists(st.sets(st.integers(0, n - 1), min_size=3,
                                    max_size=3), max_size=8))
