"""The test hosts that several test modules share: named constructions,
one host text, and one hypothesis strategy of small partial linear
spaces. New hosts go here, not into a test module."""
import itertools
import random

from hypothesis import assume, strategies as st

from hexval.geometry import Geometry

# the host whose distributions are shared by several orbits, and which
# has three orbits of maximum value 1
EXAMPLE_HOST = "points 8\n1 2 6\n1 3 5\n3 4 7\n0 3 6\n"


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
