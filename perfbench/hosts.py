"""Seeded benchmark inputs, produced as geometry text.

Every generator draws from a ``random.Random`` owned by the benchmark, so
the inputs depend only on the workload seed and never on random state the
program might keep. Parsing and rendering here are independent of hexval:
the program only ever sees the text.
"""
from __future__ import annotations

import hashlib
import random
from itertools import combinations
from typing import Dict, List, Sequence, Tuple

Lines = List[Tuple[int, ...]]

#: random hosts: point counts, and extra-line attempts as a share of n
SIZES = range(6, 13)
EXTRA_SHARES = (0, 1, 2)  # thirds of n: cover only, sparse, dense
HOSTS_PER_STRATUM = 6
#: the stream the random host structures are drawn from; fixed, so every
#: seed measures the same structures (see ``small_hosts``)
CORPUS_SEED = "small_hosts/corpus"
#: relabelings of each classical host; two, so outputs can be compared
CLASSICAL_COPIES = 2
#: |Aut| of the classical hosts (PGL(3,2), the 3x3 grid and its dual,
#: and PGL(3,2) extended by the polarity for the (2,1)-hexagon)
CLASSICAL_AUT_ORDER = {"fano": 168, "grid3": 72, "grid3_dual": 72, "h21": 336}


def parse(text: str) -> Tuple[int, Lines]:
    """(number of points, lines) of a geometry text."""
    rows = [row.split() for row in text.splitlines() if row.strip()]
    return int(rows[0][1]), [tuple(int(tok) for tok in row) for row in rows[1:]]


def render(num_points: int, lines: Sequence[Sequence[int]]) -> str:
    return "".join([f"points {num_points}\n"]
                   + [" ".join(map(str, line)) + "\n" for line in lines])


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def relabel(rng: random.Random, text: str) -> str:
    """The same geometry under a random point permutation, with the line
    rows and the points within each row shuffled."""
    n, lines = parse(text)
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[perm[p] for p in line] for line in lines]
    rng.shuffle(rows)
    for row in rows:
        rng.shuffle(row)
    return render(n, rows)


def random_host(rng: random.Random, n: int, extra: int) -> Lines:
    """Random partial linear space with 3-point lines on n points.

    Every point lies on a line: an uncovered point gets a line through two
    points it shares no line with. Then ``extra`` random triples are tried
    and kept when they meet no line in two points. Isolated points are
    excluded because each one multiplies the automorphism count that
    ``automorphism_group`` enumerates; with every point covered the worst
    case on 12 points is 4 disjoint lines (31,104 automorphisms).
    Disconnected hosts stay in the mix.
    """
    lines: Lines = []
    used = set()

    def fits(triple) -> bool:
        return not any(pair in used for pair in combinations(sorted(triple), 2))

    def add(triple) -> None:
        line = tuple(sorted(triple))
        lines.append(line)
        used.update(combinations(line, 2))

    covered = set()
    while len(covered) < n:
        p = rng.choice(sorted(set(range(n)) - covered))
        others = [q for q in range(n) if q != p]
        pairs = [pair for pair in combinations(others, 2) if fits((p,) + pair)]
        add((p,) + rng.choice(pairs))
        covered.update(lines[-1])
    for _ in range(extra):
        triple = rng.sample(range(n), 3)
        if fits(triple):
            add(triple)
    return lines


def small_hosts(rng: random.Random, classical: Dict[str, str]) -> List[dict]:
    """The small_hosts input list: relabelings of each classical host, then
    random hosts stratified by point count and line density.

    The random structures are drawn once from ``CORPUS_SEED`` and only their
    labels come from ``rng``. The cost of a host grows with its automorphism
    group, which is heavy-tailed over random structures: one seed drew a
    host that took as long as the other 133 together. With the structures
    fixed, every seed does the same work under its own labeling, and the
    operations that raise differ between seeds only where the program's
    failure depends on the labels (281-283 of 804 at the commit that
    added the benchmark).
    """
    corpus = random.Random(CORPUS_SEED)
    out = []
    for name, text in classical.items():
        for copy in range(CLASSICAL_COPIES):
            out.append({"label": f"{name}#{copy}", "classical": name,
                        "text": relabel(rng, text)})
    for n in SIZES:
        for share in EXTRA_SHARES:
            for k in range(HOSTS_PER_STRATUM):
                lines = random_host(corpus, n, n * share // 3)
                out.append({"label": f"random-n{n}-x{share}#{k}",
                            "classical": None,
                            "text": relabel(rng, render(n, lines))})
    return out
