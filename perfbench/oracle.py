"""Independent checks the benchmark applies to the program's outputs.

Nothing here imports hexval: the oracles work on the benchmark's own
parse of the geometry text.
"""
from __future__ import annotations

from collections import deque
from typing import List, Optional, Sequence, Tuple


def _lines_through(n: int, lines: Sequence[Sequence[int]]) -> List[List[int]]:
    through: List[List[int]] = [[] for _ in range(n)]
    for li, line in enumerate(lines):
        for p in line:
            through[p].append(li)
    return through


def _bfs_order(n, lines, through, start) -> Tuple[List[int], List[int]]:
    """Points reachable from start in BFS order, with each one's
    predecessor (a point on a common line)."""
    order, parent = [start], [-1] * n
    seen = {start}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for li in through[x]:
            for y in lines[li]:
                if y not in seen:
                    seen.add(y)
                    parent[y] = x
                    order.append(y)
                    queue.append(y)
    return order, parent


def count_valuations(n: int, lines: Sequence[Sequence[int]]) -> Optional[int]:
    """Number of valuations of a connected geometry, by exhaustive search;
    None when the geometry is disconnected (it then has infinitely many,
    since a component can be shifted up freely).

    A valuation is a point function with minimum 0 under which every line
    has a unique minimum and its other points one above it. Values on a
    line differ by at most 1, so a min-0 valuation stays within the
    diameter and each point is within 1 of its BFS predecessor.
    """
    if n == 0:
        return 0
    through = _lines_through(n, lines)
    order, parent = _bfs_order(n, lines, through, 0)
    if len(order) != n:
        return None
    diameter = 0
    for p in range(n):
        dist = {p: 0}
        queue = deque([p])
        while queue:
            x = queue.popleft()
            for li in through[x]:
                for y in lines[li]:
                    if y not in dist:
                        dist[y] = dist[x] + 1
                        queue.append(y)
        diameter = max(diameter, max(dist.values()))
    position = {p: i for i, p in enumerate(order)}
    # lines to test once the point with the latest position is assigned
    closing: List[List[Sequence[int]]] = [[] for _ in range(n)]
    for line in lines:
        closing[max(position[p] for p in line)].append(line)
    values = [0] * n
    count = 0

    def line_ok(line) -> bool:
        vals = sorted(values[p] for p in line)
        return vals[0] < vals[1] and all(v == vals[0] + 1 for v in vals[1:])

    def extend(i: int, has_zero: bool) -> None:
        nonlocal count
        if i == n:
            count += has_zero
            return
        p = order[i]
        if i == 0:
            candidates = range(diameter + 1)
        else:
            base = values[parent[p]]
            candidates = range(max(0, base - 1), min(diameter, base + 1) + 1)
        for v in candidates:
            values[p] = v
            if all(line_ok(line) for line in closing[i]):
                extend(i + 1, has_zero or v == 0)

    extend(0, False)
    return count


def is_line_map(mapping: Sequence[int], n: int,
                lines1: Sequence[Sequence[int]],
                lines2: Sequence[Sequence[int]]) -> bool:
    """Whether mapping is a bijection of 0..n-1 sending every line of the
    first geometry onto a line of the second."""
    if sorted(mapping) != list(range(n)) or len(lines1) != len(lines2):
        return False
    targets = {frozenset(line) for line in lines2}
    return all(frozenset(mapping[p] for p in line) in targets
               for line in lines1)
