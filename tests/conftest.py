from __future__ import annotations

import pytest

from linkscope.graph import Graph


def k_n(n: int, start: int = 1) -> Graph:
    nodes = list(range(start, start + n))
    return Graph(nodes, [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1 :]])


def c_n(n: int) -> Graph:
    return Graph(edges=[(i, i % n + 1) for i in range(1, n + 1)])


def path_n(n: int) -> Graph:
    return Graph(edges=[(i, i + 1) for i in range(1, n)])


@pytest.fixture
def k4() -> Graph:
    return k_n(4)


@pytest.fixture
def c4() -> Graph:
    return c_n(4)


@pytest.fixture
def triangle() -> Graph:
    return k_n(3)


@pytest.fixture
def bowtie() -> Graph:
    # two triangles sharing node 5
    return Graph(edges=[(1, 2), (1, 5), (2, 5), (3, 4), (3, 5), (4, 5)])


# Input 43 of the place benchmark's generator at seed 107 (32 nodes, 80
# links).  Enumerating its measurement paths in lexicographic order walks for
# minutes before reaching a cap of 2000 paths.
STALL_EDGES = [
    (1, 7), (1, 11), (1, 12), (1, 16), (2, 5), (2, 9), (2, 10), (2, 14), (2, 15), (2, 26),
    (2, 32), (3, 6), (3, 10), (3, 32), (4, 7), (4, 8), (4, 15), (4, 18), (5, 7), (5, 8),
    (5, 12), (5, 16), (5, 25), (5, 30), (5, 32), (6, 7), (6, 13), (6, 14), (6, 18), (6, 24),
    (6, 27), (7, 10), (7, 15), (7, 18), (7, 21), (7, 24), (7, 25), (7, 27), (7, 31), (8, 10),
    (8, 29), (9, 17), (9, 24), (10, 11), (10, 18), (10, 20), (11, 15), (11, 19), (11, 23), (11, 27),
    (11, 31), (12, 17), (13, 21), (13, 25), (13, 31), (14, 16), (14, 30), (15, 17), (15, 25), (15, 28),
    (17, 32), (18, 30), (19, 20), (19, 21), (19, 25), (19, 30), (20, 22), (20, 24), (20, 26), (21, 23),
    (21, 27), (21, 28), (22, 25), (23, 27), (23, 32), (24, 29), (24, 30), (25, 27), (28, 32), (31, 32),
]
