"""Named small instances, the fixtures ``linkscope corpus dump`` writes."""

from __future__ import annotations

from .graph import Graph, MonitorSet

def named_fixtures() -> dict[str, tuple[Graph, MonitorSet]]:
    """Small instances used throughout the test suite.

    The two bridge fixtures put one monitor on each side of a bridge, with
    two links adjacent to the bridge per side; in the second one the bridge
    is incident to a monitor.
    """
    fixtures: dict[str, tuple[Graph, MonitorSet]] = {}

    # bridge 4-5 between two four-cycles; monitors 1 and 8 on opposite sides
    fig1a = Graph(
        edges=[(1, 2), (1, 3), (2, 4), (3, 4), (4, 5), (5, 6), (5, 7), (6, 8), (7, 8)]
    )
    fixtures["fig1a_bridge"] = (fig1a, (1, 8))

    # bridge 4-5 lands directly on monitor 5; its far side is a triangle
    fig1b = Graph(edges=[(1, 2), (1, 3), (2, 4), (3, 4), (4, 5), (5, 6), (5, 7), (6, 7)])
    fixtures["fig1b_bridge"] = (fig1b, (1, 5))

    k4 = Graph(edges=[(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    fixtures["k4_m12"] = (k4, (1, 2))

    triangle = Graph(edges=[(1, 2), (1, 3), (2, 3)])
    fixtures["triangle_m12"] = (triangle, (1, 2))

    c4 = Graph(edges=[(1, 2), (2, 3), (3, 4), (1, 4)])
    fixtures["c4_m13"] = (c4, (1, 3))

    bowtie = Graph(edges=[(1, 2), (1, 5), (2, 5), (3, 4), (3, 5), (4, 5)])
    fixtures["bowtie"] = (bowtie, (1, 2, 3))

    return fixtures
